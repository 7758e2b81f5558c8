#include "trace/stats_json.h"

#include <cstdio>

namespace mg::trace
{

namespace
{

/** Key/value emitter building one flat object at a time. */
class Obj
{
  public:
    explicit Obj(std::string &out)
        : o(out)
    {
        o += '{';
    }

    void
    key(const char *k)
    {
        if (!first)
            o += ',';
        first = false;
        o += '"';
        o += k;
        o += "\":";
    }

    void
    u64(const char *k, uint64_t v)
    {
        key(k);
        o += std::to_string(v);
    }

    void
    f64(const char *k, double v)
    {
        key(k);
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6f", v);
        o += buf;
    }

    void
    str(const char *k, const std::string &v)
    {
        key(k);
        o += '"';
        o += json::escape(v);
        o += '"';
    }

    void
    close()
    {
        o += '}';
    }

  private:
    std::string &o;
    bool first = true;
};

void
cache(std::string &out, Obj &parent, const char *name,
      const uarch::CacheStats &c)
{
    parent.key(name);
    Obj o(out);
    o.u64("accesses", c.accesses);
    o.u64("misses", c.misses);
    o.f64("missRate", c.missRate());
    o.close();
}

} // namespace

std::string
templateLabel(const isa::MgTemplate &tmpl)
{
    std::string out;
    for (const isa::MgConstituent &c : tmpl.ops) {
        if (!out.empty())
            out += '+';
        out += isa::mnemonic(c.op);
    }
    return out;
}

std::string
statsJson(const StatsMeta &meta, const uarch::SimResult &res)
{
    std::string out;
    out.reserve(2048);
    Obj top(out);

    top.str("workload", meta.workload);
    top.str("config", meta.config);
    top.str("selector", meta.selector);

    top.u64("cycles", res.cycles);
    top.u64("originalInsts", res.originalInsts);
    top.u64("committedUnits", res.committedUnits);
    top.u64("committedHandles", res.committedHandles);
    top.u64("coveredInsts", res.coveredInsts);
    top.f64("ipc", res.ipc());
    top.f64("coverage", res.coverage());

    top.key("minigraphs");
    {
        Obj mg(out);
        mg.u64("instances", meta.mgInstances);
        mg.u64("templatesUsed", meta.mgTemplatesUsed);
        mg.u64("disabledExpansions", res.disabledExpansions);
        mg.u64("outliningJumps", res.outliningJumps);
        mg.u64("slackDynamicDisabledStatic",
               res.slackDynamicDisabledStatic);
        mg.close();
    }

    // --- cycle-loss accounting ---
    top.key("lossAccounting");
    if (res.accountedWidth == 0) {
        out += "null";
    } else {
        Obj la(out);
        la.u64("commitWidth", res.accountedWidth);
        la.u64("totalSlots", res.totalSlots());
        la.u64("usedSlots", res.committedUnits);
        la.u64("lostSlots", res.lostSlots());
        la.key("buckets");
        {
            Obj b(out);
            for (size_t i = 0; i < uarch::kNumLossBuckets; ++i)
                b.u64(uarch::lossBucketName(
                          static_cast<uarch::LossBucket>(i)),
                      res.lossSlots[i]);
            b.close();
        }
        la.close();
    }

    top.key("mgTemplates");
    out += '[';
    for (size_t i = 0; i < res.mgTemplates.size(); ++i) {
        if (i)
            out += ',';
        const uarch::MgTemplateSerialStats &t = res.mgTemplates[i];
        Obj to(out);
        to.u64("id", i);
        if (i < meta.templateNames.size())
            to.str("name", meta.templateNames[i]);
        to.u64("issues", t.issues);
        to.u64("extWaitCycles", t.extWaitCycles);
        to.u64("intPenaltyCycles", t.intPenaltyCycles);
        to.close();
    }
    out += ']';

    top.key("stalls");
    {
        Obj st(out);
        st.u64("rob", res.robStallCycles);
        st.u64("iq", res.iqStallCycles);
        st.u64("reg", res.regStallCycles);
        st.close();
    }

    top.key("blame");
    {
        Obj bl(out);
        bl.u64("notDispatched", res.blameNotDispatched);
        bl.u64("earliest", res.blameEarliest);
        bl.u64("srcs", res.blameSrcs);
        bl.u64("memDep", res.blameMemDep);
        bl.u64("fu", res.blameFu);
        bl.u64("replay", res.blameReplay);
        bl.u64("issued", res.blameIssued);
        bl.close();
    }

    top.key("branchPred");
    {
        Obj bp(out);
        bp.u64("condPredictions", res.branchPred.condPredictions);
        bp.u64("condMispredicts", res.branchPred.condMispredicts);
        bp.f64("condMispredictRate",
               res.branchPred.condMispredictRate());
        bp.u64("btbMisses", res.branchPred.btbMisses);
        bp.u64("rasPredictions", res.branchPred.rasPredictions);
        bp.u64("rasMispredicts", res.branchPred.rasMispredicts);
        bp.close();
    }

    top.key("caches");
    {
        Obj cs(out);
        cache(out, cs, "icache", res.icache);
        cache(out, cs, "dcache", res.dcache);
        cache(out, cs, "l2", res.l2);
        cache(out, cs, "itlb", res.itlb);
        cache(out, cs, "dtlb", res.dtlb);
        cs.close();
    }

    top.key("memory");
    {
        Obj m(out);
        m.u64("orderViolations", res.memOrderViolations);
        m.u64("issueReplays", res.issueReplays);
        m.u64("storeSetViolations", res.storeSets.violations);
        m.u64("storeSetLoadsDeferred", res.storeSets.loadsDeferred);
        m.close();
    }

    top.key("slackDynamic");
    {
        Obj sd(out);
        sd.u64("serializedIssues", res.slackDynamic.serializedIssues);
        sd.u64("harmfulEvents", res.slackDynamic.harmfulEvents);
        sd.u64("disables", res.slackDynamic.disables);
        sd.u64("resurrections", res.slackDynamic.resurrections);
        sd.close();
    }

    top.close();
    return out;
}

std::string
errorJson(const StatsMeta &meta, const std::string &error)
{
    std::string out;
    Obj top(out);
    top.str("workload", meta.workload);
    top.str("config", meta.config);
    top.str("selector", meta.selector);
    top.str("error", error);
    top.close();
    return out;
}

std::string
errorJson(const StatsMeta &meta, const std::string &error,
          const ErrorDetail &detail)
{
    std::string out;
    Obj top(out);
    top.str("workload", meta.workload);
    top.str("config", meta.config);
    top.str("selector", meta.selector);
    top.str("error", error);
    top.str("errorClass", detail.cls);
    top.u64("signal", static_cast<uint64_t>(
                          detail.signal < 0 ? 0 : detail.signal));
    top.key("exitStatus");
    out += std::to_string(detail.exitStatus);
    top.u64("lastCycle", detail.lastCycle);
    top.u64("attempts", detail.attempts);
    top.str("stderrTail", detail.stderrTail);
    top.close();
    return out;
}

} // namespace mg::trace
