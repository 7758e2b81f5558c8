#include "trace/stats_parse.h"

#include <charconv>
#include <cstdint>

#include "common/json.h"

namespace mg::trace
{

namespace
{

using json::Kind;
using json::Value;

/**
 * Field extraction helper: accumulates the first error and makes the
 * happy path read as a flat list of assignments.
 */
class Extract
{
  public:
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what;
        return false;
    }

    bool
    u64(const Value &obj, const char *key, uint64_t &out)
    {
        const Value *v = obj.find(key);
        if (!v || v->kind != Kind::Number)
            return fail(std::string("missing counter '") + key + "'");
        // Counters are non-negative integers: "-5", "1.5", "1e3" and
        // values past 2^64 are valid JSON numbers, but corrupt input
        // for a counter field, not data.
        if (!json::toU64(*v, out))
            return fail(std::string("counter '") + key +
                        "' is not a non-negative 64-bit integer");
        return true;
    }

    bool
    u32(const Value &obj, const char *key, uint32_t &out)
    {
        uint64_t v = 0;
        if (!u64(obj, key, v))
            return false;
        if (v > UINT32_MAX)
            return fail(std::string("counter '") + key +
                        "' out of uint32 range");
        out = static_cast<uint32_t>(v);
        return true;
    }

    bool
    str(const Value &obj, const char *key, std::string &out)
    {
        const Value *v = obj.find(key);
        if (!v || v->kind != Kind::String)
            return fail(std::string("missing string '") + key + "'");
        out = v->text;
        return true;
    }

    const Value *
    object(const Value &obj, const char *key)
    {
        const Value *v = obj.find(key);
        if (!v || v->kind != Kind::Object) {
            fail(std::string("missing object '") + key + "'");
            return nullptr;
        }
        return v;
    }
};

bool
parseCache(Extract &x, const Value &parent, const char *name,
           uarch::CacheStats &out)
{
    const Value *c = x.object(parent, name);
    if (!c)
        return false;
    return x.u64(*c, "accesses", out.accesses) &&
           x.u64(*c, "misses", out.misses);
}

} // namespace

std::string
parseStatsJson(const std::string &line, ParsedStats &out)
{
    json::Document doc;
    if (std::string err = json::parse(line, doc); !err.empty())
        return err;
    const Value &root = doc.root;
    if (root.kind != Kind::Object)
        return "top-level value is not an object";

    Extract x;
    out = ParsedStats{};
    x.str(root, "workload", out.meta.workload);
    x.str(root, "config", out.meta.config);
    x.str(root, "selector", out.meta.selector);
    if (!x.error.empty())
        return x.error;

    // errorJson records carry "error" instead of the counters.
    if (const Value *e = root.find("error")) {
        if (e->kind != Kind::String)
            return "'error' is not a string";
        out.isError = true;
        out.error = e->text;
        if (root.find("errorClass")) {
            uint64_t sig = 0, attempts = 1;
            x.str(root, "errorClass", out.detail.cls);
            x.u64(root, "signal", sig);
            x.u64(root, "lastCycle", out.detail.lastCycle);
            x.u64(root, "attempts", attempts);
            x.str(root, "stderrTail", out.detail.stderrTail);
            out.detail.signal = static_cast<int>(sig);
            out.detail.attempts = attempts;
            // A signed int, as the writer prints it ("%d").
            if (const Value *es = root.find("exitStatus");
                es && es->kind == Kind::Number) {
                const char *last = es->text.data() + es->text.size();
                const auto [ptr, ec] = std::from_chars(
                    es->text.data(), last, out.detail.exitStatus);
                if (ec != std::errc() || ptr != last)
                    x.fail("'exitStatus' is not an int");
            }
        }
        return x.error;
    }

    uarch::SimResult &r = out.sim;
    x.u64(root, "cycles", r.cycles);
    x.u64(root, "originalInsts", r.originalInsts);
    x.u64(root, "committedUnits", r.committedUnits);
    x.u64(root, "committedHandles", r.committedHandles);
    x.u64(root, "coveredInsts", r.coveredInsts);

    if (const Value *mg = x.object(root, "minigraphs")) {
        x.u64(*mg, "instances", out.meta.mgInstances);
        x.u64(*mg, "templatesUsed", out.meta.mgTemplatesUsed);
        x.u64(*mg, "disabledExpansions", r.disabledExpansions);
        x.u64(*mg, "outliningJumps", r.outliningJumps);
        x.u64(*mg, "slackDynamicDisabledStatic",
              r.slackDynamicDisabledStatic);
    }

    if (const Value *la = root.find("lossAccounting");
        la && la->kind == Kind::Object) {
        x.u32(*la, "commitWidth", r.accountedWidth);
        if (const Value *b = x.object(*la, "buckets")) {
            for (size_t i = 0; i < uarch::kNumLossBuckets; ++i)
                x.u64(*b,
                      uarch::lossBucketName(
                          static_cast<uarch::LossBucket>(i)),
                      r.lossSlots[i]);
        }
    } else if (!la) {
        x.fail("missing 'lossAccounting'");
    }

    if (const Value *mt = root.find("mgTemplates");
        mt && mt->kind == Kind::Array) {
        for (const Value &t : mt->children) {
            if (t.kind != Kind::Object)
                return "mgTemplates element is not an object";
            uarch::MgTemplateSerialStats s;
            x.u64(t, "issues", s.issues);
            x.u64(t, "extWaitCycles", s.extWaitCycles);
            x.u64(t, "intPenaltyCycles", s.intPenaltyCycles);
            r.mgTemplates.push_back(s);
            if (const Value *n = t.find("name");
                n && n->kind == Kind::String)
                out.meta.templateNames.emplace_back(n->text);
        }
    } else {
        x.fail("missing 'mgTemplates'");
    }

    if (const Value *st = x.object(root, "stalls")) {
        x.u64(*st, "rob", r.robStallCycles);
        x.u64(*st, "iq", r.iqStallCycles);
        x.u64(*st, "reg", r.regStallCycles);
    }

    if (const Value *bl = x.object(root, "blame")) {
        x.u64(*bl, "notDispatched", r.blameNotDispatched);
        x.u64(*bl, "earliest", r.blameEarliest);
        x.u64(*bl, "srcs", r.blameSrcs);
        x.u64(*bl, "memDep", r.blameMemDep);
        x.u64(*bl, "fu", r.blameFu);
        x.u64(*bl, "replay", r.blameReplay);
        x.u64(*bl, "issued", r.blameIssued);
    }

    if (const Value *bp = x.object(root, "branchPred")) {
        x.u64(*bp, "condPredictions", r.branchPred.condPredictions);
        x.u64(*bp, "condMispredicts", r.branchPred.condMispredicts);
        x.u64(*bp, "btbMisses", r.branchPred.btbMisses);
        x.u64(*bp, "rasPredictions", r.branchPred.rasPredictions);
        x.u64(*bp, "rasMispredicts", r.branchPred.rasMispredicts);
    }

    if (const Value *cs = x.object(root, "caches")) {
        parseCache(x, *cs, "icache", r.icache);
        parseCache(x, *cs, "dcache", r.dcache);
        parseCache(x, *cs, "l2", r.l2);
        parseCache(x, *cs, "itlb", r.itlb);
        parseCache(x, *cs, "dtlb", r.dtlb);
    }

    if (const Value *m = x.object(root, "memory")) {
        x.u64(*m, "orderViolations", r.memOrderViolations);
        x.u64(*m, "issueReplays", r.issueReplays);
        x.u64(*m, "storeSetViolations", r.storeSets.violations);
        x.u64(*m, "storeSetLoadsDeferred", r.storeSets.loadsDeferred);
    }

    if (const Value *sd = x.object(root, "slackDynamic")) {
        x.u64(*sd, "serializedIssues", r.slackDynamic.serializedIssues);
        x.u64(*sd, "harmfulEvents", r.slackDynamic.harmfulEvents);
        x.u64(*sd, "disables", r.slackDynamic.disables);
        x.u64(*sd, "resurrections", r.slackDynamic.resurrections);
    }

    return x.error;
}

} // namespace mg::trace
