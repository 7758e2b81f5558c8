/**
 * @file
 * The benchmark's in-memory span recorder, its summary (self time per
 * span = duration minus the time its children cover), and the traced
 * replay of ProgramContext::run.
 */

#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "minigraph/rewriter.h"
#include "minigraph/selection.h"
#include "minigraph/selectors.h"
#include "trace/stats_json.h"
#include "uarch/core.h"

namespace hb
{

int
SpanLog::open(const char *name, const char *tag)
{
    Span s;
    s.name = name;
    s.tag = tag;
    s.parent = stack.empty() ? -1 : stack.back();
    s.start = wallNow();
    spans.push_back(s);
    stack.push_back(static_cast<int>(spans.size() - 1));
    return stack.back();
}

void
SpanLog::close(int index)
{
    spans[index].end = wallNow();
    stack.pop_back();
}

void
SpanLog::record(const char *name, const char *tag, double start,
                double end)
{
    Span s;
    s.name = name;
    s.tag = tag;
    s.parent = stack.empty() ? -1 : stack.back();
    s.start = start;
    s.end = end;
    spans.push_back(s);
}

ScopedSpan::ScopedSpan(SpanLog &l, const char *name, const char *tag)
    : log(l), index(l.open(name, tag)), start(l.spans[index].start)
{
}

ScopedSpan::~ScopedSpan()
{
    log.close(index);
}

double
ScopedSpan::elapsed() const
{
    return wallNow() - start;
}

TraceSummary
summarize(const std::vector<SpanLog> &logs)
{
    TraceSummary out;
    for (size_t t = 0; t < logs.size(); ++t) {
        const std::vector<SpanLog::Span> &spans = logs[t].spans;
        std::vector<double> covered(spans.size(), 0.0);
        for (const SpanLog::Span &s : spans)
            if (s.parent >= 0)
                covered[s.parent] += s.end - s.start;
        for (size_t i = 0; i < spans.size(); ++i) {
            const SpanLog::Span &s = spans[i];
            const double dur = s.end - s.start;
            const double self = dur - covered[i];
            out.total[s.name] += dur;
            out.calls[s.name] += 1;
            out.self[s.name] += self;
            if (s.tag) {
                const std::string tagged = std::string(s.name) + "#" + s.tag;
                out.total[tagged] += dur;
                out.calls[tagged] += 1;
            }
            if (t != 0)
                continue;
            if (s.parent < 0)
                out.wall += dur;
            if (std::string(s.name).rfind("bench.", 0) != 0)
                out.attributed += self;
        }
        for (const auto &[name, v] : logs[t].counters)
            out.counters[name] += v;
    }
    return out;
}

namespace
{

/**
 * A call that used less CPU than this cannot have run a timing
 * simulation: the program already held the artefact (another job's,
 * or one a fused run produced), so the call was a hit.
 */
constexpr double kSimFloorSec = 50e-6;

/**
 * Call one context accessor and record it as two adjacent spans: the
 * time the thread was off the CPU (blocked on the context lock behind
 * another job, or descheduled) as "sim.wait", then the time it
 * computed, named for the layer that computes the artefact.  A call
 * that computed nothing is one "sim.wait" span.
 *
 * Whether a call computed: for a timing simulation, whether it used
 * kSimFloorSec of CPU; for the cheap artefacts, whether it was the
 * first request on this context.
 *
 * @param computed  set when the call counted as a miss
 * @param cpu_sec   set to the CPU time the call used
 */
template <typename Call>
auto
accessor(ContextClaims &claims, SpanLog &log, const std::string &artefact,
         const char *span_name, const char *tag, bool timing_sim,
         bool &computed, double &cpu_sec, Call &&call)
{
    const bool first = claims.claim(artefact);
    const double t0 = wallNow();
    const double c0 = threadCpuNow();
    auto *result = call();
    const double cpu = threadCpuNow() - c0;
    const double t1 = wallNow();
    cpu_sec = cpu;
    computed = timing_sim ? cpu >= kSimFloorSec : first;
    if (computed) {
        const double split = std::clamp(t1 - cpu, t0, t1);
        log.record("sim.wait", tag, t0, split);
        log.record(span_name, tag, split, t1);
        log.count("sim.context_misses");
    } else {
        log.record("sim.wait", tag, t0, t1);
        log.count("sim.context_hits");
    }
    return result;
}

void
countCoreRun(SpanLog &log, const mg::uarch::SimResult &sim)
{
    log.count("uarch.sim_cycles", static_cast<double>(sim.cycles));
    log.count("uarch.committed_insts",
              static_cast<double>(sim.originalInsts));
}

} // namespace

Replayed
replayRun(mg::sim::ProgramContext &ctx, ContextClaims &claims,
          const mg::sim::RunRequest &req, const char *policy, SpanLog &log)
{
    if (req.chosen || req.trace || req.auditHook || req.profile)
        throw std::logic_error("replayRun: unsupported request fields");

    ScopedSpan run(log, "sim.run");
    Replayed out;
    mg::sim::RunResult &res = out.result;
    bool computed = false;
    double cpu = 0.0;

    if (!req.selector) {
        res.sim = *accessor(claims, log, "baseline:" + req.config.name,
                            "uarch.core", policy, true, computed, cpu,
                            [&] { return &ctx.baseline(req.config); });
        if (computed) {
            out.coreSec = cpu;
            countCoreRun(log, res.sim);
        }
        return out;
    }

    const mg::minigraph::SelectorKind kind = *req.selector;
    const mg::profile::SlackProfileData *prof = nullptr;
    if (mg::minigraph::selectorNeedsProfile(kind)) {
        const mg::uarch::CoreConfig &pc =
            req.profileConfig ? *req.profileConfig : req.config;
        prof = accessor(claims, log, "profile:" + pc.name, "profile.slack",
                        nullptr, true, computed, cpu,
                        [&] { return &ctx.profileOn(pc); });
        if (computed)
            log.count("profile.slack_runs");
    }

    // Same call order as ProgramContext::run: pool, filter, counts,
    // select.
    const std::vector<mg::minigraph::Candidate> *pool =
        accessor(claims, log, "pool", "minigraph.enumerate", nullptr,
                 false, computed, cpu,
                 [&] { return &ctx.candidatePool(); });
    std::vector<mg::minigraph::Candidate> filtered;
    {
        ScopedSpan s(log, "minigraph.select");
        filtered = mg::minigraph::filterPool(*pool, kind, ctx.program(),
                                             prof);
    }
    const mg::minigraph::ExecCounts *counts =
        accessor(claims, log, "counts", "profile.counts", nullptr, false,
                 computed, cpu, [&] { return &ctx.counts(); });
    mg::minigraph::SelectionResult sel;
    {
        ScopedSpan s(log, "minigraph.select");
        sel = mg::minigraph::selectGreedy(filtered, *counts,
                                          req.templateBudget);
    }
    log.count("minigraph.candidates", static_cast<double>(pool->size()));
    log.count("minigraph.chosen", static_cast<double>(sel.chosen.size()));

    mg::minigraph::RewrittenProgram rp = [&] {
        ScopedSpan s(log, "minigraph.rewrite");
        return mg::minigraph::rewrite(ctx.program(), sel.chosen);
    }();
    log.count("minigraph.instances",
              static_cast<double>(rp.instanceCount()));

    const mg::uarch::CoreConfig cfg =
        mg::sim::configForSelector(req.config, kind);
    {
        ScopedSpan s(log, "uarch.core", policy);
        mg::uarch::Core core(cfg, rp.program, &rp.info);
        res.sim = core.run();
        out.coreSec = s.elapsed();
    }
    countCoreRun(log, res.sim);

    res.instances = rp.instanceCount();
    res.templatesUsed = static_cast<uint32_t>(rp.info.templates.size());
    for (const mg::isa::MgTemplate &t : rp.info.templates)
        res.templateNames.push_back(mg::trace::templateLabel(t));
    res.templates = rp.info.templates;
    return out;
}

} // namespace hb
