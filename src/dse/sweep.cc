#include "dse/sweep.h"

#include <map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/stats_util.h"
#include "common/string_util.h"
#include "dse/pareto.h"
#include "dse/queue_model.h"
#include "minigraph/selectors.h"
#include "sim/runner.h"
#include "trace/stats_json.h"
#include "trace/stats_parse.h"
#include "workloads/workload.h"

namespace mg::dse
{

namespace
{

std::string
jstr(const std::string &s)
{
    return "\"" + json::escape(s) + "\"";
}

std::string
jnum(uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

std::string
jfix(double v)
{
    return strprintf("%.6f", v);
}

/** Pre-filter verdict for one (config, selector) cell. */
struct PruneDecision
{
    bool pruned = false;
    double predicted = 0.0;   ///< model IPC of this configuration
    std::string dominatedBy;  ///< the cheaper, predicted-faster config
};

/** What one grid point resolved to. */
enum class PointStatus : uint8_t
{
    Ok,      ///< stats line in hand (cache hit or fresh simulation)
    Pruned,  ///< pre-filtered; never measured
    Skipped, ///< another shard's point (shard mode; no document)
    Error,   ///< simulation failed
};

struct PointRecord
{
    PointStatus status = PointStatus::Skipped;
    std::string keyHex;     ///< content address (Ok points)
    std::string statsLine;  ///< the stored stats-JSON bytes (Ok)
    uarch::SimResult sim;   ///< what statsLine parses to (Ok)
    double predicted = 0.0; ///< model IPC (Pruned)
    std::string dominatedBy; ///< dominating config (Pruned)
    std::string errorClass;  ///< error class slug (Error)
    std::string errorMsg;    ///< failure message (Error)
};

/**
 * Pre-filter decisions per (selector, config) cell.  Decisions are a
 * pure function of the grid and the model, so every shard computes
 * the identical set.  A cell is pruned only when a *strictly cheaper*
 * configuration is predicted at least kPruneMargin faster; the
 * dominating cell named in the record is the best such predictor
 * (ties broken toward lower cost, then grid order — deterministic).
 */
std::vector<PruneDecision>
decidePrunes(const std::vector<uarch::CoreConfig> &configs,
             const std::vector<uint64_t> &costs,
             const std::vector<std::string> &selectors, bool enabled)
{
    const size_t nCfg = configs.size();
    std::vector<PruneDecision> out(selectors.size() * nCfg);
    for (size_t s = 0; s < selectors.size(); ++s) {
        const bool minigraphs = selectors[s] != "none";
        std::vector<double> pred(nCfg);
        for (size_t c = 0; c < nCfg; ++c)
            pred[c] = predictedIpc(configs[c], minigraphs);
        for (size_t c = 0; c < nCfg; ++c) {
            PruneDecision &d = out[s * nCfg + c];
            d.predicted = pred[c];
            if (!enabled)
                continue;
            size_t best = nCfg;
            for (size_t j = 0; j < nCfg; ++j) {
                if (costs[j] >= costs[c])
                    continue;
                if (pred[j] < pred[c] * kPruneMargin)
                    continue;
                if (best == nCfg || pred[j] > pred[best] ||
                    (pred[j] == pred[best] && costs[j] < costs[best]))
                    best = j;
            }
            if (best != nCfg) {
                d.pruned = true;
                d.dominatedBy = configs[best].name;
            }
        }
    }
    return out;
}

/**
 * Append one point's document record.  Every value here is a pure
 * function of the grid and the stored stats bytes — both the cache
 * hit and the fresh simulation paths parse the *stored* line, which
 * is what makes fresh/cached/merged documents byte-identical.
 */
std::string
pointJson(const SweepPoint &pt, const PointRecord &rec)
{
    std::string j = "    {\"workload\": " + jstr(pt.workload) +
                    ", \"selector\": " + jstr(pt.selector) +
                    ", \"config\": " + jstr(pt.config.name) +
                    ", \"cost\": " + jnum(pt.cost);
    switch (rec.status) {
      case PointStatus::Ok:
        j += ", \"status\": \"ok\", \"key\": " + jstr(rec.keyHex) +
             ", \"cycles\": " + jnum(rec.sim.cycles) +
             ", \"ipc\": " + jfix(rec.sim.ipc()) +
             ", \"coverage\": " + jfix(rec.sim.coverage()) +
             ", \"statsHash\": " + jstr(hex64(fnv1a64(rec.statsLine)));
        break;
      case PointStatus::Pruned:
        j += ", \"status\": \"pruned\", \"predictedIpc\": " +
             jfix(rec.predicted) +
             ", \"dominatedBy\": " + jstr(rec.dominatedBy);
        break;
      case PointStatus::Error:
        j += ", \"status\": \"error\", \"class\": " +
             jstr(rec.errorClass) + ", \"error\": " + jstr(rec.errorMsg);
        break;
      case PointStatus::Skipped: // no document in shard mode
        mg_panic("sweep: skipped point reached document emission");
    }
    return j + "}";
}

} // namespace

SweepOutcome
runSweep(const GridSpec &grid, const SweepOptions &opts)
{
    SweepOutcome out;
    if (opts.shardCount < 1 || opts.shardIndex < 1 ||
        opts.shardIndex > opts.shardCount) {
        out.error = strprintf("bad shard %u/%u (want 1 <= i <= N)",
                              opts.shardIndex, opts.shardCount);
        return out;
    }

    std::vector<SweepPoint> points;
    out.error = expandGrid(grid, points);
    if (!out.error.empty())
        return out;
    out.summary.points = points.size();
    if (points.empty()) {
        out.error = "empty grid (no workloads, selectors or configs)";
        return out;
    }

    // `mgsim batch --check-level` semantics: an explicit audit level
    // applies to every simulated core.  It perturbs the run (an audit
    // can abort it), so it must be set *before* key derivation — the
    // content address covers the full configuration.
    if (opts.batch.src.checkLevel != sim::OptionSource::Default)
        for (SweepPoint &pt : points)
            pt.config.checkLevel = opts.batch.checkLevel;

    ResultStore store;
    out.error = store.open(opts.storeRoot);
    if (!out.error.empty())
        return out;

    // The distinct configuration list (grid tuple order) drives the
    // pre-filter and the aggregate/Pareto sections.
    const size_t nCfg = grid.configs.size();
    const size_t nSel = grid.selectors.size();
    std::vector<uarch::CoreConfig> cfgs;
    std::vector<uint64_t> costs;
    for (size_t c = 0; c < nCfg; ++c) {
        cfgs.push_back(points[c].config);
        costs.push_back(points[c].cost);
    }
    const std::vector<PruneDecision> prunes =
        decidePrunes(cfgs, costs, grid.selectors, opts.prefilter);

    // Build each workload's program once; the content address hashes
    // the assembled bytes, not the name.
    std::map<std::string, assembler::Program> programs;
    for (const std::string &w : grid.workloads)
        if (!programs.count(w))
            programs.emplace(
                w, workloads::buildWorkload(*workloads::findWorkload(w))
                       .program);

    const bool shardMode = opts.shardCount > 1 && !opts.merge;
    std::vector<PointRecord> records(points.size());
    std::vector<size_t> toRun;       // indices into points
    std::vector<StoreKey> runKeys;   // parallel to toRun
    std::vector<std::string> missing; // merge mode: absent keys

    for (const SweepPoint &pt : points) {
        PointRecord &rec = records[pt.index];
        const size_t cfgIdx = pt.index % nCfg;
        const size_t selIdx = (pt.index / nCfg) % nSel;
        const PruneDecision &d = prunes[selIdx * nCfg + cfgIdx];
        if (d.pruned) {
            rec.status = PointStatus::Pruned;
            rec.predicted = d.predicted;
            rec.dominatedBy = d.dominatedBy;
            ++out.summary.pruned;
            continue;
        }
        if (shardMode &&
            pt.index % opts.shardCount != opts.shardIndex - 1) {
            rec.status = PointStatus::Skipped;
            ++out.summary.skipped;
            continue;
        }
        StoreKey key =
            deriveKey(programs.at(pt.workload), pt.config, pt.selector,
                      pt.templateBudget);
        rec.keyHex = key.hex();
        trace::ParsedStats parsed;
        if (auto line = store.lookup(key, parsed)) {
            rec.status = PointStatus::Ok;
            rec.statsLine = std::move(*line);
            rec.sim = std::move(parsed.sim);
            ++out.summary.hits;
            continue;
        }
        ++out.summary.misses;
        if (opts.merge) {
            missing.push_back(pt.workload + "/" + pt.selector + "/" +
                              pt.config.name);
            continue;
        }
        toRun.push_back(pt.index);
        runKeys.push_back(std::move(key));
    }

    if (opts.merge && !missing.empty()) {
        out.error = strprintf(
            "merge: %zu point(s) not in the store (run the shards "
            "first); first missing: %s",
            missing.size(), missing.front().c_str());
        return out;
    }

    if (!toRun.empty()) {
        std::vector<sim::RunRequest> reqs;
        for (size_t idx : toRun) {
            const SweepPoint &pt = points[idx];
            sim::RunRequest req;
            req.workload = *workloads::findWorkload(pt.workload);
            req.config = pt.config;
            if (pt.selector != "none")
                req.selector = *minigraph::selectorFromName(pt.selector);
            req.templateBudget = pt.templateBudget;
            reqs.push_back(std::move(req));
        }
        sim::Runner runner(opts.batch.runnerOptions());
        std::vector<sim::RunResult> results = runner.run(reqs, "sweep");
        out.summary.simulated = results.size();
        for (size_t i = 0; i < results.size(); ++i) {
            PointRecord &rec = records[toRun[i]];
            sim::RunResult &r = results[i];
            if (!r.ok) {
                rec.status = PointStatus::Error;
                rec.errorClass = sim::errorClassName(r.err.cls);
                rec.errorMsg = r.error;
                ++out.summary.failed;
                continue;
            }
            std::string line =
                r.statsJsonLine.empty()
                    ? trace::statsJson(sim::metaForRun(reqs[i], r), r.sim)
                    : r.statsJsonLine;
            std::string err = store.insert(runKeys[i], line);
            if (!err.empty() && out.error.empty())
                out.error = "store insert failed: " + err;
            trace::ParsedStats parsed; // valid unless insert failed
            trace::parseStatsJson(line, parsed);
            rec.status = PointStatus::Ok;
            rec.statsLine = std::move(line);
            rec.sim = std::move(parsed.sim);
        }
        if (!out.error.empty())
            return out;
    }

    if (shardMode) // shards publish into the store only
        return out;

    // ---- Deterministic document ----------------------------------
    std::string doc = "{\n";
    doc += "  \"schema\": \"mg-dse-sweep-v1\",\n";
    doc += "  \"simVersion\": " + jstr(kSimVersion) + ",\n";
    doc += "  \"base\": " + jstr(grid.base) + ",\n";
    doc += "  \"workloads\": [";
    for (size_t i = 0; i < grid.workloads.size(); ++i)
        doc += (i ? ", " : "") + jstr(grid.workloads[i]);
    doc += "],\n  \"selectors\": [";
    for (size_t i = 0; i < nSel; ++i)
        doc += (i ? ", " : "") + jstr(grid.selectors[i]);
    doc += "],\n  \"configs\": [\n";
    for (size_t c = 0; c < nCfg; ++c) {
        const ConfigTuple &t = grid.configs[c];
        doc += "    {\"name\": " + jstr(cfgs[c].name) +
               ", \"width\": " + jnum(t[0]) + ", \"iq\": " + jnum(t[1]) +
               ", \"regs\": " + jnum(t[2]) + ", \"mgt\": " + jnum(t[3]) +
               ", \"cost\": " + jnum(costs[c]) + "}";
        doc += c + 1 < nCfg ? ",\n" : "\n";
    }
    doc += "  ],\n  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
        doc += pointJson(points[i], records[i]);
        doc += i + 1 < points.size() ? ",\n" : "\n";
    }
    doc += "  ],\n";

    // Aggregates: geomean IPC per (selector, config) over the
    // workloads that measured Ok, in (selector, tuple) grid order.
    std::vector<ParetoPoint> aggs;
    std::vector<std::vector<double>> ipcs(nSel * nCfg);
    for (size_t i = 0; i < points.size(); ++i) {
        if (records[i].status != PointStatus::Ok)
            continue;
        const size_t cfgIdx = i % nCfg;
        const size_t selIdx = (i / nCfg) % nSel;
        ipcs[selIdx * nCfg + cfgIdx].push_back(records[i].sim.ipc());
    }
    for (size_t s = 0; s < nSel; ++s)
        for (size_t c = 0; c < nCfg; ++c) {
            const std::vector<double> &xs = ipcs[s * nCfg + c];
            if (xs.empty())
                continue;
            ParetoPoint p;
            p.config = cfgs[c].name;
            p.selector = grid.selectors[s];
            p.cost = costs[c];
            p.ipc = geomean(xs);
            p.workloads = xs.size();
            aggs.push_back(std::move(p));
        }
    markFrontier(aggs);
    doc += "  \"aggregates\": [\n";
    for (size_t i = 0; i < aggs.size(); ++i) {
        const ParetoPoint &p = aggs[i];
        doc += "    {\"config\": " + jstr(p.config) +
               ", \"selector\": " + jstr(p.selector) +
               ", \"cost\": " + jnum(p.cost) +
               ", \"workloads\": " + jnum(p.workloads) +
               ", \"geomeanIpc\": " + jfix(p.ipc) + ", \"pareto\": " +
               (p.onFrontier ? "true" : "false") + "}";
        doc += i + 1 < aggs.size() ? ",\n" : "\n";
    }
    doc += "  ],\n  \"pareto\": [\n";
    std::vector<ParetoPoint> frontier = frontierOf(std::move(aggs));
    for (size_t i = 0; i < frontier.size(); ++i) {
        const ParetoPoint &p = frontier[i];
        doc += "    {\"config\": " + jstr(p.config) +
               ", \"selector\": " + jstr(p.selector) +
               ", \"cost\": " + jnum(p.cost) +
               ", \"ipc\": " + jfix(p.ipc) +
               ", \"workloads\": " + jnum(p.workloads) + "}";
        doc += i + 1 < frontier.size() ? ",\n" : "\n";
    }
    doc += "  ]\n}\n";
    out.doc = std::move(doc);
    return out;
}

} // namespace mg::dse
