/**
 * @file
 * The `dse-cold` and `dse-warm` workloads: dse::runSweep over the
 * pinned grid into an empty result store, and repeated against a store
 * set-up filled.  The traced round replays runSweep through the public
 * calls it makes; its document must be byte-identical to that of the
 * untraced round it is paired with.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/stats_util.h"
#include "common/string_util.h"
#include "dse/pareto.h"
#include "dse/queue_model.h"
#include "dse/result_store.h"
#include "dse/sweep.h"
#include "minigraph/selectors.h"
#include "trace/stats_json.h"
#include "trace/stats_parse.h"

namespace hb
{

namespace
{

/** One point record of a sweep document, as the program wrote it. */
struct DocPoint
{
    std::string status;
    std::string key;
    std::string statsHash;
    std::string cycles;
};

/** The value of `"name": ` in one document line ("" if absent). */
std::string
field(const std::string &line, const char *name)
{
    const std::string pat = std::string("\"") + name + "\": ";
    size_t p = line.find(pat);
    if (p == std::string::npos)
        return "";
    p += pat.size();
    if (line[p] == '"') {
        const size_t e = line.find('"', p + 1);
        return line.substr(p + 1, e - p - 1);
    }
    return line.substr(p, line.find_first_of(",}", p) - p);
}

/** The point records of a document, in document (expansion) order. */
std::vector<DocPoint>
docPoints(const std::string &doc)
{
    std::vector<DocPoint> out;
    for (const std::string &line : mg::split(doc, '\n')) {
        if (line.rfind("    {\"workload\": ", 0) != 0)
            continue;
        out.push_back({field(line, "status"), field(line, "key"),
                       field(line, "statsHash"), field(line, "cycles")});
    }
    return out;
}

const char *
policyTag(const std::string &selector)
{
    for (const std::string &p : policies())
        if (p == selector)
            return p.c_str();
    return nullptr;
}

const char *
suiteTag(const mg::workloads::WorkloadSpec &spec)
{
    return spec.suite == "cbench" ? "cbench" : nullptr;
}

/** runSweep with `workers` Runner threads and a private store. */
mg::dse::SweepOutcome
sweepOnce(const mg::dse::GridSpec &grid, const std::string &root,
          unsigned workers)
{
    mg::dse::SweepOptions so;
    so.storeRoot = root;
    so.batch = mg::sim::BatchOptions{};
    so.batch.jobs = workers;
    return mg::dse::runSweep(grid, so);
}

// ---- Traced replay of dse::runSweep ------------------------------

struct Prune
{
    bool pruned = false;
    double predicted = 0.0;
    std::string dominatedBy;
};

/** The pre-filter decision of dse/sweep.cc, from dse::predictedIpc. */
std::vector<Prune>
decidePrunes(const std::vector<mg::uarch::CoreConfig> &configs,
             const std::vector<uint64_t> &costs,
             const std::vector<std::string> &selectors)
{
    const size_t nCfg = configs.size();
    std::vector<Prune> out(selectors.size() * nCfg);
    for (size_t s = 0; s < selectors.size(); ++s) {
        std::vector<double> pred(nCfg);
        for (size_t c = 0; c < nCfg; ++c)
            pred[c] = mg::dse::predictedIpc(configs[c], selectors[s] != "none");
        for (size_t c = 0; c < nCfg; ++c) {
            Prune &d = out[s * nCfg + c];
            d.predicted = pred[c];
            size_t best = nCfg;
            for (size_t j = 0; j < nCfg; ++j) {
                if (costs[j] >= costs[c] ||
                    pred[j] < pred[c] * mg::dse::kPruneMargin)
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
 * Simulate the misses on `workers` threads sharing one context per
 * program, as sim::Runner does; thread w records into logs[w + 1].
 */
std::vector<mg::sim::RunResult>
replayBatch(const std::vector<mg::sim::RunRequest> &reqs, unsigned workers,
            std::vector<SpanLog> &logs)
{
    struct Slot
    {
        std::once_flag once;
        std::unique_ptr<mg::sim::ProgramContext> ctx;
        ContextClaims claims;
    };
    std::mutex slotsMu;
    std::map<std::string, std::unique_ptr<Slot>> slots;
    std::vector<mg::sim::RunResult> results(reqs.size());
    std::vector<double> busy(workers, 0.0);
    std::atomic<size_t> next{0};

    auto work = [&](unsigned w) {
        SpanLog &log = logs[w + 1];
        for (size_t i; (i = next++) < reqs.size();) {
            const mg::sim::RunRequest &req = reqs[i];
            ScopedSpan cell(log, "bench.cell");
            try {
                Slot *slot;
                {
                    std::lock_guard<std::mutex> lock(slotsMu);
                    auto &entry = slots[req.workload.name()];
                    if (!entry)
                        entry = std::make_unique<Slot>();
                    slot = entry.get();
                }
                std::call_once(slot->once, [&] {
                    ScopedSpan s(log, "sim.context");
                    mg::assembler::Program prog = [&] {
                        ScopedSpan b(log, "workloads.build",
                                     suiteTag(req.workload));
                        return mg::workloads::buildWorkload(req.workload)
                            .program;
                    }();
                    slot->ctx = std::make_unique<mg::sim::ProgramContext>(
                        std::move(prog));
                });
                const char *policy = policyTag(
                    req.selector ? mg::minigraph::nameOf(*req.selector)
                                 : "none");
                results[i] =
                    replayRun(*slot->ctx, slot->claims, req, policy, log)
                        .result;
            } catch (const std::exception &e) {
                results[i].setError(mg::sim::ErrorClass::Exception, e.what());
            } catch (...) {
                results[i].setError(mg::sim::ErrorClass::Unknown,
                                    "non-standard exception");
            }
            busy[w] += cell.elapsed();
        }
    };

    ScopedSpan batch(logs[0], "sim.batch");
    {
        std::vector<std::jthread> threads;
        for (unsigned w = 0; w < workers; ++w)
            threads.emplace_back(work, w);
    }
    double total = 0.0;
    for (double b : busy)
        total += b;
    logs[0].count("sim.busy_s", total);
    logs[0].count("sim.capacity_s", workers * batch.elapsed());
    return results;
}

std::string
jstr(const std::string &s)
{
    return "\"" + mg::trace::jsonEscape(s) + "\"";
}

std::string
jnum(uint64_t v)
{
    return std::to_string(v);
}

std::string
jfix(double v)
{
    return mg::strprintf("%.6f", v);
}

/** One stored stats line parsed inside a trace.stats_parse span. */
mg::trace::ParsedStats
parseTraced(const std::string &line, SpanLog &log)
{
    ScopedSpan s(log, "trace.stats_parse");
    mg::trace::ParsedStats parsed;
    if (std::string err = mg::trace::parseStatsJson(line, parsed);
        !err.empty())
        throw std::runtime_error("stored stats line unparsable: " + err);
    log.count("trace.stats_bytes", static_cast<double>(line.size()));
    return parsed;
}

/**
 * dse::runSweep(grid, {storeRoot = root}) rebuilt from the public
 * calls it makes, with one span around each.  @return the document
 */
std::string
tracedSweep(const mg::dse::GridSpec &grid, const std::string &root,
            unsigned workers, std::vector<SpanLog> &logs)
{
    SpanLog &log = logs[0];
    ScopedSpan sweep(log, "dse.sweep");

    std::vector<mg::dse::SweepPoint> points;
    if (std::string err = mg::dse::expandGrid(grid, points); !err.empty())
        throw std::runtime_error(err);
    mg::dse::ResultStore store;
    if (std::string err = store.open(root); !err.empty())
        throw std::runtime_error(err);

    const size_t nCfg = grid.configs.size();
    const size_t nSel = grid.selectors.size();
    std::vector<mg::uarch::CoreConfig> cfgs;
    std::vector<uint64_t> costs;
    for (size_t c = 0; c < nCfg; ++c) {
        cfgs.push_back(points[c].config);
        costs.push_back(points[c].cost);
    }
    std::vector<Prune> prunes;
    {
        ScopedSpan s(log, "dse.prefilter");
        prunes = decidePrunes(cfgs, costs, grid.selectors);
    }

    std::map<std::string, mg::assembler::Program> programs;
    for (const std::string &w : grid.workloads) {
        if (programs.count(w))
            continue;
        const mg::workloads::WorkloadSpec spec =
            *mg::workloads::findWorkload(w);
        ScopedSpan b(log, "workloads.build", suiteTag(spec));
        programs.emplace(w, mg::workloads::buildWorkload(spec).program);
    }

    enum class Status { Ok, Pruned, Error };
    struct Record
    {
        Status status = Status::Ok;
        std::string keyHex, line, errorClass, errorMsg;
        const Prune *prune = nullptr;
    };
    std::vector<Record> records(points.size());
    std::vector<size_t> toRun;
    std::vector<mg::dse::StoreKey> runKeys;
    for (const mg::dse::SweepPoint &pt : points) {
        Record &rec = records[pt.index];
        const Prune &d =
            prunes[((pt.index / nCfg) % nSel) * nCfg + pt.index % nCfg];
        if (d.pruned) {
            rec.status = Status::Pruned;
            rec.prune = &d;
            log.count("dse.pruned");
            continue;
        }
        mg::dse::StoreKey key;
        {
            ScopedSpan s(log, "dse.derive_key");
            key = mg::dse::deriveKey(programs.at(pt.workload), pt.config,
                                     pt.selector, pt.templateBudget);
        }
        rec.keyHex = key.hex();
        std::optional<std::string> line;
        {
            ScopedSpan s(log, "dse.lookup");
            line = store.lookup(key);
        }
        if (line) {
            rec.line = std::move(*line);
            log.count("dse.hits");
            continue;
        }
        toRun.push_back(pt.index);
        runKeys.push_back(std::move(key));
    }

    if (!toRun.empty()) {
        std::vector<mg::sim::RunRequest> reqs;
        for (size_t idx : toRun) {
            const mg::dse::SweepPoint &pt = points[idx];
            mg::sim::RunRequest req;
            req.workload = *mg::workloads::findWorkload(pt.workload);
            req.config = pt.config;
            if (pt.selector != "none")
                req.selector = *mg::minigraph::selectorFromName(pt.selector);
            req.templateBudget = pt.templateBudget;
            reqs.push_back(std::move(req));
        }
        std::vector<mg::sim::RunResult> results =
            replayBatch(reqs, workers, logs);
        for (size_t i = 0; i < results.size(); ++i) {
            Record &rec = records[toRun[i]];
            const mg::sim::RunResult &r = results[i];
            if (!r.ok) {
                rec.status = Status::Error;
                rec.errorClass = mg::sim::errorClassName(r.err.cls);
                rec.errorMsg = r.error;
                continue;
            }
            {
                ScopedSpan s(log, "trace.stats_json");
                rec.line = mg::trace::statsJson(
                    mg::sim::metaForRun(reqs[i], r), r.sim);
            }
            log.count("trace.stats_bytes",
                      static_cast<double>(rec.line.size()));
            ScopedSpan s(log, "dse.insert");
            if (std::string err = store.insert(runKeys[i], rec.line);
                !err.empty())
                throw std::runtime_error("store insert failed: " + err);
        }
    }

    // ---- The document, assembled as dse/sweep.cc does ------------
    std::string doc = "{\n";
    doc += "  \"schema\": \"mg-dse-sweep-v1\",\n";
    doc += "  \"simVersion\": " + jstr(mg::kSimVersion) + ",\n";
    doc += "  \"base\": " + jstr(grid.base) + ",\n";
    doc += "  \"workloads\": [";
    for (size_t i = 0; i < grid.workloads.size(); ++i)
        doc += (i ? ", " : "") + jstr(grid.workloads[i]);
    doc += "],\n  \"selectors\": [";
    for (size_t i = 0; i < nSel; ++i)
        doc += (i ? ", " : "") + jstr(grid.selectors[i]);
    doc += "],\n  \"configs\": [\n";
    for (size_t c = 0; c < nCfg; ++c) {
        const mg::dse::ConfigTuple &t = grid.configs[c];
        doc += "    {\"name\": " + jstr(cfgs[c].name) +
               ", \"width\": " + jnum(t[0]) + ", \"iq\": " + jnum(t[1]) +
               ", \"regs\": " + jnum(t[2]) + ", \"mgt\": " + jnum(t[3]) +
               ", \"cost\": " + jnum(costs[c]) + "}";
        doc += c + 1 < nCfg ? ",\n" : "\n";
    }
    doc += "  ],\n  \"points\": [\n";
    std::vector<std::vector<double>> ipcs(nSel * nCfg);
    for (size_t i = 0; i < points.size(); ++i) {
        const mg::dse::SweepPoint &pt = points[i];
        const Record &rec = records[i];
        doc += "    {\"workload\": " + jstr(pt.workload) +
               ", \"selector\": " + jstr(pt.selector) +
               ", \"config\": " + jstr(pt.config.name) +
               ", \"cost\": " + jnum(pt.cost);
        switch (rec.status) {
          case Status::Ok: {
            const mg::trace::ParsedStats parsed = parseTraced(rec.line, log);
            doc += ", \"status\": \"ok\", \"key\": " + jstr(rec.keyHex) +
                   ", \"cycles\": " + jnum(parsed.sim.cycles) +
                   ", \"ipc\": " + jfix(parsed.sim.ipc()) +
                   ", \"coverage\": " + jfix(parsed.sim.coverage()) +
                   ", \"statsHash\": " +
                   jstr(mg::hex64(mg::fnv1a64(rec.line)));
            break;
          }
          case Status::Pruned:
            doc += ", \"status\": \"pruned\", \"predictedIpc\": " +
                   jfix(rec.prune->predicted) +
                   ", \"dominatedBy\": " + jstr(rec.prune->dominatedBy);
            break;
          case Status::Error:
            doc += ", \"status\": \"error\", \"class\": " +
                   jstr(rec.errorClass) + ", \"error\": " +
                   jstr(rec.errorMsg);
            break;
        }
        doc += "}";
        doc += i + 1 < points.size() ? ",\n" : "\n";
    }
    doc += "  ],\n";
    for (size_t i = 0; i < points.size(); ++i)
        if (records[i].status == Status::Ok)
            ipcs[((i / nCfg) % nSel) * nCfg + i % nCfg].push_back(
                parseTraced(records[i].line, log).sim.ipc());

    std::vector<mg::dse::ParetoPoint> aggs;
    for (size_t s = 0; s < nSel; ++s)
        for (size_t c = 0; c < nCfg; ++c) {
            const std::vector<double> &xs = ipcs[s * nCfg + c];
            if (xs.empty())
                continue;
            mg::dse::ParetoPoint p;
            p.config = cfgs[c].name;
            p.selector = grid.selectors[s];
            p.cost = costs[c];
            p.ipc = mg::geomean(xs);
            p.workloads = xs.size();
            aggs.push_back(std::move(p));
        }
    mg::dse::markFrontier(aggs);
    doc += "  \"aggregates\": [\n";
    for (size_t i = 0; i < aggs.size(); ++i) {
        const mg::dse::ParetoPoint &p = aggs[i];
        doc += "    {\"config\": " + jstr(p.config) +
               ", \"selector\": " + jstr(p.selector) +
               ", \"cost\": " + jnum(p.cost) +
               ", \"workloads\": " + jnum(p.workloads) +
               ", \"geomeanIpc\": " + jfix(p.ipc) + ", \"pareto\": " +
               (p.onFrontier ? "true" : "false") + "}";
        doc += i + 1 < aggs.size() ? ",\n" : "\n";
    }
    doc += "  ],\n  \"pareto\": [\n";
    const std::vector<mg::dse::ParetoPoint> frontier =
        mg::dse::frontierOf(std::move(aggs));
    for (size_t i = 0; i < frontier.size(); ++i) {
        const mg::dse::ParetoPoint &p = frontier[i];
        doc += "    {\"config\": " + jstr(p.config) +
               ", \"selector\": " + jstr(p.selector) +
               ", \"cost\": " + jnum(p.cost) + ", \"ipc\": " + jfix(p.ipc) +
               ", \"workloads\": " + jnum(p.workloads) + "}";
        doc += i + 1 < frontier.size() ? ",\n" : "\n";
    }
    doc += "  ]\n}\n";
    return doc;
}

// ---- Checks --------------------------------------------------------

/** What set-up derives once about a grid, for checking every round. */
struct GridPlan
{
    mg::dse::GridSpec grid;
    std::vector<mg::dse::SweepPoint> points;
    std::vector<mg::dse::StoreKey> keys; ///< store key per point

    std::string
    build(const mg::dse::GridSpec &g)
    {
        grid = g;
        points.clear();
        keys.clear();
        if (std::string err = mg::dse::expandGrid(grid, points); !err.empty())
            return err;
        std::map<std::string, mg::assembler::Program> programs;
        for (const std::string &w : grid.workloads)
            if (!programs.count(w))
                programs.emplace(w, mg::workloads::buildWorkload(
                                        *mg::workloads::findWorkload(w))
                                        .program);
        for (const mg::dse::SweepPoint &pt : points)
            keys.push_back(mg::dse::deriveKey(programs.at(pt.workload),
                                              pt.config, pt.selector,
                                              pt.templateBudget));
        return "";
    }

    std::string
    cellKey(size_t i) const
    {
        const mg::dse::SweepPoint &pt = points[i];
        return pt.workload + " " + pt.config.name + " " + pt.selector;
    }
};

/** Receives (cell key, stats line, parsed stats) of a checked point. */
using PointSink = std::function<void(const std::string &, const std::string &,
                                     const mg::trace::ParsedStats &)>;

/**
 * Check a sweep document against the store it was written into: every
 * measured point must be in the store, agree with the document, match
 * the reference (when one is given) and satisfy the loss-accounting
 * identity.
 *
 * @param on_point  called for every point that checks out
 */
void
checkSweep(const GridPlan &plan, const std::string &doc,
           const std::string &root, const Reference *ref, RoundResult &rr,
           const PointSink &on_point = {})
{
    const std::vector<DocPoint> pts = docPoints(doc);
    if (pts.size() != plan.points.size()) {
        ++rr.attempted;
        rr.fail("sweep document has " + std::to_string(pts.size()) +
                " points, the grid " + std::to_string(plan.points.size()));
        return;
    }
    mg::dse::ResultStore store;
    if (std::string err = store.open(root); !err.empty()) {
        ++rr.attempted;
        rr.fail(err);
        return;
    }
    for (size_t i = 0; i < pts.size(); ++i) {
        const DocPoint &dp = pts[i];
        const std::string key = plan.cellKey(i);
        if (dp.status == "pruned" && !(ref && ref->find(key)))
            continue;
        ++rr.attempted;
        if (dp.status != "ok") {
            rr.fail(key + ": point " + dp.status);
            continue;
        }
        std::optional<std::string> line =
            dp.key == plan.keys[i].hex() ? store.lookup(plan.keys[i])
                                         : std::nullopt;
        mg::trace::ParsedStats parsed;
        if (!line || !mg::trace::parseStatsJson(*line, parsed).empty()) {
            rr.fail(key + ": not in the result store under its key");
            continue;
        }
        const uint64_t hash = mg::fnv1a64(*line);
        rr.hashes.emplace_back(key, hash);
        if (dp.statsHash != mg::hex64(hash) ||
            dp.cycles != std::to_string(parsed.sim.cycles)) {
            rr.fail(key + ": document disagrees with the store");
            continue;
        }
        const std::string err =
            ref ? checkCell(*ref, key, parsed.sim, *line)
            : identityHolds(parsed.sim)
                ? ""
                : key + ": loss-accounting identity violated";
        if (!err.empty()) {
            rr.fail(err);
            continue;
        }
        rr.insts += parsed.sim.originalInsts;
        if (on_point)
            on_point(key, *line, parsed);
    }
}

// ---- The workloads -------------------------------------------------

class DseSweep : public Workload
{
  public:
    DseSweep(const Options &o, bool warm_) : Workload(o), warm(warm_) {}

    ~DseSweep() override
    {
        std::error_code ec;
        for (const std::string &r : roots)
            std::filesystem::remove_all(r, ec);
    }

    /**
     * Load the tables, then expand each round's grid, build its programs
     * and derive every store key (the checks need them).  dse-warm also
     * fills a store for one grid with a cold sweep, the next grid at
     * each repetition, so three repetitions fill all of them.
     */
    std::string
    setup() override
    {
        if (std::string err = loadTables(); !err.empty())
            return err;
        std::vector<mg::dse::GridSpec> grids = dseRounds(opts.seed, costs);
        plans.assign(grids.size(), GridPlan{});
        for (size_t r = 0; r < plans.size(); ++r)
            if (std::string err = plans[r].build(grids[r]); !err.empty())
                return err;
        if (!warm)
            return "";
        stores.resize(plans.size());
        const size_t g = fills++ % plans.size();
        WarmStore &ws = stores[g];
        const std::string root = freshRoot();
        if (std::string err = fillStore(plans[g].grid, root); !err.empty())
            return "filling the store: " + err;
        if (ws.root.empty()) {
            ws.root = root;
            std::ifstream in(root + "/sweep.json");
            ws.doc.assign(std::istreambuf_iterator<char>(in), {});
        }
        return "";
    }

    std::vector<std::string>
    cellKeys() const override
    {
        std::vector<std::string> keys;
        for (const GridPlan &plan : plans)
            for (size_t i = 0; i < plan.points.size(); ++i)
                if (ref.find(plan.cellKey(i)))
                    keys.push_back(plan.cellKey(i));
        return keys;
    }

    size_t roundsPerCycle() const override { return plans.size(); }

    RoundResult
    round(size_t index, std::vector<SpanLog> *trace) override
    {
        const GridPlan &plan = plans[index % plans.size()];
        RoundResult rr;
        WarmStore *ws = warm ? &stores.at(index % plans.size()) : nullptr;
        if (ws && ws->root.empty()) {
            ++rr.attempted;
            rr.fail("set-up filled no store for this round's grid");
            return rr;
        }
        // A store set-up filled is checked once, before the first warm
        // round on it, which is charged with its points.
        const bool firstWarm = ws && !ws->checked;
        if (firstWarm)
            checkWarmStore(plan, *ws, rr);
        const std::string root = ws ? ws->root : freshRoot();
        // A warm sweep is one thread's work (see nextCpu); a cold one
        // needs every CPU for its workers.
        if (ws)
            nextCpu();
        resetPeakRss();
        const double w0 = wallNow();
        const double c0 = cpuNow();
        std::string doc;
        if (trace) {
            trace->assign(opts.workers + 1, SpanLog{});
            ScopedSpan r((*trace)[0], "bench.round");
            doc = tracedSweep(plan.grid, root, opts.workers, *trace);
        } else {
            mg::dse::SweepOutcome out =
                sweepOnce(plan.grid, root, opts.workers);
            doc = out.error.empty() ? std::move(out.doc) : "";
        }
        rr.wall = wallNow() - w0;
        rr.cpu = cpuNow() - c0;
        anyCpu();
        rr.peakMb.push_back(peakRssMb());
        rr.doc = doc;

        if (ws) {
            // Every warm document must equal the cold one byte for
            // byte; the points it serves are the checked ones.
            if (!firstWarm) {
                rr.attempted = ws->points;
                rr.insts = ws->insts;
                rr.hashes = ws->hashes;
            }
            if (doc != ws->doc) {
                rr.failed = rr.attempted;
                rr.failures.push_back("warm document differs from the "
                                      "cold one");
            }
        } else {
            checkSweep(plan, doc, root, &ref, rr);
            std::error_code ec;
            std::filesystem::remove_all(root, ec);
        }
        rr.cellMs.push_back(rr.wall * 1e3 /
                            static_cast<double>(std::max<size_t>(
                                rr.attempted, 1)));
        return rr;
    }

  private:
    /**
     * A cold sweep into `root`, run in a child process, as an earlier
     * `mgsim sweep` would have filled the store: the warm rounds'
     * memory then excludes the fill's heap.  The child leaves the
     * document in root/sweep.json.
     */
    std::string
    fillStore(const mg::dse::GridSpec &grid, const std::string &root)
    {
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid < 0)
            return "fork failed";
        if (pid == 0) {
            // The sweep's workers run on every CPU, as in a fresh
            // process, not on the one set-up was moved to.
            anyCpu();
            int code = 1;
            try {
                mg::dse::SweepOutcome out =
                    sweepOnce(grid, root, opts.workers);
                std::ofstream doc(root + "/sweep.json");
                doc << out.doc;
                doc.close();
                code = out.ok() && doc ? 0 : 1;
            } catch (...) {
            }
            _exit(code);
        }
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        return WIFEXITED(status) && WEXITSTATUS(status) == 0
                   ? ""
                   : "the sweep failed";
    }

    std::string
    freshRoot()
    {
        roots.push_back(opts.scratch + "/store-" +
                        std::to_string(roots.size()));
        return roots.back();
    }

    /** A store set-up filled, with what its first check found. */
    struct WarmStore
    {
        std::string root;
        std::string doc; ///< the cold sweep's document
        bool checked = false;
        size_t points = 0;
        uint64_t insts = 0;
        std::vector<std::pair<std::string, uint64_t>> hashes;
    };

    void
    checkWarmStore(const GridPlan &plan, WarmStore &ws, RoundResult &rr)
    {
        ws.checked = true;
        checkSweep(plan, ws.doc, ws.root, &ref, rr);
        ws.points = std::max<size_t>(rr.attempted, 1);
        ws.insts = rr.insts;
        ws.hashes = rr.hashes;
    }

    const bool warm;
    std::vector<GridPlan> plans; ///< one per round, in run order
    std::vector<std::string> roots;
    std::vector<WarmStore> stores; ///< dse-warm: one per plan
    size_t fills = 0;
};

} // namespace

std::unique_ptr<Workload>
makeDseCold(const Options &opts)
{
    return std::make_unique<DseSweep>(opts, false);
}

std::unique_ptr<Workload>
makeDseWarm(const Options &opts)
{
    return std::make_unique<DseSweep>(opts, true);
}

std::string
referenceSweep(const mg::dse::GridSpec &grid, const std::string &root,
               unsigned workers, std::string &lines)
{
    GridPlan plan;
    if (std::string err = plan.build(grid); !err.empty())
        return err;
    mg::dse::SweepOutcome out = sweepOnce(grid, root, workers);
    if (!out.ok())
        return out.error.empty() ? "a sweep point failed" : out.error;
    RoundResult rr;
    checkSweep(plan, out.doc, root, nullptr, rr,
               [&](const std::string &key, const std::string &line,
                   const mg::trace::ParsedStats &parsed) {
                   std::string tsv = key;
                   std::replace(tsv.begin(), tsv.end(), ' ', '\t');
                   lines += tsv + "\t" + std::to_string(parsed.sim.cycles) +
                            "\t" + mg::hex64(mg::fnv1a64(line)) + "\n";
               });
    if (rr.failed)
        return rr.failures.front();
    return "";
}

} // namespace hb
