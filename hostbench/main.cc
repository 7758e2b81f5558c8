/**
 * @file
 * hostbench: the host-time benchmark of the simulator (README.md).
 *
 *   hostbench --workload paper-matrix|dse-cold|dse-warm --seed N
 *             --seconds S --trace 0|1 --reference FILE --costs FILE
 *             --scratch DIR [--kernels N] [--max-rounds N]
 *             [--plant-drift I]
 *   hostbench --write-reference FILE --scratch DIR
 *   hostbench --write-costs FILE
 *
 * A run sets its workload up several times (setup_s is the median),
 * then runs timed rounds until --seconds have passed, checking every
 * round's outputs.  With --trace 1 it runs each round twice, traced
 * then untraced, and reports per-layer metrics instead.  The last line
 * of standard output is one JSON object: correct, attempted, failed
 * and metrics.
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/string_util.h"
#include "minigraph/selectors.h"
#include "sim/runner.h"
#include "trace/stats_json.h"
#include "uarch/config.h"

namespace hb
{
namespace
{

/**
 * Set-up repeats at least kSetupMinReps times, and more (up to
 * kSetupMaxReps) until kSetupBudgetSec have been spent, so a cheap
 * set-up still gives a steady median.  A set-up cheaper than
 * kSetupShareOfRound of a round is also repeated after every untraced
 * round, for up to that share of the round's wall, so its samples span
 * the run as the rounds' do.
 */
constexpr size_t kSetupMinReps = 3;
constexpr size_t kSetupMaxReps = 200;
constexpr double kSetupBudgetSec = 0.5;
constexpr double kSetupShareOfRound = 0.02;

/** Timings per program that the cost table takes the median of. */
constexpr int kCostReps = 3;

struct Metric
{
    const char *name;
    const char *unit;
};

const Metric kEndToEnd[] = {
    {"wall_s", "s"},          {"cpu_s", "s"},
    {"minst_per_cpu_s", "Minst/s"},
    {"cell_ms_p50", "ms"},    {"cell_ms_p90", "ms"},
    {"sweep_ms_p50", "ms"},   {"sweep_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},    {"setup_s", "s"},
};

const Metric kPerLayer[] = {
    {"workloads.build_s", "s"},
    {"workloads.build_s.cbench", "s"},
    {"workloads.programs", "count"},
    {"profile.counts_s", "s"},
    {"profile.slack_s", "s"},
    {"profile.slack_runs", "count"},
    {"minigraph.enumerate_s", "s"},
    {"minigraph.candidates", "count"},
    {"minigraph.select_s", "s"},
    {"minigraph.chosen", "count"},
    {"minigraph.keep_ratio", "ratio"},
    {"minigraph.rewrite_s", "s"},
    {"minigraph.instances", "count"},
    {"uarch.core_s", "s"},
    {"uarch.core_s.none", "s"},
    {"uarch.core_s.struct-all", "s"},
    {"uarch.core_s.struct-bounded", "s"},
    {"uarch.core_s.slack-profile", "s"},
    {"uarch.core_s.slack-dynamic", "s"},
    {"uarch.core_runs", "count"},
    {"uarch.sim_cycles", "cycles"},
    {"uarch.committed_insts", "insts"},
    {"uarch.ns_per_cycle", "ns"},
    {"uarch.ns_per_inst", "ns"},
    {"sim.context_s", "s"},
    {"sim.context_wait_s", "s"},
    {"sim.context_hits", "count"},
    {"sim.context_misses", "count"},
    {"sim.timing_sims", "count"},
    {"sim.run_self_s", "s"},
    {"sim.worker_busy_frac", "ratio"},
    {"trace.stats_json_s", "s"},
    {"trace.stats_parse_s", "s"},
    {"trace.stats_bytes", "bytes"},
    {"dse.derive_key_s", "s"},
    {"dse.lookup_s", "s"},
    {"dse.lookups", "count"},
    {"dse.hit_ratio", "ratio"},
    {"dse.insert_s", "s"},
    {"dse.inserts", "count"},
    {"dse.prefilter_s", "s"},
    {"dse.pruned", "count"},
    {"dse.sweep_self_s", "s"},
    {"bench.trace_overhead", "ratio"},
    {"bench.unattributed_frac", "ratio"},
};

double
get(const std::map<std::string, double> &m, const std::string &k)
{
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer metrics of one traced round. */
std::map<std::string, double>
layerMetrics(const TraceSummary &s)
{
    auto total = [&](const std::string &n) { return get(s.total, n); };
    auto calls = [&](const std::string &n) { return get(s.calls, n); };
    auto counter = [&](const std::string &n) { return get(s.counters, n); };
    std::map<std::string, double> m;
    m["workloads.build_s"] = total("workloads.build");
    m["workloads.build_s.cbench"] = total("workloads.build#cbench");
    m["workloads.programs"] = calls("workloads.build");
    m["profile.counts_s"] = total("profile.counts");
    m["profile.slack_s"] = total("profile.slack");
    m["profile.slack_runs"] = counter("profile.slack_runs");
    m["minigraph.enumerate_s"] = total("minigraph.enumerate");
    m["minigraph.candidates"] = counter("minigraph.candidates");
    m["minigraph.select_s"] = total("minigraph.select");
    m["minigraph.chosen"] = counter("minigraph.chosen");
    m["minigraph.keep_ratio"] =
        ratio(m["minigraph.chosen"], m["minigraph.candidates"]);
    m["minigraph.rewrite_s"] = total("minigraph.rewrite");
    m["minigraph.instances"] = counter("minigraph.instances");
    m["uarch.core_s"] = total("uarch.core");
    for (const std::string &p : policies())
        m["uarch.core_s." + p] = total("uarch.core#" + p);
    m["uarch.core_runs"] = calls("uarch.core");
    m["uarch.sim_cycles"] = counter("uarch.sim_cycles");
    m["uarch.committed_insts"] = counter("uarch.committed_insts");
    m["uarch.ns_per_cycle"] =
        ratio(m["uarch.core_s"] * 1e9, m["uarch.sim_cycles"]);
    m["uarch.ns_per_inst"] =
        ratio(m["uarch.core_s"] * 1e9, m["uarch.committed_insts"]);
    m["sim.context_s"] = total("sim.context");
    m["sim.context_wait_s"] = total("sim.wait");
    m["sim.context_hits"] = counter("sim.context_hits");
    m["sim.context_misses"] = counter("sim.context_misses");
    m["sim.timing_sims"] = calls("uarch.core") + counter("profile.slack_runs");
    m["sim.run_self_s"] = get(s.self, "sim.run");
    m["sim.worker_busy_frac"] =
        ratio(counter("sim.busy_s"), counter("sim.capacity_s"));
    m["trace.stats_json_s"] = total("trace.stats_json");
    m["trace.stats_parse_s"] = total("trace.stats_parse");
    m["trace.stats_bytes"] = counter("trace.stats_bytes");
    m["dse.derive_key_s"] = total("dse.derive_key");
    m["dse.lookup_s"] = total("dse.lookup");
    m["dse.lookups"] = calls("dse.lookup");
    m["dse.hit_ratio"] = ratio(counter("dse.hits"), m["dse.lookups"]);
    m["dse.insert_s"] = total("dse.insert");
    m["dse.inserts"] = calls("dse.insert");
    m["dse.prefilter_s"] = total("dse.prefilter");
    m["dse.pruned"] = counter("dse.pruned");
    m["dse.sweep_self_s"] = get(s.self, "dse.sweep");
    m["bench.unattributed_frac"] = ratio(s.wall - s.attributed, s.wall);
    return m;
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50);
}

std::string
number(double v)
{
    return mg::strprintf("%.17g", v);
}

/** Removes the run's scratch directory on every exit path. */
class ScratchDir
{
  public:
    explicit ScratchDir(std::string p) : path(std::move(p))
    {
        std::filesystem::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string path;
};

unsigned
defaultWorkers()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload paper-matrix|dse-cold|dse-warm"
                 " --seed N --seconds S --trace 0|1 --reference FILE"
                 " --costs FILE --scratch DIR [--kernels N] [--max-rounds N]"
                 " [--plant-drift I]\n"
                 "       hostbench --write-reference FILE --scratch DIR\n"
                 "       hostbench --write-costs FILE\n",
                 why);
    return 2;
}

/** Record the 108 x 5 reduced matrix and the DSE grid at all variants. */
int
writeReference(const std::string &path, const std::string &scratch)
{
    const unsigned workers = defaultWorkers();
    const mg::uarch::CoreConfig reduced = *mg::uarch::configFromName("reduced");
    std::vector<mg::sim::RunRequest> reqs;
    std::vector<std::string> keys;
    for (const mg::workloads::WorkloadSpec &w : mg::workloads::workloadList())
        for (const std::string &p : policies()) {
            mg::sim::RunRequest req;
            req.workload = w;
            req.config = reduced;
            if (p != "none")
                req.selector = *mg::minigraph::selectorFromName(p);
            reqs.push_back(req);
            keys.push_back(w.name() + "\treduced\t" + p);
        }
    mg::sim::RunnerOptions ro;
    ro.jobs = workers;
    mg::sim::Runner runner(ro);
    const std::vector<mg::sim::RunResult> results = runner.run(reqs);

    std::string out =
        "# hostbench reference: <workload> <config> <selector> <simCycles>"
        " <statsHash>\n"
        "# statsHash = FNV-1a 64 of the cell's stats-JSON line.  Written by"
        " `hostbench --write-reference`.\n";
    for (size_t i = 0; i < reqs.size(); ++i) {
        const mg::sim::RunResult &r = results[i];
        if (!r.ok) {
            std::fprintf(stderr, "hostbench: %s: %s\n", keys[i].c_str(),
                         r.error.c_str());
            return 1;
        }
        if (!identityHolds(r.sim)) {
            std::fprintf(stderr, "hostbench: %s: identity violated\n",
                         keys[i].c_str());
            return 1;
        }
        const std::string line =
            mg::trace::statsJson(mg::sim::metaForRun(reqs[i], r), r.sim);
        out += keys[i] + "\t" + std::to_string(r.sim.cycles) + "\t" +
               mg::hex64(mg::fnv1a64(line)) + "\n";
    }
    for (int v = 0; v < 3; ++v) {
        mg::dse::GridSpec grid = mg::dse::pinnedDseGrid();
        for (std::string &w : grid.workloads)
            w = mg::workloads::findWorkload(w)->kernel + "." +
                std::to_string(v);
        const std::string root = scratch + "/ref-" + std::to_string(v);
        if (std::string err = referenceSweep(grid, root, workers, out);
            !err.empty()) {
            std::fprintf(stderr, "hostbench: dse variant %d: %s\n", v,
                         err.c_str());
            return 1;
        }
    }
    std::ofstream f(path);
    f << out;
    f.close();
    if (!f) {
        std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr, "hostbench: wrote %s\n", path.c_str());
    return 0;
}

/**
 * Write the host cost of every program: its five matrix cells, one job,
 * fresh context; the median of kCostReps timings, taken in kCostReps
 * passes over all programs so a slow spell of the host does not land on
 * one program's timings only.
 */
int
writeCosts(const std::string &path)
{
    const mg::uarch::CoreConfig reduced = *mg::uarch::configFromName("reduced");
    const std::vector<mg::workloads::WorkloadSpec> &all =
        mg::workloads::workloadList();
    std::vector<std::vector<double>> times(all.size());
    for (int rep = 0; rep < kCostReps; ++rep)
        for (size_t k = 0; k < all.size(); ++k) {
            const mg::workloads::WorkloadSpec &w = all[k];
            mg::sim::RunnerOptions ro;
            ro.jobs = 1;
            const double t0 = wallNow();
            {
                mg::sim::Runner runner(ro);
                for (const std::string &p : policies()) {
                    mg::sim::RunRequest req;
                    req.workload = w;
                    req.config = reduced;
                    if (p != "none")
                        req.selector = *mg::minigraph::selectorFromName(p);
                    if (!runner.run({req})[0].ok) {
                        std::fprintf(stderr, "hostbench: %s %s failed\n",
                                     w.name().c_str(), p.c_str());
                        return 1;
                    }
                }
            }
            times[k].push_back(wallNow() - t0);
        }
    std::string out = "# hostbench program costs: <workload> <seconds>, the"
                      " median host time of its five\n"
                      "# reduced-matrix cells (one job, fresh context)."
                      "  Written by `hostbench --write-costs`.\n";
    for (size_t k = 0; k < all.size(); ++k)
        out += all[k].name() + "\t" + mg::strprintf("%.4f", median(times[k])) +
               "\n";
    std::ofstream f(path);
    f << out;
    f.close();
    if (!f) {
        std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr, "hostbench: wrote %s\n", path.c_str());
    return 0;
}

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 0.0;
    int trace = -1;
    std::string reference;
    std::string costs;
    std::string scratch;
    size_t kernels = 0;
    size_t maxRounds = 0;
    long plantDrift = -1;
    std::string writeRef;
    std::string writeCosts;
};

bool
parseArgs(int argc, char **argv, Args &a, std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            err = "missing value for " + flag;
            return false;
        }
        const std::string v = argv[++i];
        char *end = nullptr;
        errno = 0;
        const unsigned long long n =
            v.empty() || v[0] == '-' ? 0 : std::strtoull(v.c_str(), &end, 10);
        const bool isInt = end && *end == '\0' && errno == 0;
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--reference")
            a.reference = v;
        else if (flag == "--scratch")
            a.scratch = v;
        else if (flag == "--costs")
            a.costs = v;
        else if (flag == "--write-reference")
            a.writeRef = v;
        else if (flag == "--write-costs")
            a.writeCosts = v;
        else if (!isInt) {
            err = "bad value '" + v + "' for " + flag;
            return false;
        } else if (flag == "--seed")
            a.seed = static_cast<uint64_t>(n);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(n);
        else if (flag == "--trace" && n <= 1)
            a.trace = static_cast<int>(n);
        else if (flag == "--kernels")
            a.kernels = static_cast<size_t>(n);
        else if (flag == "--max-rounds")
            a.maxRounds = static_cast<size_t>(n);
        else if (flag == "--plant-drift")
            a.plantDrift = static_cast<long>(n);
        else {
            err = "unknown flag " + flag + " " + v;
            return false;
        }
    }
    return true;
}

int
run(const Args &a)
{
    ScratchDir scratch(a.scratch + "/run-" + std::to_string(getpid()));

    Options opts;
    opts.seed = a.seed;
    opts.kernels = a.kernels;
    opts.workers = defaultWorkers();
    opts.scratch = scratch.path;
    opts.referencePath = a.reference;
    opts.costsPath = a.costs;

    std::unique_ptr<Workload> wl;
    if (a.workload == "paper-matrix")
        wl = makePaperMatrix(opts);
    else if (a.workload == "dse-cold")
        wl = makeDseCold(opts);
    else if (a.workload == "dse-warm")
        wl = makeDseWarm(opts);
    else
        return usage(("unknown workload '" + a.workload + "'").c_str());

    // Set-up, repeated, each time on the next CPU; setup_s is the
    // median.  Set-up reloads the reference, so a planted drift is
    // planted again after each.
    std::vector<double> setupSec;
    std::string planted;
    auto setupOnce = [&] {
        nextCpu();
        const double t0 = wallNow();
        std::string err = wl->setup();
        setupSec.push_back(wallNow() - t0);
        anyCpu();
        if (!err.empty())
            throw std::runtime_error("set-up failed: " + err);
        if (!planted.empty())
            wl->ref.plantDrift(planted);
    };
    for (double total = 0.0;
         setupSec.size() < kSetupMinReps ||
         (total < kSetupBudgetSec && setupSec.size() < kSetupMaxReps);)
        setupOnce(), total += setupSec.back();
    if (a.plantDrift >= 0) {
        const std::vector<std::string> keys = wl->cellKeys();
        if (static_cast<size_t>(a.plantDrift) >= keys.size())
            return usage("--plant-drift index out of range");
        planted = keys[a.plantDrift];
        wl->ref.plantDrift(planted);
        std::printf("planted a drift into the reference of %s\n",
                    planted.c_str());
    }

    // Timed rounds, in whole cycles through the workload's rounds while
    // another cycle fits in --seconds, so every seed measures the same
    // inputs.  A round that would overrun --seconds is not started.
    // With tracing, round i runs traced, then untraced.
    std::vector<RoundResult> plain, traced;
    std::vector<std::map<std::string, double>> layers;
    const size_t cycle = wl->roundsPerCycle();
    const double start = wallNow();
    double roundStart = start, cycleStart = start;
    for (size_t n = 0;; ++n) {
        if (a.trace == 1 && n % 2 == 0) {
            std::vector<SpanLog> logs;
            traced.push_back(wl->round(n / 2, &logs));
            layers.push_back(layerMetrics(summarize(logs)));
            continue;
        }
        plain.push_back(wl->round(a.trace == 1 ? n / 2 : n, nullptr));
        if (a.trace == 0) {
            // Only a traced run compares outputs across rounds; a
            // thousand kept documents would show in peak_rss_mb.
            std::string().swap(plain.back().doc);
            decltype(RoundResult::hashes)().swap(plain.back().hashes);
        }
        for (double spent = 0.0;
             a.trace == 0 && spent + setupSec.back() <=
                                 kSetupShareOfRound * plain.back().wall;)
            setupOnce(), spent += setupSec.back();
        const double now = wallNow();
        double next = now - roundStart;
        roundStart = now;
        if (plain.size() % cycle == 0) {
            next = now - cycleStart;
            cycleStart = now;
        }
        if (a.maxRounds && n + 1 >= a.maxRounds)
            break;
        if (now - start + next > a.seconds)
            break;
    }

    // Correctness over every round.
    size_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    for (const auto *rounds : {&plain, &traced})
        for (const RoundResult &r : *rounds) {
            attempted += r.attempted;
            failed += r.failed;
            for (const std::string &f : r.failures)
                if (failures.size() < 8)
                    failures.push_back(f);
        }
    for (size_t r = 0; r < traced.size(); ++r) {
        // A traced round must reproduce its untraced twin's hashes and
        // sweep document.
        const RoundResult &t = traced[r];
        const RoundResult &want = plain[r];
        for (size_t i = 0;
             i < std::max(want.hashes.size(), t.hashes.size()); ++i)
            if (i >= want.hashes.size() || i >= t.hashes.size() ||
                want.hashes[i] != t.hashes[i]) {
                ++failed;
                if (failures.size() < 8)
                    failures.push_back("traced round " + std::to_string(r) +
                                       " differs from the untraced one at"
                                       " cell " + std::to_string(i));
            }
        if (t.doc != want.doc) {
            ++failed;
            if (failures.size() < 8)
                failures.push_back("traced round " + std::to_string(r) +
                                   " wrote another sweep document than the"
                                   " untraced one");
        }
    }
    if (attempted == 0)
        attempted = 1, ++failed;
    failed = std::min(failed, attempted);

    // Metrics.
    std::vector<std::pair<const Metric *, double>> metrics;
    if (a.trace == 0) {
        std::vector<double> walls, cpus, rates, cells, sweeps, peakMb;
        for (const RoundResult &r : plain) {
            walls.push_back(r.wall);
            cpus.push_back(r.cpu);
            rates.push_back(ratio(static_cast<double>(r.insts) / 1e6, r.cpu));
            sweeps.push_back(r.wall * 1e3);
            cells.insert(cells.end(), r.cellMs.begin(), r.cellMs.end());
            peakMb.insert(peakMb.end(), r.peakMb.begin(), r.peakMb.end());
        }
        const double values[] = {
            median(walls),          median(cpus),
            median(rates),          percentile(cells, 50),
            percentile(cells, 90),  percentile(sweeps, 50),
            percentile(sweeps, 90), median(peakMb),
            median(setupSec),
        };
        for (size_t i = 0; i < std::size(kEndToEnd); ++i)
            metrics.emplace_back(&kEndToEnd[i], values[i]);
    } else {
        std::map<std::string, double> mean;
        for (const auto &m : layers)
            for (const auto &[k, v] : m)
                mean[k] += v;
        for (auto &[k, v] : mean)
            v /= static_cast<double>(layers.size());
        std::vector<double> overheads;
        for (size_t r = 0; r < traced.size(); ++r)
            overheads.push_back(ratio(traced[r].wall, plain[r].wall) - 1.0);
        mean["bench.trace_overhead"] = median(overheads);
        for (const Metric &m : kPerLayer)
            metrics.emplace_back(&m, get(mean, m.name));
    }

    // Human-readable report, then the result line.
    std::printf("workload %s  seed %llu  workers %u  rounds %zu untraced"
                " + %zu traced  set-up %s s (median of %zu)\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                opts.workers, plain.size(), traced.size(),
                number(median(setupSec)).c_str(), setupSec.size());
    std::vector<std::string> inputs;
    for (const std::string &key : wl->cellKeys()) {
        const std::string w = key.substr(0, key.find(' '));
        if (std::find(inputs.begin(), inputs.end(), w) == inputs.end())
            inputs.push_back(w);
    }
    std::printf("inputs:");
    for (const std::string &w : inputs)
        std::printf(" %s", w.c_str());
    std::printf("\nuntraced rounds (wall s/peak MB):");
    for (size_t r = 0; r < plain.size() && r < 12; ++r)
        std::printf(" %.3f/%.1f", plain[r].wall, median(plain[r].peakMb));
    std::printf(plain.size() > 12 ? " ...\n" : "\n");
    for (const auto &[m, v] : metrics)
        std::printf("  %-30s %14.6g %s\n", m->name, v, m->unit);
    if (!traced.empty()) {
        std::vector<RoundResult::CoreCost> costs;
        for (const RoundResult &t : traced)
            for (const RoundResult::CoreCost &c : t.coreCosts)
                if (std::none_of(costs.begin(), costs.end(),
                                 [&](const auto &o) { return o.cell == c.cell; }))
                    costs.push_back(c);
        std::sort(costs.begin(), costs.end(), [](const auto &x, const auto &y) {
            return ratio(x.seconds, x.cycles) > ratio(y.seconds, y.cycles);
        });
        if (!costs.empty())
            std::printf("top cells by timing-core ns/cycle "
                        "(traced rounds):\n");
        for (size_t i = 0; i < std::min<size_t>(10, costs.size()); ++i)
            std::printf("  %-36s %8.1f ns/cycle %10llu cycles %8.2f ms\n",
                        costs[i].cell.c_str(),
                        ratio(costs[i].seconds * 1e9, costs[i].cycles),
                        static_cast<unsigned long long>(costs[i].cycles),
                        costs[i].seconds * 1e3);
    }
    std::printf("cells: %zu attempted, %zu failed (fail_frac %s)\n", attempted,
                failed, number(ratio(failed, attempted)).c_str());
    for (const std::string &f : failures)
        std::printf("  FAIL %s\n", f.c_str());

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + std::string(metrics[i].first->name) +
                "\": {\"value\": " + number(metrics[i].second) +
                ", \"unit\": \"" + metrics[i].first->unit + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace
} // namespace hb

int
main(int argc, char **argv)
{
    hb::Args args;
    std::string err;
    if (!hb::parseArgs(argc, argv, args, err))
        return hb::usage(err.c_str());
    try {
        if (!args.writeCosts.empty())
            return hb::writeCosts(args.writeCosts);
        if (args.scratch.empty())
            return hb::usage("--scratch is required");
        if (!args.writeRef.empty()) {
            hb::ScratchDir scratch(args.scratch + "/ref-" +
                                   std::to_string(getpid()));
            return hb::writeReference(args.writeRef, scratch.path);
        }
        if (args.workload.empty() || args.reference.empty() ||
            args.costs.empty() || args.trace < 0 || args.seconds <= 0)
            return hb::usage("--workload, --reference, --costs, --seconds"
                             " and --trace are required");
        return hb::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
}
