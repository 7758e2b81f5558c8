/**
 * @file
 * Shared pieces of the host-time benchmark (README.md): clocks, the
 * seed-to-input mapping, the reference table, the in-memory span
 * recorder, and the workload interface main.cc drives.
 *
 * Everything here calls the simulator through its public headers only;
 * no span is recorded inside the simulator itself.
 */

#ifndef HOSTBENCH_BENCH_H
#define HOSTBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dse/grid.h"
#include "sim/experiment.h"
#include "uarch/sim_stats.h"
#include "workloads/workload.h"

namespace hb
{

/** Steady-clock wall time, seconds. */
double wallNow();

/** CPU time of the whole process (user + sys, all threads), seconds. */
double cpuNow();

/** CPU time of the calling thread, seconds. */
double threadCpuNow();

/**
 * Start a memory measurement: hand freed heap back to the system, as a
 * fresh process would start without it, and restart the peak-RSS
 * high-water mark from the current resident set.
 */
void resetPeakRss();

/** Peak resident set since the last resetPeakRss(), MB. */
double peakRssMb();

/**
 * Move the calling thread to the next CPU the process may use, in turn.
 * On a shared host the CPUs of one machine can run at very different
 * speeds (another guest loading some cores), and one-thread work the
 * scheduler leaves on one CPU measures that CPU only; moved over all of
 * them in turn, it measures their average, run after run.
 */
void nextCpu();

/** Let the calling thread run on any CPU the process may use again. */
void anyCpu();

// ---- Reference -----------------------------------------------------

/** Recorded simulated outcome of one cell. */
struct RefValue
{
    uint64_t cycles = 0;
    uint64_t hash = 0; ///< FNV-1a 64 of the cell's stats-JSON line
};

/** The (simCycles, statsHash) table in reference.tsv. */
class Reference
{
  public:
    /** @return "" on success, else the problem */
    std::string load(const std::string &path);

    const RefValue *find(const std::string &key) const;

    /** Corrupt one entry's hash (the planted-drift self-test). */
    void plantDrift(const std::string &key);

    std::map<std::string, RefValue> entries;
};

/**
 * The loss-accounting identity
 * sum(buckets) == commitWidth * cycles - committedUnits
 * (false when the run kept no loss accounting).
 */
bool identityHolds(const mg::uarch::SimResult &sim);

/**
 * Check one successful cell: its (cycles, stats hash) against the
 * reference, and identityHolds.
 * @return "" if correct, else why not
 */
std::string checkCell(const Reference &ref, const std::string &key,
                      const mg::uarch::SimResult &sim,
                      const std::string &stats_line);

/**
 * Host cost of each program (costs.tsv): seconds its five matrix cells
 * took, one job, fresh context.  Used only to pick inputs of equal
 * cost and deal them into rounds of equal work.
 */
using Costs = std::map<std::string, double>;

/** @return "" on success, else the problem */
std::string loadCosts(const std::string &path, Costs &costs);

// ---- Inputs from the seed ------------------------------------------

/** The seed whose matrix is today's `.0` pinned set. */
constexpr uint64_t kDefaultSeed = 0;

/** The five paper policies, in the pinned order. */
const std::vector<std::string> &policies();

/** One matrix cell: a program, a machine and a policy. */
struct Cell
{
    std::string workload; ///< e.g. "crc32.1"
    std::string config;   ///< configuration name the reference uses
    std::string selector; ///< registry name; "none" = baseline
    const char *policy = nullptr; ///< stable copy of `selector`
    mg::sim::RunRequest req;

    /** Reference-table key: "<workload> <config> <selector>". */
    std::string key() const;
};

/**
 * A workload's inputs are dealt by host cost into rounds of about equal
 * work, and a run cycles through the rounds.  So that a run's cost does
 * not depend on the seed, the seed picks inputs only among sets of equal
 * cost (costs.tsv).
 */
constexpr size_t kProgramsPerRound = 12;

/**
 * The paper matrix on `reduced`: the first `kernels` kernels (pinned
 * order, all 36 when 0) x the five policies, each kernel at the
 * variant the seed picks, dealt into rounds of at most
 * kProgramsPerRound programs.  The default seed picks `.0` for every
 * kernel; any other seed draws variants whose summed cost is within 1%
 * of the mean over all variants.
 */
std::vector<std::vector<Cell>> matrixRounds(uint64_t seed, size_t kernels,
                                            const Costs &costs);

/**
 * The pinned DSE grid once per variant pairing, in the seed's order:
 * round r sweeps its first kernel at the r-th costliest variant and its
 * second at the r-th cheapest, so every round's grid is as big as the
 * pinned one and costs about the same.
 */
std::vector<mg::dse::GridSpec> dseRounds(uint64_t seed, const Costs &costs);

// ---- Tracing -------------------------------------------------------

/**
 * One thread's spans and counters, kept in memory and summarised when
 * the run ends.  A span's name is "<layer>.<what>"; its layer is the
 * part before the first dot.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name = nullptr;
        const char *tag = nullptr; ///< e.g. the policy of a core run
        int parent = -1;           ///< index in `spans`; -1 = root
        double start = 0.0;
        double end = 0.0;
    };

    int open(const char *name, const char *tag);
    void close(int index);

    /** Add a finished span under the innermost open one. */
    void record(const char *name, const char *tag, double start,
                double end);

    void count(const std::string &counter, double v = 1.0)
    {
        counters[counter] += v;
    }

    std::vector<Span> spans;
    std::vector<int> stack;
    std::map<std::string, double> counters;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, const char *tag = nullptr);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Seconds since the span opened. */
    double elapsed() const;

  private:
    SpanLog &log;
    const int index;
    const double start;
};

/** Spans of one traced round, summarised. */
struct TraceSummary
{
    double wall = 0.0; ///< duration of the root spans of thread 0

    /** Thread-0 self time not charged to the benchmark's own spans. */
    double attributed = 0.0;

    /** Summed duration, count and self time by span name; duration
     *  and count also by "<name>#<tag>". */
    std::map<std::string, double> total;
    std::map<std::string, double> calls;
    std::map<std::string, double> self;
    std::map<std::string, double> counters;
};

/** Summarise one round's logs (index 0 = the driving thread). */
TraceSummary summarize(const std::vector<SpanLog> &logs);

// ---- Workloads -----------------------------------------------------

/** What one timed round did and how it checked out. */
struct RoundResult
{
    double wall = 0.0; ///< timed phase only
    double cpu = 0.0;
    std::vector<double> cellMs;
    std::vector<double> peakMb; ///< per program (matrix) or per sweep
    size_t attempted = 0;
    size_t failed = 0;
    uint64_t insts = 0; ///< committed original instructions delivered
    std::vector<std::string> failures;

    /** Per-cell stats hashes, in cell order (traced/untraced diff). */
    std::vector<std::pair<std::string, uint64_t>> hashes;

    /** The sweep document (DSE workloads; traced/untraced diff). */
    std::string doc;

    /** Per-cell timing-core cost (traced paper-matrix rounds). */
    struct CoreCost
    {
        std::string cell;
        double seconds = 0.0;
        uint64_t cycles = 0;
    };
    std::vector<CoreCost> coreCosts;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Settings every workload reads. */
struct Options
{
    uint64_t seed = kDefaultSeed;
    size_t kernels = 0;   ///< matrix kernels (0 = all 36)
    unsigned workers = 1; ///< Runner workers of the DSE workloads
    std::string scratch;  ///< private directory for result stores
    std::string referencePath;
    std::string costsPath;
};

class Workload
{
  public:
    explicit Workload(const Options &o) : opts(o) {}
    virtual ~Workload() = default;

    /**
     * One set-up repetition: load the reference and cost tables, then
     * plan the rounds.  @return "" on success, else the error.
     */
    virtual std::string setup() = 0;

    /** Reference keys of the cells of every round, in run order. */
    virtual std::vector<std::string> cellKeys() const = 0;

    /** How many rounds make up the workload's whole input set. */
    virtual size_t roundsPerCycle() const = 0;

    /**
     * Timed round `index` (rounds repeat cyclically), then its
     * (untimed) checks.  `trace` null runs the program's own entry
     * point; otherwise the round replays the public calls that entry
     * point makes, recording spans into (*trace)[thread].
     */
    virtual RoundResult round(size_t index, std::vector<SpanLog> *trace) = 0;

    /** Loaded by setup(); the drift self-test corrupts an entry. */
    Reference ref;

  protected:
    /** Load `ref` and `costs`; @return "" on success, else the error. */
    std::string loadTables();

    const Options opts;
    Costs costs;
};

std::unique_ptr<Workload> makePaperMatrix(const Options &opts);
std::unique_ptr<Workload> makeDseCold(const Options &opts);
std::unique_ptr<Workload> makeDseWarm(const Options &opts);

/**
 * Sweep `grid` cold into the empty store `root` and append one
 * reference line per measured point to `lines`.
 * @return "" on success, else the problem
 */
std::string referenceSweep(const mg::dse::GridSpec &grid,
                           const std::string &root, unsigned workers,
                           std::string &lines);

/**
 * Which artefacts of one ProgramContext some job has already asked
 * for.  The first request of an artefact is the one that computes it;
 * every later request returns another job's cached artefact and counts
 * as a wait.
 */
class ContextClaims
{
  public:
    /** True the first time `artefact` is claimed.  Thread-safe. */
    bool claim(const std::string &artefact);

  private:
    std::mutex mu;
    std::set<std::string> seen;
};

/**
 * Replay ProgramContext::run(req) through the public calls it makes —
 * the context accessors, filterPool, selectGreedy, rewrite and
 * uarch::Core::run — recording one span around each.  The result
 * equals ctx.run(req) field for field.
 */
struct Replayed
{
    mg::sim::RunResult result;
    double coreSec = 0.0; ///< timing-core time this call spent
};
Replayed replayRun(mg::sim::ProgramContext &ctx, ContextClaims &claims,
                   const mg::sim::RunRequest &req, const char *policy,
                   SpanLog &log);

/** Percentile (0..100) by linear interpolation; 0 for no samples. */
double percentile(std::vector<double> xs, double p);

} // namespace hb

#endif // HOSTBENCH_BENCH_H
