/**
 * @file
 * Clocks, the seed-to-input mapping, the reference table and small
 * statistics shared by every workload.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "common/string_util.h"
#include "minigraph/selectors.h"
#include "uarch/config.h"

namespace hb
{

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

void
resetPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace
{

/** The CPUs the process may use, and whose turn is next. */
struct CpuTurns
{
    cpu_set_t all;
    std::vector<int> cpus;
    size_t turn = 0;

    CpuTurns()
    {
        CPU_ZERO(&all);
        if (sched_getaffinity(0, sizeof all, &all) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all))
                cpus.push_back(c);
    }
};

CpuTurns &
cpuTurns()
{
    static CpuTurns turns;
    return turns;
}

} // namespace

void
nextCpu()
{
    CpuTurns &t = cpuTurns();
    if (t.cpus.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(t.cpus[t.turn++ % t.cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
}

void
anyCpu()
{
    CpuTurns &t = cpuTurns();
    if (t.cpus.size() >= 2)
        sched_setaffinity(0, sizeof t.all, &t.all);
}

const std::vector<std::string> &
policies()
{
    static const std::vector<std::string> kPolicies = {
        "none", "struct-all", "struct-bounded", "slack-profile",
        "slack-dynamic",
    };
    return kPolicies;
}

std::string
Cell::key() const
{
    return workload + " " + config + " " + selector;
}

namespace
{

constexpr int kVariants = 3;

/**
 * A non-default seed's matrix must cost within this share of the mean
 * over all variants; kMaxDraws bounds the search for one.
 */
constexpr double kCostTolerance = 0.01;
constexpr int kMaxDraws = 10000;

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The order of `n` rounds under a seed: identity for the default. */
std::vector<size_t>
seedOrder(uint64_t seed, size_t n)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    uint64_t state = seed;
    for (size_t i = n; seed != kDefaultSeed && i > 1; --i)
        std::swap(order[i - 1], order[splitmix64(state) % i]);
    return order;
}

double
costOf(const Costs &costs, const std::string &program)
{
    auto it = costs.find(program);
    if (it == costs.end())
        throw std::runtime_error("no host cost for " + program +
                                 " in the cost table");
    return it->second;
}

mg::workloads::WorkloadSpec
spec(const std::string &name)
{
    auto s = mg::workloads::findWorkload(name);
    if (!s)
        throw std::runtime_error("unknown workload " + name);
    return *s;
}

/**
 * Deal `programs` into `groups` groups of at most ceil(n / groups)
 * each: costliest first, each to the cheapest group with room.  Each
 * group keeps the programs' original order.
 */
std::vector<std::vector<std::string>>
deal(const std::vector<std::string> &programs, const Costs &costs,
     size_t groups)
{
    std::vector<size_t> byCost(programs.size());
    for (size_t i = 0; i < byCost.size(); ++i)
        byCost[i] = i;
    std::stable_sort(byCost.begin(), byCost.end(), [&](size_t a, size_t b) {
        return costOf(costs, programs[a]) > costOf(costs, programs[b]);
    });
    const size_t room = (programs.size() + groups - 1) / groups;
    std::vector<std::vector<size_t>> members(groups);
    std::vector<double> load(groups, 0.0);
    for (size_t i : byCost) {
        size_t best = groups;
        for (size_t g = 0; g < groups; ++g)
            if (members[g].size() < room &&
                (best == groups || load[g] < load[best]))
                best = g;
        members[best].push_back(i);
        load[best] += costOf(costs, programs[i]);
    }
    std::vector<std::vector<std::string>> out(groups);
    for (size_t g = 0; g < groups; ++g) {
        std::sort(members[g].begin(), members[g].end());
        for (size_t i : members[g])
            out[g].push_back(programs[i]);
    }
    return out;
}

/**
 * One program per kernel: `.0` throughout for the default seed;
 * otherwise variants drawn from the seed, redrawn until their summed
 * cost is within kCostTolerance of the mean over all variants (the
 * closest draw if none is).
 */
std::vector<std::string>
pickVariants(uint64_t seed, const std::vector<std::string> &kernels,
             const Costs &costs)
{
    std::vector<std::string> pick;
    double target = 0.0;
    for (const std::string &k : kernels) {
        pick.push_back(k + ".0");
        for (int v = 0; v < kVariants; ++v)
            target += costOf(costs, k + "." + std::to_string(v)) / kVariants;
    }
    if (seed == kDefaultSeed)
        return pick;
    uint64_t state = seed;
    std::vector<std::string> best;
    double bestErr = 0.0;
    for (int d = 0; d < kMaxDraws && (best.empty() || bestErr > kCostTolerance);
         ++d) {
        double total = 0.0;
        for (size_t i = 0; i < kernels.size(); ++i) {
            pick[i] = kernels[i] + "." +
                      std::to_string(splitmix64(state) % kVariants);
            total += costOf(costs, pick[i]);
        }
        const double err = std::abs(total / target - 1.0);
        if (best.empty() || err < bestErr)
            best = pick, bestErr = err;
    }
    return best;
}

} // namespace

std::vector<std::vector<Cell>>
matrixRounds(uint64_t seed, size_t kernels, const Costs &costs)
{
    std::vector<std::string> names;
    for (const mg::workloads::WorkloadSpec &w :
         mg::workloads::workloadList())
        if (w.variant == 0 && (!kernels || names.size() < kernels))
            names.push_back(w.kernel);
    const std::vector<std::string> programs =
        pickVariants(seed, names, costs);
    const size_t groups =
        (programs.size() + kProgramsPerRound - 1) / kProgramsPerRound;
    const mg::uarch::CoreConfig reduced =
        *mg::uarch::configFromName("reduced");
    std::vector<std::vector<Cell>> rounds;
    for (const std::vector<std::string> &group :
         deal(programs, costs, groups)) {
        std::vector<Cell> &cells = rounds.emplace_back();
        for (const std::string &program : group)
            for (const std::string &p : policies()) {
                Cell c;
                c.workload = program;
                c.config = "reduced";
                c.selector = p;
                c.policy = p.c_str();
                c.req.workload = spec(program);
                c.req.config = reduced;
                if (p != "none")
                    c.req.selector = *mg::minigraph::selectorFromName(p);
                cells.push_back(std::move(c));
            }
    }
    return rounds;
}

std::vector<mg::dse::GridSpec>
dseRounds(uint64_t seed, const Costs &costs)
{
    const mg::dse::GridSpec pinned = mg::dse::pinnedDseGrid();
    if (pinned.workloads.size() != 2)
        throw std::logic_error("dseRounds: the pinned grid has two kernels");
    std::vector<std::vector<std::string>> byCost;
    for (const std::string &w : pinned.workloads) {
        std::vector<std::string> &vs = byCost.emplace_back();
        for (int v = 0; v < kVariants; ++v)
            vs.push_back(spec(w).kernel + "." + std::to_string(v));
        std::stable_sort(vs.begin(), vs.end(), [&](const auto &a,
                                                   const auto &b) {
            return costOf(costs, a) > costOf(costs, b);
        });
    }
    std::vector<mg::dse::GridSpec> rounds;
    for (size_t r : seedOrder(seed, kVariants)) {
        mg::dse::GridSpec &grid = rounds.emplace_back(pinned);
        grid.workloads = {byCost[0][r], byCost[1][kVariants - 1 - r]};
    }
    return rounds;
}

std::string
loadCosts(const std::string &path, Costs &costs)
{
    std::ifstream in(path);
    if (!in)
        return "cannot read cost table " + path;
    costs.clear();
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f = mg::split(line, '\t');
        char *end = nullptr;
        const double sec =
            f.size() == 2 ? std::strtod(f[1].c_str(), &end) : 0.0;
        if (f.size() != 2 || !end || *end != '\0' || !(sec > 0))
            return path + ":" + std::to_string(lineNo) +
                   ": want <workload> <seconds>";
        costs[f[0]] = sec;
    }
    return "";
}

std::string
Workload::loadTables()
{
    ref = Reference{};
    if (std::string err = ref.load(opts.referencePath); !err.empty())
        return err;
    return loadCosts(opts.costsPath, costs);
}

std::string
Reference::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "cannot read reference " + path;
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f = mg::split(line, '\t');
        RefValue v;
        char *end = nullptr;
        if (f.size() == 5) {
            v.cycles = std::strtoull(f[3].c_str(), &end, 10);
            if (*end == '\0')
                v.hash = std::strtoull(f[4].c_str(), &end, 16);
        }
        if (f.size() != 5 || !end || *end != '\0')
            return path + ":" + std::to_string(lineNo) +
                   ": want <workload> <config> <selector> <cycles> <hash>";
        entries[f[0] + " " + f[1] + " " + f[2]] = v;
    }
    if (entries.empty())
        return "empty reference " + path;
    return "";
}

const RefValue *
Reference::find(const std::string &key) const
{
    auto it = entries.find(key);
    return it == entries.end() ? nullptr : &it->second;
}

void
Reference::plantDrift(const std::string &key)
{
    entries[key].hash ^= 1;
}

bool
identityHolds(const mg::uarch::SimResult &sim)
{
    return sim.accountedWidth != 0 &&
           sim.lossSum() == sim.totalSlots() - sim.committedUnits;
}

std::string
checkCell(const Reference &ref, const std::string &key,
          const mg::uarch::SimResult &sim, const std::string &stats_line)
{
    const RefValue *want = ref.find(key);
    if (!want)
        return key + ": no reference entry";
    const uint64_t hash = mg::fnv1a64(stats_line);
    if (sim.cycles != want->cycles || hash != want->hash)
        return key + ": drift: cycles " + std::to_string(sim.cycles) +
               " hash " + mg::hex64(hash) + ", reference cycles " +
               std::to_string(want->cycles) + " hash " +
               mg::hex64(want->hash);
    if (!identityHolds(sim))
        return key + ": loss-accounting identity violated";
    return "";
}

bool
ContextClaims::claim(const std::string &artefact)
{
    std::lock_guard<std::mutex> lock(mu);
    return seen.insert(artefact).second;
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

} // namespace hb
