#include "sim/perf_harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <limits>
#include <variant>

#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "minigraph/selectors.h"
#include "sim/runner.h"
#include "trace/stats_json.h"
#include "uarch/config.h"
#include "workloads/workload.h"

namespace mg::sim
{

namespace
{

/** The five paper policies, in fixed bench order. */
const char *const kPolicies[] = {
    "none", "struct-all", "struct-bounded", "slack-profile",
    "slack-dynamic",
};

constexpr const char *kBenchConfig = "reduced";

/** The golden-snapshot workloads (tests/trace/golden_stats_test.cc). */
const char *const kSmokeWorkloads[] = {
    "crc32.0", "bitcount.0", "adpcm_c.0",
};

double
nowSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

long
peakRssKb()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return ru.ru_maxrss; // kilobytes on Linux
}

/** Cells for an explicit workload list x the five policies. */
std::vector<PerfCell>
crossWithPolicies(const std::vector<std::string> &names)
{
    std::vector<PerfCell> cells;
    cells.reserve(names.size() * std::size(kPolicies));
    for (const std::string &w : names)
        for (const char *sel : kPolicies)
            cells.push_back({w, kBenchConfig, sel});
    return cells;
}

RunRequest
requestFor(const PerfCell &cell, std::string &err)
{
    RunRequest req;
    auto spec = workloads::findWorkload(cell.workload);
    if (!spec) {
        err = "unknown workload '" + cell.workload + "'";
        return req;
    }
    req.workload = *spec;
    auto cfg = uarch::configFromName(cell.config);
    if (!cfg) {
        err = "unknown config '" + cell.config + "'";
        return req;
    }
    req.config = *cfg;
    if (cell.selector != "none") {
        auto kind = minigraph::selectorFromName(cell.selector);
        if (!kind) {
            err = "unknown selector '" + cell.selector + "'";
            return req;
        }
        req.selector = *kind;
    }
    return req;
}

PerfRun
runToPerf(const PerfCell &cell, const RunRequest &req,
          const RunResult &r)
{
    PerfRun out;
    out.cell = cell;
    out.ok = r.ok;
    if (!r.ok) {
        out.error = r.error;
        return out;
    }
    out.simCycles = r.sim.cycles;
    out.statsJsonLine =
        r.statsJsonLine.empty()
            ? trace::statsJson(metaForRun(req, r), r.sim)
            : r.statsJsonLine;
    out.statsHash = fnv1a64(out.statsJsonLine);
    return out;
}

} // namespace

uint64_t
fnv1a64(const std::string &text)
{
    return mg::fnv1a64(text);
}

double
PerfReport::speedup() const
{
    if (!baseline || batchWallSec <= 0 || baseline->batchWallSec <= 0)
        return 0.0;
    return baseline->batchWallSec / batchWallSec;
}

bool
PerfReport::allOk() const
{
    for (const PerfRun &r : runs)
        if (!r.ok)
            return false;
    return true;
}

std::vector<PerfCell>
perfPinnedCells()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::workloadList()) {
        std::string n = w.name();
        if (n.size() > 2 && n.compare(n.size() - 2, 2, ".0") == 0)
            names.push_back(n);
    }
    return crossWithPolicies(names);
}

std::vector<PerfCell>
perfSmokeCells()
{
    return crossWithPolicies(
        {std::begin(kSmokeWorkloads), std::end(kSmokeWorkloads)});
}

std::vector<PerfCell>
perfFullCells()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::workloadList())
        names.push_back(w.name());
    return crossWithPolicies(names);
}

std::vector<PerfCell>
perfCellsForSubset(const std::string &name, std::string &err)
{
    if (name == "pinned")
        return perfPinnedCells();
    if (name == "smoke")
        return perfSmokeCells();
    if (name == "full")
        return perfFullCells();
    err = "unknown subset '" + name + "' (want pinned, smoke or full)";
    return {};
}

PerfReport
runPerf(const std::vector<PerfCell> &cells, unsigned jobs, unsigned pr,
        const std::string &subset)
{
    PerfReport rep;
    rep.pr = pr;
    rep.subset = subset;
    rep.jobs = jobs ? jobs : 1;

    RunnerOptions opts;
    opts.jobs = rep.jobs;
    Runner runner(opts);

    std::vector<RunRequest> reqs;
    reqs.reserve(cells.size());
    std::vector<std::string> badCell(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        reqs.push_back(requestFor(cells[i], badCell[i]));

    double t0 = nowSec();
    if (rep.jobs == 1) {
        // Pinned measurement mode: one cell at a time, so per-run
        // wall times are meaningful.
        for (size_t i = 0; i < cells.size(); ++i) {
            if (!badCell[i].empty()) {
                PerfRun bad;
                bad.cell = cells[i];
                bad.error = badCell[i];
                rep.runs.push_back(std::move(bad));
                continue;
            }
            double r0 = nowSec();
            auto results = runner.run({reqs[i]}, "perf");
            double r1 = nowSec();
            PerfRun run = runToPerf(cells[i], reqs[i], results[0]);
            run.wallSec = r1 - r0;
            rep.runs.push_back(std::move(run));
        }
    } else {
        auto results = runner.run(reqs, "perf");
        for (size_t i = 0; i < cells.size(); ++i) {
            if (!badCell[i].empty()) {
                PerfRun bad;
                bad.cell = cells[i];
                bad.error = badCell[i];
                rep.runs.push_back(std::move(bad));
                continue;
            }
            rep.runs.push_back(
                runToPerf(cells[i], reqs[i], results[i]));
        }
    }
    rep.batchWallSec = nowSec() - t0;

    for (const PerfRun &r : rep.runs)
        rep.totalSimCycles += r.simCycles;
    if (rep.batchWallSec > 0) {
        rep.simCyclesPerSec =
            static_cast<double>(rep.totalSimCycles) / rep.batchWallSec;
    }
    rep.peakRssKb = peakRssKb();
    return rep;
}

// ---------------------------------------------------------------------
// BENCH_<pr>.json serialization
// ---------------------------------------------------------------------

std::string
benchJson(const PerfReport &rep)
{
    std::string out = "{\n";
    out += "  \"schema\": \"mg-bench-v1\",\n";
    out += strprintf("  \"pr\": %u,\n", rep.pr);
    out += strprintf("  \"subset\": \"%s\",\n",
                     trace::jsonEscape(rep.subset).c_str());
    out += strprintf("  \"jobs\": %u,\n", rep.jobs);
    out += strprintf("  \"batchWallSec\": %.6f,\n", rep.batchWallSec);
    out += strprintf("  \"totalSimCycles\": %llu,\n",
                     static_cast<unsigned long long>(
                         rep.totalSimCycles));
    out += strprintf("  \"simCyclesPerSec\": %.1f,\n",
                     rep.simCyclesPerSec);
    out += strprintf("  \"peakRssKb\": %ld,\n", rep.peakRssKb);
    if (rep.baseline) {
        const PerfBaseline &b = *rep.baseline;
        out += strprintf(
            "  \"baseline\": {\"label\": \"%s\", \"batchWallSec\": "
            "%.6f, \"totalSimCycles\": %llu, \"simCyclesPerSec\": "
            "%.1f, \"peakRssKb\": %ld},\n",
            trace::jsonEscape(b.label).c_str(), b.batchWallSec,
            static_cast<unsigned long long>(b.totalSimCycles),
            b.simCyclesPerSec, b.peakRssKb);
        out += strprintf("  \"speedup\": %.3f,\n", rep.speedup());
    }
    out += "  \"runs\": [\n";
    for (size_t i = 0; i < rep.runs.size(); ++i) {
        const PerfRun &r = rep.runs[i];
        out += strprintf(
            "    {\"workload\": \"%s\", \"config\": \"%s\", "
            "\"selector\": \"%s\", \"ok\": %s, \"simCycles\": %llu, "
            "\"statsHash\": \"%016llx\", \"wallSec\": %.6f%s}%s\n",
            trace::jsonEscape(r.cell.workload).c_str(),
            trace::jsonEscape(r.cell.config).c_str(),
            trace::jsonEscape(r.cell.selector).c_str(),
            r.ok ? "true" : "false",
            static_cast<unsigned long long>(r.simCycles),
            static_cast<unsigned long long>(r.statsHash), r.wallSec,
            r.ok ? ""
                 : strprintf(", \"error\": \"%s\"",
                             trace::jsonEscape(r.error).c_str())
                       .c_str(),
            i + 1 < rep.runs.size() ? "," : "");
    }
    out += "  ]\n";
    out += "}\n";
    return out;
}

// ---------------------------------------------------------------------
// BENCH_<pr>.json parsing (schema mg-bench-v1)
// ---------------------------------------------------------------------

namespace
{

using json::Kind;
using json::Value;

/** A statsHash: 16 hex digits in a string. */
struct Hex64
{
    uint64_t *value;
};

/** Where the value of one bench key goes. */
using Field = std::variant<std::string *, bool *, double *, unsigned *,
                           uint64_t *, long *, Hex64, const Value **>;

bool
read(const Value &v, std::string *out)
{
    if (v.kind == Kind::String)
        *out = v.text;
    return v.kind == Kind::String;
}

bool
read(const Value &v, bool *out)
{
    if (v.kind == Kind::Bool)
        *out = v.boolean;
    return v.kind == Kind::Bool;
}

bool
read(const Value &v, double *out)
{
    return json::toDouble(v, *out);
}

/** A non-negative integer that fits in T. */
template <typename T>
bool
read(const Value &v, T *out)
{
    uint64_t x = 0;
    if (!json::toU64(v, x) ||
        x > static_cast<uint64_t>(std::numeric_limits<T>::max()))
        return false;
    *out = static_cast<T>(x);
    return true;
}

bool
read(const Value &v, Hex64 out)
{
    const char *last = v.text.data() + v.text.size();
    const auto [ptr, ec] =
        std::from_chars(v.text.data(), last, *out.value, 16);
    return v.kind == Kind::String && v.text.size() == 16 &&
           ec == std::errc() && ptr == last;
}

/** A nested object or array, read on its own. */
bool
read(const Value &v, const Value **out)
{
    *out = &v;
    return true;
}

/** Read each member of an object into its named field, or say why not. */
std::string
readObject(const Value &obj,
           std::initializer_list<std::pair<std::string_view, Field>> fields)
{
    if (obj.kind != Kind::Object)
        return "expected an object";
    for (const Value &m : obj.children) {
        auto it = std::find_if(fields.begin(), fields.end(),
                               [&](const auto &f) { return f.first == m.key; });
        if (it == fields.end())
            return "unknown key '" + std::string(m.key) + "'";
        if (!std::visit([&](auto field) { return read(m, field); },
                        it->second))
            return "bad value for '" + std::string(m.key) + "'";
    }
    return "";
}

} // namespace

std::string
parseBenchJson(const std::string &text, PerfReport &out)
{
    out = PerfReport{};
    json::Document doc;
    if (std::string err = json::parse(text, doc); !err.empty())
        return err;

    std::string schema;
    double speedup = 0.0; // recomputed from the baseline
    const Value *baseline = nullptr, *runs = nullptr;
    std::string err = readObject(
        doc.root, {{"schema", &schema}, {"pr", &out.pr},
                   {"subset", &out.subset}, {"jobs", &out.jobs},
                   {"batchWallSec", &out.batchWallSec},
                   {"totalSimCycles", &out.totalSimCycles},
                   {"simCyclesPerSec", &out.simCyclesPerSec},
                   {"peakRssKb", &out.peakRssKb}, {"speedup", &speedup},
                   {"baseline", &baseline}, {"runs", &runs}});
    if (err.empty() && baseline) {
        PerfBaseline &b = out.baseline.emplace();
        err = readObject(*baseline,
                         {{"label", &b.label},
                          {"batchWallSec", &b.batchWallSec},
                          {"totalSimCycles", &b.totalSimCycles},
                          {"simCyclesPerSec", &b.simCyclesPerSec},
                          {"peakRssKb", &b.peakRssKb}});
        if (!err.empty())
            err = "baseline: " + err;
    }
    if (err.empty() && runs && runs->kind != Kind::Array)
        err = "'runs' is not an array";
    for (size_t i = 0; err.empty() && runs && i < runs->children.size();
         ++i) {
        PerfRun &r = out.runs.emplace_back();
        err = readObject(runs->children[i],
                         {{"workload", &r.cell.workload},
                          {"config", &r.cell.config},
                          {"selector", &r.cell.selector}, {"ok", &r.ok},
                          {"simCycles", &r.simCycles},
                          {"statsHash", Hex64{&r.statsHash}},
                          {"wallSec", &r.wallSec}, {"error", &r.error}});
        if (!err.empty())
            err = "runs[" + std::to_string(i) + "]: " + err;
    }
    if (!err.empty())
        return err;
    if (schema != "mg-bench-v1")
        return "unsupported schema '" + schema + "'";
    return "";
}

} // namespace mg::sim
