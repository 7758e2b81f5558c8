/**
 * @file
 * mgsim: command-line driver for the mini-graph toolchain.
 *
 *   mgsim run <prog.s|workload> [--config NAME] [--selector NAME]
 *             [--jobs N] [--json]
 *   mgsim batch <jobs.txt|-> [--jobs N] [--json] [--progress]
 *               [--isolate] [--timeout SEC] [--retries N]
 *               [--backoff SEC] [--journal FILE] [--resume]
 *               [--inject-fault SPEC] [--check-level LVL]
 *   mgsim sweep <grid.json|-|pinned> [--store DIR] [--out FILE]
 *               [--shard i/N] [--merge] [--no-prefilter] [--jobs N]
 *               [--progress] [--isolate] [--timeout SEC] [--retries N]
 *               [--backoff SEC] [--check-level LVL]
 *   mgsim cache stats|verify|gc [--store DIR] [--json]
 *   mgsim trace <prog.s|workload> [--config NAME] [--selector NAME]
 *               [--out PREFIX] [--start N] [--end N] [--json]
 *   mgsim perf [--subset pinned|smoke|full] [--out FILE]
 *              [--baseline FILE] [--label TEXT] [--pr N] [--jobs N]
 *              [--json] | perf --check FILE
 *   mgsim candidates <prog.s|workload>
 *   mgsim analyze <prog.s|workload|all> [--json]
 *   mgsim lint <prog.s|workload|all> [--config NAME]
 *              [--selector NAME|all] [--budget N] [--json]
 *   mgsim cc <file.c> [--emit] [--out FILE] [--run] [--check]
 *   mgsim disasm <prog.s|workload>
 *   mgsim profile <prog.s|workload> [--config NAME]   (stdout: profile)
 *   mgsim workloads
 *   mgsim configs
 *   mgsim selectors
 *
 * `mgsim cc` is the C-subset compiler frontend (docs/FRONTEND.md):
 * --emit prints the MG-RISC assembly (--out writes it to a file),
 * --run executes the compiled program functionally and prints the
 * final value of every global, --check runs the two-level frontend
 * differential gate (fuzz/frontend_fuzz.h).  Everywhere else a
 * program argument is accepted, a path ending in ".c" is compiled on
 * the fly, so `mgsim run/lint/analyze/trace foo.c` all work.
 *
 * All subcommands share one argument grammar (tools/cli.h): flags of
 * the batch-execution surface (--jobs, --json, ...) parse into
 * sim::BatchOptions with flag-over-env precedence, command-specific
 * flags are declared per subcommand, and any usage problem — unknown
 * flag, bad value, inconsistent combination like `--timeout` without
 * `--isolate` — is a parse-time complaint with exit code 2.
 *
 * `mgsim trace` simulates once with the pipeline tracer attached and
 * writes <PREFIX>.kanata (Konata pipeline log), <PREFIX>.trace.json
 * (Chrome trace_event) and <PREFIX>.stats.json (run statistics with
 * the cycle-loss breakdown), round-trip validating each artefact; see
 * docs/TRACING.md.
 *
 * `mgsim perf` is the self-benchmarking harness (docs/PERF.md): it
 * runs a pinned subset of the workload x selector matrix and writes
 * the BENCH_<pr>.json document with simulated-cycles/sec, per-run and
 * end-to-end wall time, and peak RSS; `--baseline OLD.json` embeds
 * the previous measurement and the end-to-end speedup.
 *
 * `mgsim analyze` runs the whole-program static analyzer
 * (docs/ANALYSIS.md) — dominators, natural loops with trip-count
 * estimates, dataflow readiness heights, candidate serialization
 * predictions — and emits one deterministic JSON line per program
 * (golden-snapshotted in tests/golden/golden_analyze.jsonl).  No
 * simulation is involved; `analyze all` covers all 108 benchmarks in
 * well under a second.
 *
 * A program argument is either a path to an MG-RISC assembly file or
 * the name of a built-in benchmark (e.g. "adpcm_c.0").
 *
 * A batch job list has one job per line ('#' starts a comment):
 *
 *   <workload> <config> <selector|none> [profile=<config>]
 *       [budget=<n>] [alt] [cross-input]
 *
 * Jobs run through the parallel sim::Runner (pool size: --jobs, else
 * MG_JOBS, else all cores) and results print in submission order.
 *
 * Robustness (docs/ROBUSTNESS.md): with --isolate each run executes
 * in a forked sandbox, so a crash/hang/OOM in one run degrades to a
 * structured error while the rest of the batch completes.  --timeout
 * (requires --isolate) SIGKILLs runaway runs; --retries re-runs
 * transient failures with exponential --backoff; --journal appends
 * each completed run's stats JSON so --resume can replay them after
 * the batch process itself is killed.  Batch exit codes: 0 = all runs
 * ok, 3 = partial failure, 1 = total failure, 2 = usage error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "assembler/assembler.h"
#include "check/mg_lint.h"
#include "cli.h"
#include "dse/result_store.h"
#include "dse/sweep.h"
#include "frontend/cgen.h"
#include "frontend/compile.h"
#include "frontend/interp.h"
#include "fuzz/chaos.h"
#include "fuzz/frontend_fuzz.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/shrink.h"
#include "common/json.h"
#include "common/stats_util.h"
#include "common/string_util.h"
#include "minigraph/rewriter.h"
#include "minigraph/selectors.h"
#include "minigraph/static_rank.h"
#include "profile/exec_counts.h"
#include "profile/profile_io.h"
#include "profile/slack_profile.h"
#include "sim/perf_harness.h"
#include "sim/runner.h"
#include "trace/konata.h"
#include "trace/stats_json.h"

namespace
{

using namespace mg;

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names) {
        if (!out.empty())
            out += " ";
        out += n;
    }
    return out;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  mgsim run <prog.s|workload> [--config NAME] [--selector "
        "NAME]\n"
        "            [--jobs N] [--json]\n"
        "  mgsim batch <jobs.txt|-> [--jobs N] [--json] [--progress]\n"
        "              [--isolate] [--timeout SEC] [--retries N]\n"
        "              [--backoff SEC] [--journal FILE] [--resume]\n"
        "              [--inject-fault SPEC] [--check-level LVL]\n"
        "  mgsim sweep <grid.json|-|pinned> [--store DIR] [--out "
        "FILE]\n"
        "              [--shard i/N] [--merge] [--no-prefilter]\n"
        "              [--jobs N] [--progress] [--isolate] [--timeout "
        "SEC]\n"
        "              [--retries N] [--backoff SEC] [--check-level "
        "LVL]\n"
        "  mgsim cache stats|verify|gc [--store DIR] [--json]\n"
        "  mgsim trace <prog.s|workload> [--config NAME] [--selector "
        "NAME]\n"
        "              [--out PREFIX] [--start N] [--end N] [--json]\n"
        "  mgsim perf [--subset pinned|smoke|full] [--out FILE]\n"
        "             [--baseline FILE] [--label TEXT] [--pr N]\n"
        "             [--jobs N] [--json] | perf --check FILE\n"
        "  mgsim candidates <prog.s|workload>\n"
        "  mgsim analyze <prog.s|workload|all> [--json]\n"
        "  mgsim lint <prog.s|workload|all> [--config NAME]\n"
        "             [--selector NAME|all] [--budget N] [--json]\n"
        "  mgsim fuzz [--seed N] [--count M] [--config NAME]\n"
        "             [--selectors A,B,...] [--budget N] "
        "[--no-shrink]\n"
        "             [--repro-dir DIR] [--frontend] | fuzz --chaos\n"
        "             [--seed N] [--schedules M] [--work-dir DIR] "
        "[--jobs N]\n"
        "  mgsim shrink <repro.s|repro.c> [--frontend] [--config "
        "NAME]\n"
        "             [--selectors A,B,...] [--budget N] [--out "
        "FILE]\n"
        "  mgsim cc <file.c> [--emit] [--out FILE] [--run] [--check]\n"
        "  mgsim disasm <prog.s|workload>\n"
        "  mgsim profile <prog.s|workload> [--config NAME]\n"
        "  mgsim workloads\n"
        "  mgsim configs\n"
        "  mgsim selectors\n"
        "\n"
        "batch job lines: <workload> <config> <selector|none>\n"
        "                 [profile=<config>] [budget=<n>] [alt] "
        "[cross-input]\n"
        "--jobs N         worker threads, 1..1024 (default: MG_JOBS, "
        "else all cores)\n"
        "--json           machine-readable results (one JSON object "
        "per job)\n"
        "--isolate        run each job in a forked sandbox (fault "
        "containment)\n"
        "--timeout SEC    per-run watchdog, SIGKILL on expiry "
        "(requires --isolate)\n"
        "--retries N      re-run transient failures up to N extra "
        "times\n"
        "--backoff SEC    base retry backoff, doubling per attempt "
        "(default 0.05)\n"
        "--journal FILE   append completed runs (key + stats JSON) to "
        "FILE\n"
        "--resume         replay completed runs from --journal instead "
        "of re-running\n"
        "--inject-fault SPEC  inject a fault: "
        "crash|hang|oom|corrupt[@cycle][:match][!attempts]\n"
        "--check-level LVL    invariant audit level: off, cheap, full\n"
        "\n"
        "batch exit codes: 0 all ok, 3 partial failure, 1 total "
        "failure, 2 usage\n"
        "\n"
        "configs: %s\n"
        "selectors: none %s\n",
        joinNames(uarch::allConfigNames()).c_str(),
        joinNames(minigraph::allSelectorNames()).c_str());
    return 2;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

std::optional<assembler::Program>
loadProgram(const std::string &arg)
{
    if (auto spec = workloads::findWorkload(arg))
        return workloads::buildWorkload(*spec).program;
    std::ifstream in(arg);
    if (!in)
        return std::nullopt;
    std::stringstream ss;
    ss << in.rdbuf();
    if (endsWith(arg, ".c")) {
        frontend::CompileOptions copts;
        copts.name = arg;
        frontend::CompileResult comp =
            frontend::compile(ss.str(), copts);
        if (!comp.ok) {
            std::fprintf(stderr, "%s\n", comp.error.c_str());
            return std::nullopt;
        }
        return frontend::assemble(comp, copts);
    }
    assembler::AssembleOptions opts;
    opts.name = arg;
    return assembler::assemble(ss.str(), opts);
}

void
printStats(const uarch::SimResult &r)
{
    std::printf("cycles            %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions      %llu (IPC %.3f)\n",
                static_cast<unsigned long long>(r.originalInsts),
                r.ipc());
    if (r.committedHandles) {
        std::printf("mini-graphs       %llu committed, coverage %.1f%%\n",
                    static_cast<unsigned long long>(r.committedHandles),
                    100.0 * r.coverage());
        if (r.disabledExpansions) {
            std::printf("  disabled runs   %llu (+%llu outlining "
                        "jumps)\n",
                        static_cast<unsigned long long>(
                            r.disabledExpansions),
                        static_cast<unsigned long long>(
                            r.outliningJumps));
        }
    }
    std::printf("branch mispredict %.2f%% (%llu/%llu)\n",
                100.0 * r.branchPred.condMispredictRate(),
                static_cast<unsigned long long>(
                    r.branchPred.condMispredicts),
                static_cast<unsigned long long>(
                    r.branchPred.condPredictions));
    std::printf("D$/I$/L2 miss     %.2f%% / %.2f%% / %.2f%%\n",
                100.0 * r.dcache.missRate(), 100.0 * r.icache.missRate(),
                100.0 * r.l2.missRate());
    std::printf("mem violations    %llu, issue replays %llu\n",
                static_cast<unsigned long long>(r.memOrderViolations),
                static_cast<unsigned long long>(r.issueReplays));
    if (r.accountedWidth) {
        std::printf("loss accounting   %llu of %llu slots lost\n",
                    static_cast<unsigned long long>(r.lostSlots()),
                    static_cast<unsigned long long>(r.totalSlots()));
        for (size_t i = 0; i < uarch::kNumLossBuckets; ++i) {
            uint64_t v = r.lossSlots[i];
            if (!v)
                continue;
            std::printf("  %-26s %10llu (%5.1f%%)\n",
                        uarch::lossBucketName(
                            static_cast<uarch::LossBucket>(i)),
                        static_cast<unsigned long long>(v),
                        r.lostSlots()
                            ? 100.0 * v / r.lostSlots()
                            : 0.0);
        }
    }
}

/** StatsMeta for one request/result pair (JSON identification). */
trace::StatsMeta
metaFor(const sim::RunRequest &req, const std::string &program_name,
        const sim::RunResult &r)
{
    trace::StatsMeta meta;
    meta.workload = program_name;
    meta.config = req.config.name;
    meta.selector =
        req.selector ? minigraph::nameOf(*req.selector) : "none";
    meta.templateNames = r.templateNames;
    meta.mgInstances = r.instances;
    meta.mgTemplatesUsed = r.templatesUsed;
    return meta;
}

/** One machine-readable result line. */
void
printJson(const sim::RunRequest &req, const std::string &program_name,
          const sim::RunResult &r)
{
    trace::StatsMeta meta = metaFor(req, program_name, r);
    std::string line = r.ok ? trace::statsJson(meta, r.sim)
                            : trace::errorJson(meta, r.error);
    std::printf("%s\n", line.c_str());
}

/** Parse a selector name into a RunRequest; complain on stderr. */
bool
applySelector(const std::string &name, sim::RunRequest &req)
{
    if (name == "none")
        return true;
    auto kind = minigraph::selectorFromName(name);
    if (!kind) {
        std::fprintf(stderr, "unknown selector '%s'\n", name.c_str());
        return false;
    }
    req.selector = *kind;
    return true;
}

int
cmdRun(const cli::Args &args)
{
    const std::string &prog_arg = args.positional[0];
    const std::string config = args.get("--config", "reduced");
    auto cfg = uarch::configFromName(config);
    if (!cfg) {
        std::fprintf(stderr, "unknown config '%s'\n", config.c_str());
        return 2;
    }
    auto prog = loadProgram(prog_arg);
    if (!prog) {
        std::fprintf(stderr, "cannot load '%s'\n", prog_arg.c_str());
        return 2;
    }

    sim::RunRequest req;
    req.config = *cfg;
    if (!applySelector(args.get("--selector", "none"), req))
        return 2;

    sim::ProgramContext ctx(*prog);
    auto run = ctx.run(req);
    if (args.batch.json) {
        printJson(req, prog->name, run);
        return run.ok ? 0 : 1;
    }
    std::printf("program '%s': %zu static instructions, config %s\n",
                prog->name.c_str(), prog->size(), cfg->name.c_str());
    if (req.selector) {
        std::printf("selector %s: %u templates, %zu sites\n",
                    minigraph::selectorName(*req.selector).c_str(),
                    run.templatesUsed, run.instances);
    }
    printStats(run.sim);
    return 0;
}

/**
 * Simulate once with the pipeline tracer attached; write and
 * round-trip validate the Konata / Chrome / stats artefacts.
 */
int
cmdTrace(const cli::Args &args)
{
    const std::string &prog_arg = args.positional[0];
    const std::string config = args.get("--config", "reduced");
    auto cfg = uarch::configFromName(config);
    if (!cfg) {
        std::fprintf(stderr, "unknown config '%s'\n", config.c_str());
        return 2;
    }
    auto prog = loadProgram(prog_arg);
    if (!prog) {
        std::fprintf(stderr, "cannot load '%s'\n", prog_arg.c_str());
        return 2;
    }

    const std::string prefix = args.get("--out", "mgtrace");
    const std::string konata_path = prefix + ".kanata";
    const std::string chrome_path = prefix + ".trace.json";
    const std::string stats_path = prefix + ".stats.json";

    sim::RunRequest req;
    req.config = *cfg;
    if (!applySelector(args.get("--selector", "none"), req))
        return 2;
    int64_t start = 0, end = INT64_MAX;
    if (!cli::getNonNegative(args, "trace", "--start", start) ||
        !cli::getNonNegative(args, "trace", "--end", end)) {
        return 2;
    }
    req.trace = trace::TraceConfig{static_cast<uint64_t>(start),
                                   static_cast<uint64_t>(end),
                                   konata_path, chrome_path};

    sim::ProgramContext ctx(*prog);
    auto run = ctx.run(req);

    trace::StatsMeta meta = metaFor(req, prog->name, run);
    std::ofstream stats(stats_path, std::ios::binary);
    stats << trace::statsJson(meta, run.sim) << "\n";
    if (!stats) {
        std::fprintf(stderr, "cannot write '%s'\n", stats_path.c_str());
        return 1;
    }
    stats.close();

    // Round-trip validate everything we just wrote.
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    int rc = 0;
    if (std::string err = trace::validateKonata(slurp(konata_path));
        !err.empty()) {
        std::fprintf(stderr, "%s: invalid Konata log: %s\n",
                     konata_path.c_str(), err.c_str());
        rc = 1;
    }
    if (std::string err = json::validate(slurp(chrome_path));
        !err.empty()) {
        std::fprintf(stderr, "%s: invalid JSON: %s\n",
                     chrome_path.c_str(), err.c_str());
        rc = 1;
    }
    if (std::string err = json::validate(slurp(stats_path));
        !err.empty()) {
        std::fprintf(stderr, "%s: invalid JSON: %s\n",
                     stats_path.c_str(), err.c_str());
        rc = 1;
    }
    if (rc != 0)
        return rc;
    if (args.batch.json) {
        std::printf("{\"konata\":\"%s\",\"chrome\":\"%s\",\"stats\":"
                    "\"%s\",\"cycles\":%llu}\n",
                    trace::jsonEscape(konata_path).c_str(),
                    trace::jsonEscape(chrome_path).c_str(),
                    trace::jsonEscape(stats_path).c_str(),
                    static_cast<unsigned long long>(run.sim.cycles));
    } else {
        std::printf("wrote %s %s %s (%llu cycles simulated)\n",
                    konata_path.c_str(), chrome_path.c_str(),
                    stats_path.c_str(),
                    static_cast<unsigned long long>(run.sim.cycles));
    }
    return 0;
}

/** Parse one batch-file line into a request; false on error. */
bool
parseJobLine(const std::string &line, sim::RunRequest &out,
             std::string &err)
{
    auto tokens = splitWhitespace(line);
    if (tokens.size() < 3) {
        err = "expected: <workload> <config> <selector|none>";
        return false;
    }
    auto spec = workloads::findWorkload(tokens[0]);
    if (!spec) {
        err = "unknown workload '" + tokens[0] + "'";
        return false;
    }
    out.workload = *spec;
    auto cfg = uarch::configFromName(tokens[1]);
    if (!cfg) {
        err = "unknown config '" + tokens[1] + "'";
        return false;
    }
    out.config = *cfg;
    if (tokens[2] != "none") {
        auto kind = minigraph::selectorFromName(tokens[2]);
        if (!kind) {
            err = "unknown selector '" + tokens[2] + "'";
            return false;
        }
        out.selector = *kind;
    }
    for (size_t i = 3; i < tokens.size(); ++i) {
        const std::string &t = tokens[i];
        if (t == "alt") {
            out.altInput = true;
        } else if (t == "cross-input") {
            out.profileFromAltInput = true;
        } else if (startsWith(t, "profile=")) {
            auto pc = uarch::configFromName(t.substr(8));
            if (!pc) {
                err = "unknown profile config '" + t.substr(8) + "'";
                return false;
            }
            out.profileConfig = *pc;
        } else if (startsWith(t, "budget=")) {
            int64_t v = 0;
            if (!parseInt(t.substr(7), v) || v <= 0) {
                err = "bad budget '" + t + "'";
                return false;
            }
            out.templateBudget = static_cast<uint32_t>(v);
        } else {
            err = "unknown option '" + t + "'";
            return false;
        }
    }
    return true;
}

int
cmdBatch(const cli::Args &args)
{
    const std::string &list_arg = args.positional[0];
    const sim::BatchOptions &bopts = args.batch;

    std::ifstream file;
    std::istream *in = &std::cin;
    if (list_arg != "-") {
        file.open(list_arg);
        if (!file) {
            std::fprintf(stderr, "cannot open '%s'\n", list_arg.c_str());
            return 2;
        }
        in = &file;
    }

    std::vector<sim::RunRequest> jobs;
    std::string line;
    size_t lineno = 0;
    while (std::getline(*in, line)) {
        ++lineno;
        std::string body = trim(line.substr(0, line.find('#')));
        if (body.empty())
            continue;
        sim::RunRequest req;
        std::string err;
        if (!parseJobLine(body, req, err)) {
            std::fprintf(stderr, "%s:%zu: %s\n", list_arg.c_str(),
                         lineno, err.c_str());
            return 2;
        }
        // An explicit --check-level overrides the per-config default
        // for every job (the env var is already folded into the
        // config default; see uarch::defaultCheckLevel()).
        if (bopts.src.checkLevel == sim::OptionSource::Flag)
            req.config.checkLevel = bopts.checkLevel;
        jobs.push_back(std::move(req));
    }
    if (jobs.empty()) {
        std::fprintf(stderr, "no jobs in '%s'\n", list_arg.c_str());
        return 2;
    }

    if (bopts.json) {
        // First record: the resolved option set with per-field
        // provenance, so a machine-readable batch documents exactly
        // how it was configured.
        std::printf("{\"options\":%s}\n", bopts.describe().c_str());
    }

    sim::Runner runner(bopts.runnerOptions());
    std::fprintf(stderr, "%zu jobs on %u threads%s\n", jobs.size(),
                 runner.jobs(), bopts.isolate ? " (isolated)" : "");
    auto results = runner.run(jobs, "batch");

    for (size_t i = 0; i < results.size(); ++i) {
        const auto &req = jobs[i];
        const auto &r = results[i];
        std::string wname =
            req.workload.name() + (req.altInput ? "#alt" : "");
        std::string key = sim::journal::runKey(req);
        if (bopts.json) {
            // Splice "status" and "key" in front of the stats-JSON
            // payload so the rest of the line keeps the exact bytes
            // the journal / isolated child produced.
            std::string payload;
            if (r.ok) {
                payload = r.statsJsonLine.empty()
                              ? trace::statsJson(
                                    sim::metaForRun(req, r, wname),
                                    r.sim)
                              : r.statsJsonLine;
            } else {
                payload = trace::errorJson(
                    sim::metaForRun(req, r, wname), r.error,
                    sim::errorDetailOf(r.err));
            }
            std::printf("{\"status\":\"%s\",\"key\":\"%s\",%s\n",
                        r.ok ? "ok" : "error",
                        trace::jsonEscape(key).c_str(),
                        payload.c_str() + 1);
            continue;
        }
        if (!r.ok) {
            std::string attempts_note;
            if (r.err.attempts > 1) {
                attempts_note = " (after " +
                                std::to_string(r.err.attempts) +
                                " attempts)";
            }
            std::printf("%-18s %-10s %-22s ERROR [%s] %s%s\n",
                        wname.c_str(), req.config.name.c_str(),
                        req.selector
                            ? minigraph::nameOf(*req.selector).c_str()
                            : "none",
                        sim::errorClassName(r.err.cls),
                        r.error.c_str(), attempts_note.c_str());
            continue;
        }
        std::printf("%-18s %-10s %-22s cycles=%-10llu ipc=%-6s "
                    "coverage=%-6s templates=%-4u instances=%zu\n",
                    wname.c_str(), req.config.name.c_str(),
                    req.selector
                        ? minigraph::nameOf(*req.selector).c_str()
                        : "none",
                    static_cast<unsigned long long>(r.sim.cycles),
                    fmtDouble(r.ipc(), 3).c_str(),
                    fmtDouble(r.coverage(), 3).c_str(), r.templatesUsed,
                    r.instances);
    }

    sim::BatchSummary sum = sim::summarize(results);
    std::fprintf(stderr,
                 "batch: %zu/%zu ok, %zu failed (%zu retried, %zu "
                 "timed out, %zu replayed from journal)\n",
                 sum.ok, sum.total, sum.failed, sum.retried,
                 sum.timedOut, sum.replayed);
    if (bopts.json) {
        std::printf("{\"batch\":{\"total\":%zu,\"ok\":%zu,"
                    "\"failed\":%zu,\"retried\":%zu,\"timedOut\":%zu,"
                    "\"replayed\":%zu}}\n",
                    sum.total, sum.ok, sum.failed, sum.retried,
                    sum.timedOut, sum.replayed);
    }

    // 0 = every run succeeded, 3 = partial failure, 1 = nothing ran.
    if (sum.failed == 0)
        return 0;
    return sum.ok ? 3 : 1;
}

/**
 * `mgsim sweep`: design-space exploration over a parameter grid with
 * the content-addressed result store (docs/DSE.md).  The grid
 * argument is a JSON file, "-" for stdin, or "pinned" for the
 * built-in 130-cell pinned grid.  Exit codes mirror batch: 0 all ok,
 * 3 some simulations failed, 1 fatal, 2 usage.
 */
int
cmdSweep(const cli::Args &args)
{
    const std::string &grid_arg = args.positional[0];

    dse::GridSpec grid;
    if (grid_arg == "pinned") {
        grid = dse::pinnedDseGrid();
    } else {
        std::ifstream file;
        std::istream *in = &std::cin;
        if (grid_arg != "-") {
            file.open(grid_arg);
            if (!file) {
                std::fprintf(stderr, "cannot open '%s'\n",
                             grid_arg.c_str());
                return 2;
            }
            in = &file;
        }
        std::stringstream ss;
        ss << in->rdbuf();
        std::string err = dse::parseGrid(ss.str(), grid);
        if (!err.empty()) {
            std::fprintf(stderr, "mgsim sweep: %s: %s\n",
                         grid_arg.c_str(), err.c_str());
            return 2;
        }
    }

    dse::SweepOptions opts;
    opts.batch = args.batch;
    opts.storeRoot = args.get("--store", opts.storeRoot);
    opts.merge = args.has("--merge");
    opts.prefilter = !args.has("--no-prefilter");
    if (args.has("--shard")) {
        unsigned i = 0, n = 0;
        if (std::sscanf(args.get("--shard").c_str(), "%u/%u", &i, &n) !=
                2 ||
            i < 1 || n < 1 || i > n) {
            std::fprintf(stderr,
                         "mgsim sweep: --shard %s: want i/N with "
                         "1 <= i <= N\n",
                         args.get("--shard").c_str());
            return 2;
        }
        opts.shardIndex = i;
        opts.shardCount = n;
    }
    if (opts.merge && args.has("--shard")) {
        std::fprintf(stderr,
                     "mgsim sweep: --merge and --shard are exclusive "
                     "(merge reads every shard's results)\n");
        return 2;
    }

    auto t0 = std::chrono::steady_clock::now();
    dse::SweepOutcome out = dse::runSweep(grid, opts);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (!out.error.empty()) {
        std::fprintf(stderr, "mgsim sweep: %s\n", out.error.c_str());
        return 1;
    }

    // Run provenance goes to stderr only: the document on stdout is
    // byte-identical whether points were simulated or cache hits.
    std::fprintf(stderr,
                 "sweep: %zu points, %zu pruned, %zu hits, %zu misses, "
                 "%zu simulated, %zu failed, %zu other-shard (%.2fs)\n",
                 out.summary.points, out.summary.pruned, out.summary.hits,
                 out.summary.misses, out.summary.simulated,
                 out.summary.failed, out.summary.skipped, wall);

    if (!out.doc.empty()) {
        const std::string out_path = args.get("--out");
        if (out_path.empty()) {
            std::fputs(out.doc.c_str(), stdout);
        } else {
            std::ofstream f(out_path, std::ios::binary);
            f << out.doc;
            if (!f) {
                std::fprintf(stderr, "cannot write '%s'\n",
                             out_path.c_str());
                return 1;
            }
            std::fprintf(stderr, "wrote %s\n", out_path.c_str());
        }
    }
    if (out.summary.failed == 0)
        return 0;
    return out.summary.failed < out.summary.points ? 3 : 1;
}

/**
 * `mgsim cache`: inspect and maintain the DSE result store.
 * `stats` tallies entries; `verify` validates every entry
 * (quarantining and exiting 1 on any corruption); `gc` removes
 * quarantined files and entries of other simulator versions.
 */
int
cmdCache(const cli::Args &args)
{
    const std::string &verb = args.positional[0];
    if (verb != "stats" && verb != "verify" && verb != "gc") {
        std::fprintf(stderr,
                     "mgsim cache: unknown action '%s' (want stats, "
                     "verify or gc)\n",
                     verb.c_str());
        return 2;
    }

    dse::ResultStore store;
    std::string err = store.open(args.get("--store", ".mgstore"));
    if (!err.empty()) {
        std::fprintf(stderr, "mgsim cache: %s\n", err.c_str());
        return 1;
    }

    if (verb == "stats") {
        dse::StoreStats st = store.stats();
        if (args.batch.json) {
            std::string versions;
            for (const auto &[ver, n] : st.byVersion) {
                versions += versions.empty() ? "" : ",";
                versions += "\"" + trace::jsonEscape(ver) +
                            "\":" + std::to_string(n);
            }
            std::printf("{\"store\":\"%s\",\"entries\":%zu,"
                        "\"quarantined\":%zu,\"objectBytes\":%llu,"
                        "\"byVersion\":{%s}}\n",
                        trace::jsonEscape(store.rootDir()).c_str(),
                        st.entries, st.quarantined,
                        static_cast<unsigned long long>(st.objectBytes),
                        versions.c_str());
        } else {
            std::printf("store       %s\n", store.rootDir().c_str());
            std::printf("entries     %zu (%llu bytes)\n", st.entries,
                        static_cast<unsigned long long>(st.objectBytes));
            std::printf("quarantined %zu\n", st.quarantined);
            for (const auto &[ver, n] : st.byVersion)
                std::printf("  %-12s %zu\n", ver.c_str(), n);
        }
        return 0;
    }

    if (verb == "verify") {
        dse::VerifyReport rep = store.verify();
        for (const auto &bad : rep.bad)
            std::fprintf(stderr, "quarantined %s: %s\n",
                         bad.file.c_str(), bad.reason.c_str());
        if (args.batch.json) {
            std::printf("{\"checked\":%zu,\"bad\":%zu,\"clean\":%s}\n",
                        rep.checked, rep.bad.size(),
                        rep.clean() ? "true" : "false");
        } else {
            std::printf("verified %zu entr%s, %zu bad\n", rep.checked,
                        rep.checked == 1 ? "y" : "ies", rep.bad.size());
        }
        return rep.clean() ? 0 : 1;
    }

    dse::GcReport rep = store.gc();
    if (args.batch.json) {
        std::printf("{\"staleRemoved\":%zu,\"quarantineRemoved\":%zu,"
                    "\"bytesReclaimed\":%llu}\n",
                    rep.staleRemoved, rep.quarantineRemoved,
                    static_cast<unsigned long long>(rep.bytesReclaimed));
    } else {
        std::printf("removed %zu stale entr%s, %zu quarantined file%s "
                    "(%llu bytes)\n",
                    rep.staleRemoved, rep.staleRemoved == 1 ? "y" : "ies",
                    rep.quarantineRemoved,
                    rep.quarantineRemoved == 1 ? "" : "s",
                    static_cast<unsigned long long>(rep.bytesReclaimed));
    }
    return 0;
}

int
cmdPerf(const cli::Args &args)
{
    // --check FILE: validate an existing bench report (schema parse,
    // round-trip, every cell ok) without running anything.  CI runs
    // this on the report it just produced; the per-PR workflow runs
    // it on checked-in BENCH_*.json files.
    if (args.has("--check")) {
        const std::string path = args.get("--check");
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "mgsim perf: cannot open '%s'\n",
                         path.c_str());
            return 2;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        sim::PerfReport rep;
        if (std::string perr = sim::parseBenchJson(ss.str(), rep);
            !perr.empty()) {
            std::fprintf(stderr, "mgsim perf: %s: %s\n", path.c_str(),
                         perr.c_str());
            return 1;
        }
        if (!rep.allOk()) {
            std::fprintf(stderr,
                         "mgsim perf: %s: contains failed runs\n",
                         path.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "perf: %s ok (%s subset, %zu cells, %.2fs)\n",
                     path.c_str(), rep.subset.c_str(),
                     rep.runs.size(), rep.batchWallSec);
        return 0;
    }

    const std::string subset = args.get("--subset", "pinned");
    std::string err;
    auto cells = sim::perfCellsForSubset(subset, err);
    if (!err.empty()) {
        std::fprintf(stderr, "mgsim perf: %s\n", err.c_str());
        return 2;
    }

    int64_t pr = 0;
    if (!cli::getPositive(args, "perf", "--pr", pr))
        return 2;

    // Unless --jobs was given explicitly, measure with one worker:
    // the pinned numbers must not depend on the machine's core count.
    unsigned jobs = args.batch.src.jobs == sim::OptionSource::Flag
                        ? args.batch.jobs
                        : 1;

    std::optional<sim::PerfBaseline> baseline;
    if (args.has("--baseline")) {
        const std::string path = args.get("--baseline");
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "mgsim perf: cannot open '%s'\n",
                         path.c_str());
            return 2;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        sim::PerfReport base;
        if (std::string perr = sim::parseBenchJson(ss.str(), base);
            !perr.empty()) {
            std::fprintf(stderr, "mgsim perf: %s: %s\n", path.c_str(),
                         perr.c_str());
            return 2;
        }
        sim::PerfBaseline b;
        b.label = args.get("--label", "baseline");
        b.batchWallSec = base.batchWallSec;
        b.totalSimCycles = base.totalSimCycles;
        b.simCyclesPerSec = base.simCyclesPerSec;
        b.peakRssKb = base.peakRssKb;
        baseline = b;
    }

    std::fprintf(stderr, "perf: %zu cells (%s subset) on %u thread%s\n",
                 cells.size(), subset.c_str(), jobs,
                 jobs == 1 ? "" : "s");
    sim::PerfReport rep = sim::runPerf(cells, jobs, static_cast<unsigned>(pr), subset);
    rep.baseline = baseline;

    std::string doc = sim::benchJson(rep);
    const std::string out_path = args.get("--out", "");
    if (!out_path.empty() && out_path != "-") {
        std::ofstream out(out_path, std::ios::binary);
        out << doc;
        if (!out) {
            std::fprintf(stderr, "mgsim perf: cannot write '%s'\n",
                         out_path.c_str());
            return 1;
        }
    }
    if (args.batch.json || out_path.empty() || out_path == "-")
        std::fwrite(doc.data(), 1, doc.size(), stdout);

    std::fprintf(stderr,
                 "perf: %.2fs end-to-end, %llu simulated cycles "
                 "(%.2fM cyc/s), peak RSS %ld KB\n",
                 rep.batchWallSec,
                 static_cast<unsigned long long>(rep.totalSimCycles),
                 rep.simCyclesPerSec / 1e6, rep.peakRssKb);
    if (rep.baseline) {
        std::fprintf(stderr, "perf: %.2fx end-to-end vs %s (%.2fs)\n",
                     rep.speedup(), rep.baseline->label.c_str(),
                     rep.baseline->batchWallSec);
    }
    return rep.allOk() ? 0 : 1;
}

int
cmdCandidates(const std::string &prog_arg)
{
    auto prog = loadProgram(prog_arg);
    if (!prog) {
        std::fprintf(stderr, "cannot load '%s'\n", prog_arg.c_str());
        return 2;
    }
    auto pool = minigraph::enumerateCandidates(*prog);
    TextTable t;
    t.header({"firstPc", "len", "inputs", "output", "mem", "ctl",
              "class"});
    for (const auto &c : pool) {
        t.row({std::to_string(c.firstPc), std::to_string(c.len),
               std::to_string(c.tmpl.numInputs),
               c.outputReg >= 0 ? "r" + std::to_string(c.outputReg)
                                : "-",
               c.tmpl.hasMem ? "y" : "-", c.tmpl.hasControl ? "y" : "-",
               c.serialClass == minigraph::SerialClass::NonSerializing
                   ? "none"
               : c.serialClass == minigraph::SerialClass::Bounded
                   ? "bounded"
                   : "unbounded"});
    }
    std::printf("%zu candidates in '%s'\n%s", pool.size(),
                prog->name.c_str(), t.render().c_str());
    return 0;
}

/** Analyze one program; print one line (JSON or human-readable). */
void
analyzeOne(const assembler::Program &prog, bool json)
{
    minigraph::AnalyzeReport rep = minigraph::analyzeProgram(prog);
    if (json) {
        std::printf("%s\n", minigraph::analyzeReportJson(rep).c_str());
        return;
    }
    std::printf("%-18s insts=%-5zu blocks=%-3zu loops=%zu(%zu exact, "
                "depth %u) height=%-4u cands=%-3zu "
                "pred=%zu/%zu/%zu slack-static=%zu\n",
                rep.program.c_str(), rep.instructions, rep.blocks,
                rep.loops, rep.exactTripCounts, rep.maxLoopDepth,
                rep.maxHeight, rep.candidates, rep.predNonSerializing,
                rep.predBounded, rep.predUnbounded, rep.slackStaticKept);
}

int
cmdAnalyze(const cli::Args &args)
{
    const std::string &prog_arg = args.positional[0];
    if (prog_arg == "all") {
        for (const auto &spec : workloads::workloadList()) {
            analyzeOne(workloads::buildWorkload(spec).program,
                       args.batch.json);
        }
        return 0;
    }
    auto prog = loadProgram(prog_arg);
    if (!prog) {
        std::fprintf(stderr, "cannot load '%s'\n", prog_arg.c_str());
        return 2;
    }
    analyzeOne(*prog, args.batch.json);
    return 0;
}

/**
 * Lint one program: run the static selection pipeline for each
 * requested selector and re-check every template, chosen site, and
 * rewritten binary against the mini-graph interface rules.  Returns
 * the number of findings.
 */
size_t
lintProgram(const assembler::Program &prog,
            const std::vector<minigraph::SelectorKind> &kinds,
            const uarch::CoreConfig &machine, uint32_t budget,
            bool json)
{
    auto pool = minigraph::enumerateCandidates(prog);
    auto counts = profile::countExecutions(prog);
    std::optional<profile::SlackProfileData> prof;

    size_t findings = 0;
    for (auto kind : kinds) {
        const profile::SlackProfileData *p = nullptr;
        if (minigraph::selectorNeedsProfile(kind)) {
            if (!prof)
                prof = profile::profileProgram(prog, machine);
            p = &*prof;
        }
        auto filtered = minigraph::filterPool(pool, kind, prog, p);
        auto sel = minigraph::selectGreedy(filtered, counts, budget);
        auto rw = minigraph::rewrite(prog, sel.chosen);
        check::LintReport rep =
            check::lintRewrite(prog, sel.chosen, rw.program, rw.info);
        if (json) {
            std::printf("{\"workload\":\"%s\",\"selector\":\"%s\","
                        "\"templates\":%zu,\"instances\":%zu,"
                        "\"findings\":%zu}\n",
                        trace::jsonEscape(prog.name).c_str(),
                        trace::jsonEscape(minigraph::nameOf(kind))
                            .c_str(),
                        rep.templatesChecked, rep.instancesChecked,
                        rep.findings.size());
        } else {
            std::printf(
                "%-18s %-22s templates=%-4zu instances=%-5zu %s\n",
                prog.name.c_str(), minigraph::nameOf(kind).c_str(),
                rep.templatesChecked, rep.instancesChecked,
                rep.clean() ? "clean"
                            : ("FINDINGS(" +
                               std::to_string(rep.findings.size()) +
                               ")")
                                  .c_str());
            if (!rep.clean())
                std::printf("%s", rep.render().c_str());
        }
        findings += rep.findings.size();
    }
    return findings;
}

int
cmdLint(const cli::Args &args)
{
    const std::string &prog_arg = args.positional[0];
    const std::string config = args.get("--config", "reduced");
    auto machine = uarch::configFromName(config);
    if (!machine) {
        std::fprintf(stderr, "unknown config '%s'\n", config.c_str());
        return 2;
    }
    int64_t budget = 512;
    if (!cli::getInt(args, "lint", "--budget", 1, UINT32_MAX, budget))
        return 2;

    // Default: the five paper selectors (lint "none" is vacuous).
    const std::string selector = args.get("--selector", "none");
    std::vector<minigraph::SelectorKind> kinds;
    if (selector == "none" || selector == "all") {
        kinds = {minigraph::SelectorKind::StructAll,
                 minigraph::SelectorKind::StructNone,
                 minigraph::SelectorKind::StructBounded,
                 minigraph::SelectorKind::SlackProfile,
                 minigraph::SelectorKind::SlackDynamic};
    } else {
        auto kind = minigraph::selectorFromName(selector);
        if (!kind) {
            std::fprintf(stderr, "unknown selector '%s'\n",
                         selector.c_str());
            return 2;
        }
        kinds = {*kind};
    }

    size_t findings = 0;
    if (prog_arg == "all") {
        for (const auto &spec : workloads::workloadList()) {
            auto prog = workloads::buildWorkload(spec).program;
            findings += lintProgram(prog, kinds, *machine,
                                    static_cast<uint32_t>(budget),
                                    args.batch.json);
        }
    } else {
        auto prog = loadProgram(prog_arg);
        if (!prog) {
            std::fprintf(stderr, "cannot load '%s'\n", prog_arg.c_str());
            return 2;
        }
        findings += lintProgram(*prog, kinds, *machine,
                                static_cast<uint32_t>(budget),
                                args.batch.json);
    }
    if (findings) {
        std::fprintf(stderr, "lint: %zu finding%s\n", findings,
                     findings == 1 ? "" : "s");
        return 1;
    }
    return 0;
}

/**
 * `mgsim cc`: the C-subset compiler frontend (docs/FRONTEND.md).
 * Compiles one .c file; --emit/--out produce the MG-RISC assembly,
 * --run executes the compiled program functionally and prints every
 * global's final value, --check runs the two-level differential gate
 * and prints its JSON verdict.  With none of those, prints a one-line
 * summary.  Exit 1 on compile errors, check failures, or
 * nontermination.
 */
int
cmdCc(const cli::Args &args)
{
    const std::string &path = args.positional[0];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string source = ss.str();

    frontend::CompileOptions copts;
    copts.name = path;
    frontend::CompileResult comp = frontend::compile(source, copts);
    if (!comp.ok) {
        for (const auto &d : comp.diags)
            std::fprintf(stderr, "%s\n",
                         frontend::renderDiag(path, d).c_str());
        return 1;
    }
    assembler::Program prog = frontend::assemble(comp, copts);

    const std::string out_path = args.get("--out");
    bool acted = false;
    if (args.has("--emit") || !out_path.empty()) {
        acted = true;
        if (out_path.empty() || out_path == "-") {
            std::fwrite(comp.asmText.data(), 1, comp.asmText.size(),
                        stdout);
        } else {
            std::ofstream f(out_path, std::ios::binary);
            f << comp.asmText;
            if (!f) {
                std::fprintf(stderr, "cannot write '%s'\n",
                             out_path.c_str());
                return 1;
            }
            std::fprintf(stderr, "wrote %s\n", out_path.c_str());
        }
    }

    int rc = 0;
    if (args.has("--check")) {
        acted = true;
        fuzz::FrontendCheckOptions fopts;
        fopts.compile = copts;
        fuzz::OracleVerdict verdict = fuzz::checkCSource(source, fopts);
        std::printf("%s\n",
                    fuzz::verdictJson(path, 0, verdict).c_str());
        if (!verdict.ok())
            rc = 1;
    }

    if (args.has("--run")) {
        acted = true;
        uarch::FunctionalCore core(prog);
        const uint64_t max_steps = fuzz::OracleOptions{}.maxSteps;
        for (uint64_t s = 0; !core.halted() && s < max_steps; ++s)
            core.step();
        if (!core.halted()) {
            std::fprintf(stderr,
                         "%s: did not halt within %llu steps\n",
                         path.c_str(),
                         static_cast<unsigned long long>(max_steps));
            return 1;
        }
        for (const auto &g : comp.ast->globals) {
            const uint64_t base = prog.dataLabels.at(g.name);
            if (g.arraySize == 0) {
                std::printf("%s = %llu\n", g.name.c_str(),
                            static_cast<unsigned long long>(
                                core.memory().read(base, 8)));
                continue;
            }
            std::printf("%s[%zu] =", g.name.c_str(), g.arraySize);
            const size_t shown = std::min<size_t>(g.arraySize, 8);
            for (size_t i = 0; i < shown; ++i)
                std::printf(" %llu",
                            static_cast<unsigned long long>(
                                core.memory().read(base + 8 * i, 8)));
            std::printf(g.arraySize > shown ? " ...\n" : "\n");
        }
        std::printf("insts = %llu\n",
                    static_cast<unsigned long long>(core.instCount()));
    }

    if (!acted) {
        std::printf("compiled '%s': %zu instructions, %zu globals, "
                    "%zu functions\n",
                    path.c_str(), prog.size(),
                    comp.ast->globals.size(), comp.ast->funcs.size());
    }
    return rc;
}

/**
 * Resolve the oracle options shared by `mgsim fuzz` and
 * `mgsim shrink`: --config and a comma-separated --selectors list.
 * @return false on a usage error (complaint already printed).
 */
bool
oracleOptionsFromArgs(const cli::Args &args, const std::string &cmd,
                      fuzz::OracleOptions &opts)
{
    const std::string config = args.get("--config", "reduced");
    auto machine = uarch::configFromName(config);
    if (!machine) {
        std::fprintf(stderr, "unknown config '%s'\n", config.c_str());
        return false;
    }
    opts.config = *machine;
    opts.config.checkLevel = uarch::CheckLevel::Full;

    int64_t budget = opts.templateBudget;
    if (!cli::getInt(args, cmd, "--budget", 1, UINT32_MAX, budget))
        return false;
    opts.templateBudget = static_cast<uint32_t>(budget);

    if (args.has("--selectors")) {
        opts.selectors.clear();
        std::stringstream ss(args.get("--selectors"));
        std::string name;
        while (std::getline(ss, name, ',')) {
            auto kind = minigraph::selectorFromName(name);
            if (!kind) {
                std::fprintf(stderr, "unknown selector '%s'\n",
                             name.c_str());
                return false;
            }
            opts.selectors.push_back(*kind);
        }
        if (opts.selectors.empty()) {
            std::fprintf(stderr,
                         "mgsim %s: --selectors: want a "
                         "comma-separated selector list\n",
                         cmd.c_str());
            return false;
        }
    }
    return true;
}

/**
 * `mgsim fuzz`: differential fuzzing (docs/FUZZING.md).  Default
 * mode generates --count programs from consecutive seeds and runs
 * each through the architectural oracle, printing one JSON verdict
 * line per trial; failures are shrunk to ready-to-commit repros
 * under --repro-dir unless --no-shrink.  --chaos instead runs
 * randomized kill/corrupt/resume schedules against the DSE service.
 */
int
cmdFuzz(const cli::Args &args)
{
    int64_t seed = 1, count = 100;
    if (!cli::getInt(args, "fuzz", "--seed", 0, INT64_MAX, seed) ||
        !cli::getPositive(args, "fuzz", "--count", count))
        return 2;

    if (args.has("--chaos")) {
        fuzz::ChaosOptions copts;
        copts.seed = static_cast<uint64_t>(seed);
        int64_t schedules = 20;
        if (!cli::getPositive(args, "fuzz", "--schedules", schedules))
            return 2;
        copts.schedules = static_cast<unsigned>(schedules);
        copts.workDir = args.get("--work-dir", copts.workDir);
        copts.jobs = args.batch.jobs;
        fuzz::ChaosResult res = fuzz::runChaos(copts);
        if (!res.error.empty()) {
            std::fprintf(stderr, "mgsim fuzz: %s\n", res.error.c_str());
            return 1;
        }
        std::printf("%s\n", fuzz::chaosJson(res, copts.seed).c_str());
        std::fprintf(stderr,
                     "chaos: %u schedules, %u faulted, %u resumed, "
                     "%llu files corrupted, %zu invariant "
                     "violation(s)\n",
                     res.schedules, res.faultsInjected, res.resumes,
                     static_cast<unsigned long long>(res.corrupted),
                     res.failures.size());
        for (const std::string &f : res.failures)
            std::fprintf(stderr, "chaos: FAIL: %s\n", f.c_str());
        return res.ok() ? 0 : 1;
    }

    fuzz::OracleOptions oracle;
    if (!oracleOptionsFromArgs(args, "fuzz", oracle))
        return 2;
    const bool do_shrink = !args.has("--no-shrink");
    const std::string repro_dir =
        args.get("--repro-dir", "fuzz-repros");

    // --frontend: random-C differential fuzzing of the compiler
    // against the AST interpreter, then the architectural oracle on
    // the compiled binary (docs/FRONTEND.md).
    if (args.has("--frontend")) {
        unsigned cfails = 0;
        for (int64_t i = 0; i < count; ++i) {
            const uint64_t s = static_cast<uint64_t>(seed + i);
            frontend::CGenOptions gopts;
            gopts.seed = s;
            const std::string source =
                frontend::generateCSource(gopts);
            fuzz::FrontendCheckOptions fopts;
            fopts.oracle = oracle;
            fopts.compile.name = frontend::cFuzzProgramName(s);
            fuzz::OracleVerdict verdict =
                fuzz::checkCSourceIsolated(source, fopts);
            std::printf("%s\n",
                        fuzz::verdictJson(fopts.compile.name, s,
                                          verdict)
                            .c_str());
            std::fflush(stdout);
            if (verdict.ok())
                continue;
            ++cfails;
            if (!do_shrink)
                continue;
            fuzz::ShrinkResult shrunk =
                fuzz::shrinkCSource(source, fopts);
            std::error_code ec;
            std::filesystem::create_directories(repro_dir, ec);
            const std::string path =
                (std::filesystem::path(repro_dir) /
                 (fopts.compile.name + ".c"))
                    .string();
            std::ofstream f(path, std::ios::binary);
            f << fuzz::reproCSource(shrunk, s);
            std::fprintf(
                stderr,
                "fuzz: seed %llu FAILED (%s), repro: %s "
                "(%llu insts, %llu trials)\n",
                static_cast<unsigned long long>(s),
                verdict.failures.front().kind.c_str(), path.c_str(),
                static_cast<unsigned long long>(shrunk.instructions),
                static_cast<unsigned long long>(shrunk.trials));
        }
        std::fprintf(stderr,
                     "fuzz: %lld frontend trial(s), %u failure(s)\n",
                     static_cast<long long>(count), cfails);
        return cfails ? 1 : 0;
    }

    unsigned failures = 0;
    for (int64_t i = 0; i < count; ++i) {
        const uint64_t s = static_cast<uint64_t>(seed + i);
        fuzz::GeneratorOptions gopts;
        gopts.seed = s;
        fuzz::GeneratedProgram gen = fuzz::generateProgram(gopts);
        fuzz::OracleVerdict verdict =
            fuzz::checkProgramIsolated(gen.program, oracle);
        std::printf("%s\n",
                    fuzz::verdictJson(gen.program.name, s, verdict)
                        .c_str());
        std::fflush(stdout);
        if (verdict.ok())
            continue;
        ++failures;
        if (!do_shrink)
            continue;
        fuzz::ShrinkOptions sopts;
        sopts.oracle = oracle;
        sopts.name = gen.program.name;
        sopts.memSize = gopts.memSize;
        fuzz::ShrinkResult shrunk = fuzz::shrink(gen.source, sopts);
        std::error_code ec;
        std::filesystem::create_directories(repro_dir, ec);
        const std::string path =
            (std::filesystem::path(repro_dir) /
             (gen.program.name + ".s"))
                .string();
        std::ofstream f(path, std::ios::binary);
        f << fuzz::reproSource(shrunk, s);
        std::fprintf(stderr,
                     "fuzz: seed %llu FAILED (%s/%s), repro: %s "
                     "(%llu insts, %llu trials)\n",
                     static_cast<unsigned long long>(s),
                     verdict.failures.front().selector.c_str(),
                     verdict.failures.front().kind.c_str(),
                     path.c_str(),
                     static_cast<unsigned long long>(
                         shrunk.instructions),
                     static_cast<unsigned long long>(shrunk.trials));
    }
    std::fprintf(stderr, "fuzz: %lld trial(s), %u failure(s)\n",
                 static_cast<long long>(count), failures);
    return failures ? 1 : 0;
}

/**
 * `mgsim shrink`: re-shrink a failing program (typically a repro a
 * soak run produced with different oracle options, or a hand-edited
 * candidate).  Exits 1 if the input does not fail the oracle.
 */
int
cmdShrink(const cli::Args &args)
{
    const std::string &in_path = args.positional[0];
    std::ifstream in(in_path);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", in_path.c_str());
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();

    // C repros go through the frontend shrinker (ddmin over C lines);
    // a .c suffix implies --frontend.
    if (args.has("--frontend") || endsWith(in_path, ".c")) {
        fuzz::FrontendCheckOptions fopts;
        if (!oracleOptionsFromArgs(args, "shrink", fopts.oracle))
            return 2;
        fopts.compile.name = in_path;
        fuzz::ShrinkResult shrunk =
            fuzz::shrinkCSource(ss.str(), fopts);
        if (!shrunk.reproduced) {
            std::fprintf(stderr,
                         "mgsim shrink: %s does not fail the "
                         "frontend gate (nothing to shrink)\n",
                         in_path.c_str());
            return 1;
        }
        const std::string out_path =
            args.get("--out", in_path + ".min.c");
        std::ofstream f(out_path, std::ios::binary);
        f << fuzz::reproCSource(shrunk, 0);
        if (!f) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         out_path.c_str());
            return 1;
        }
        std::fprintf(
            stderr,
            "shrink: %s -> %s (%llu insts, %llu trials, first "
            "failure: %s)\n",
            in_path.c_str(), out_path.c_str(),
            static_cast<unsigned long long>(shrunk.instructions),
            static_cast<unsigned long long>(shrunk.trials),
            shrunk.verdict.failures.front().kind.c_str());
        return 0;
    }

    fuzz::ShrinkOptions sopts;
    if (!oracleOptionsFromArgs(args, "shrink", sopts.oracle))
        return 2;

    fuzz::ShrinkResult shrunk = fuzz::shrink(ss.str(), sopts);
    if (!shrunk.reproduced) {
        std::fprintf(stderr,
                     "mgsim shrink: %s does not fail the oracle "
                     "(nothing to shrink)\n",
                     in_path.c_str());
        return 1;
    }
    const std::string out_path =
        args.get("--out", in_path + ".min.s");
    std::ofstream f(out_path, std::ios::binary);
    f << fuzz::reproSource(shrunk, 0);
    if (!f) {
        std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "shrink: %s -> %s (%llu insts, %llu trials, first "
                 "failure: %s)\n",
                 in_path.c_str(), out_path.c_str(),
                 static_cast<unsigned long long>(shrunk.instructions),
                 static_cast<unsigned long long>(shrunk.trials),
                 shrunk.verdict.failures.front().kind.c_str());
    return 0;
}

/** The accepted argument surface of each subcommand. */
cli::Command
commandSpec(const std::string &cmd)
{
    cli::Command c;
    c.name = cmd;
    if (cmd == "run") {
        c.own = {{"--config", true}, {"--selector", true}};
        c.batchFlags = {"--jobs", "--json"};
        c.minPositional = 1;
    } else if (cmd == "batch") {
        c.batchFlags = {"--jobs",    "--json",    "--progress",
                        "--isolate", "--timeout", "--retries",
                        "--backoff", "--journal", "--resume",
                        "--inject-fault", "--check-level"};
        c.minPositional = 1;
    } else if (cmd == "sweep") {
        c.own = {{"--store", true},
                 {"--out", true},
                 {"--shard", true},
                 {"--merge", false},
                 {"--no-prefilter", false}};
        c.batchFlags = {"--jobs",    "--progress", "--isolate",
                        "--timeout", "--retries",  "--backoff",
                        "--check-level"};
        c.minPositional = 1;
    } else if (cmd == "cache") {
        c.own = {{"--store", true}};
        c.batchFlags = {"--json"};
        c.minPositional = 1;
    } else if (cmd == "trace") {
        c.own = {{"--config", true},
                 {"--selector", true},
                 {"--out", true},
                 {"--start", true},
                 {"--end", true}};
        c.batchFlags = {"--jobs", "--json"};
        c.minPositional = 1;
    } else if (cmd == "perf") {
        c.own = {{"--subset", true},
                 {"--out", true},
                 {"--baseline", true},
                 {"--label", true},
                 {"--pr", true},
                 {"--check", true}};
        c.batchFlags = {"--jobs", "--json", "--progress"};
    } else if (cmd == "lint") {
        c.own = {{"--config", true},
                 {"--selector", true},
                 {"--budget", true}};
        c.batchFlags = {"--jobs", "--json"};
        c.minPositional = 1;
    } else if (cmd == "analyze") {
        c.batchFlags = {"--json"};
        c.minPositional = 1;
    } else if (cmd == "fuzz") {
        c.own = {{"--seed", true},      {"--count", true},
                 {"--chaos", false},    {"--config", true},
                 {"--selectors", true}, {"--budget", true},
                 {"--no-shrink", false}, {"--repro-dir", true},
                 {"--schedules", true}, {"--work-dir", true},
                 {"--frontend", false}};
        c.batchFlags = {"--jobs"};
    } else if (cmd == "shrink") {
        c.own = {{"--config", true},
                 {"--selectors", true},
                 {"--budget", true},
                 {"--out", true},
                 {"--frontend", false}};
        c.minPositional = 1;
    } else if (cmd == "cc") {
        c.own = {{"--emit", false},
                 {"--out", true},
                 {"--run", false},
                 {"--check", false}};
        c.minPositional = 1;
    } else if (cmd == "candidates" || cmd == "disasm" ||
               cmd == "profile") {
        if (cmd == "profile")
            c.own = {{"--config", true}};
        c.minPositional = 1;
    }
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];

    if (cmd == "workloads") {
        for (const auto &w : mg::workloads::workloadList())
            std::printf("%-18s %s\n", w.name().c_str(), w.suite.c_str());
        return 0;
    }
    if (cmd == "configs") {
        for (const auto &n : uarch::allConfigNames()) {
            auto c = uarch::configFromName(n);
            std::printf("%-9s %u-wide, IQ %u, %u regs\n", n.c_str(),
                        c->issueWidth, c->issueQueueEntries, c->physRegs);
        }
        return 0;
    }
    if (cmd == "selectors") {
        for (const auto &n : minigraph::allSelectorNames()) {
            auto k = minigraph::selectorFromName(n);
            std::printf("%-26s %s\n", n.c_str(),
                        minigraph::selectorName(*k).c_str());
        }
        return 0;
    }

    const bool known = cmd == "run" || cmd == "batch" ||
                       cmd == "sweep" || cmd == "cache" ||
                       cmd == "trace" || cmd == "perf" ||
                       cmd == "candidates" || cmd == "analyze" ||
                       cmd == "lint" || cmd == "disasm" ||
                       cmd == "profile" || cmd == "fuzz" ||
                       cmd == "shrink" || cmd == "cc";
    if (!known)
        return usage();

    cli::Args args;
    if (!cli::parseArgs(argc, argv, 2, commandSpec(cmd), args))
        return usage();

    try {
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "batch")
            return cmdBatch(args);
        if (cmd == "sweep")
            return cmdSweep(args);
        if (cmd == "cache")
            return cmdCache(args);
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "perf")
            return cmdPerf(args);
        if (cmd == "candidates")
            return cmdCandidates(args.positional[0]);
        if (cmd == "analyze")
            return cmdAnalyze(args);
        if (cmd == "lint")
            return cmdLint(args);
        if (cmd == "cc")
            return cmdCc(args);
        if (cmd == "fuzz")
            return cmdFuzz(args);
        if (cmd == "shrink")
            return cmdShrink(args);
        if (cmd == "disasm") {
            auto prog = loadProgram(args.positional[0]);
            if (!prog)
                return 2;
            std::printf("%s", prog->listing().c_str());
            return 0;
        }
        if (cmd == "profile") {
            auto cfg =
                uarch::configFromName(args.get("--config", "reduced"));
            auto prog = loadProgram(args.positional[0]);
            if (!cfg || !prog)
                return 2;
            auto data = profile::profileProgram(*prog, *cfg);
            std::printf("%s",
                        profile::saveProfileToString(data).c_str());
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
