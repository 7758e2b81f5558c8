/**
 * @file
 * Machine-readable run statistics: one compact, deterministic JSON
 * object per run, including the cycle-loss bucket breakdown and the
 * per-template serialization counters.  Consumed by `mgsim run/batch
 * --json`, `mgsim trace`, the golden-stats snapshot tests, and the
 * parallel-runner determinism test.
 *
 * Determinism contract: same inputs -> byte-identical output.  Keys
 * are emitted in a fixed order, doubles with a fixed "%.6f" format,
 * no whitespace, one line.
 */

#ifndef MG_TRACE_STATS_JSON_H
#define MG_TRACE_STATS_JSON_H

#include <string>
#include <vector>

#include "common/json.h"
#include "isa/minigraph_types.h"
#include "uarch/sim_stats.h"

namespace mg::trace
{

/**
 * Human-readable template label: constituent mnemonics joined with
 * '+' (e.g. "add+lw+xor").  Stable across runs for a given binary.
 */
std::string templateLabel(const isa::MgTemplate &tmpl);

/**
 * Identification of the run, pre-resolved to plain strings so this
 * library needs nothing from src/sim (which depends on us).
 */
struct StatsMeta
{
    std::string workload;
    std::string config;
    std::string selector;

    /** Template labels aligned with SimResult::mgTemplates ("" ok). */
    std::vector<std::string> templateNames;

    /** Static mini-graph instances in the rewritten binary. */
    uint64_t mgInstances = 0;

    /** Distinct templates used by the rewritten binary. */
    uint64_t mgTemplatesUsed = 0;
};

/** Serialize one run's stats (single line, no trailing newline). */
std::string statsJson(const StatsMeta &meta,
                      const uarch::SimResult &res);

/**
 * Structured failure description for errorJson: how a run died, in
 * plain strings/integers so this library needs nothing from src/sim
 * (sim::RunError converts into one of these).
 */
struct ErrorDetail
{
    /** Error-class registry name (e.g. "crash", "timeout"). */
    std::string cls;

    /** Death signal (process-isolated runs; 0 = none). */
    int signal = 0;

    /** Child exit status (-1 = did not exit normally / unknown). */
    int exitStatus = -1;

    /** Last simulated cycle observed before the failure (0 = unknown). */
    uint64_t lastCycle = 0;

    /** Execution attempts made, including retries. */
    uint64_t attempts = 1;

    /** Tail of the failed run's captured stderr ("" = none). */
    std::string stderrTail;
};

/** Serialize a failed run ({"workload":...,"error":...}). */
std::string errorJson(const StatsMeta &meta, const std::string &error);

/** Serialize a failed run with the structured failure fields. */
std::string errorJson(const StatsMeta &meta, const std::string &error,
                      const ErrorDetail &detail);

/** json::escape, for callers composing JSON lines. */
inline std::string
jsonEscape(const std::string &s)
{
    return json::escape(s);
}

} // namespace mg::trace

#endif // MG_TRACE_STATS_JSON_H
