/**
 * @file
 * Batch journal: an append-only record of completed runs that lets
 * `mgsim batch --resume` skip work a crashed or killed batch already
 * finished.
 *
 * Format: one completed run per line,
 *
 *     <run key> '\t' <stats JSON> '\n'
 *
 * where the key is journal::runKey(request) and the JSON is the
 * deterministic trace::statsJson line of the result.  Only successful
 * runs are journalled — failed runs re-execute on resume.  The loader
 * is corruption-tolerant: a truncated last line (host died mid-write)
 * or garbage bytes are reported and dropped, resuming from the last
 * valid entry — never treated as silent success.
 */

#ifndef MG_SIM_JOURNAL_H
#define MG_SIM_JOURNAL_H

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "common/version.h"
#include "sim/experiment.h"

namespace mg::sim::journal
{

/**
 * Deterministic identity of a run: every request field that changes
 * the result is folded into the key — including the simulator
 * version, so a journal written by an older timing model can never
 * be replayed as current results (the same rule the DSE result store
 * applies to its content addresses).  E.g.
 *
 *     "crc32.0#alt|reduced|slack-profile|budget=512|cross-input|sim=mg-sim-8"
 *
 * A chosen set adds "|chosen=<count>-<FNV-1a of its (firstPc, len)
 * list>": Fig-8 batches hold many different sets of one size.  Keys
 * contain no tabs or newlines (journal framing) and no ':', '!' or '@'
 * (fault-spec separators).  Configs must be named (registry
 * configs always are); an unnamed config yields an "?" component.
 *
 * @param sim_version  defaults to the compiled-in kSimVersion;
 *                     overridable so tests can fabricate stale keys
 */
std::string runKey(const RunRequest &req,
                   const std::string &sim_version = kSimVersion);

/** Result of loading a journal file. */
struct LoadResult
{
    /** key -> stats JSON line, last entry winning. */
    std::map<std::string, std::string> entries;

    /** Corrupt lines dropped (truncated tail, garbage, bad JSON). */
    size_t dropped = 0;

    /** Human-readable description of dropped lines ("" = clean). */
    std::string warning;

    /** True if the file existed (a missing file loads empty/clean). */
    bool existed = false;
};

/**
 * Load a journal, dropping corrupt lines (see LoadResult::dropped).
 * Every surviving entry parsed as valid stats JSON for its key.
 */
LoadResult load(const std::string &path);

/** Append-only journal writer shared by the runner's workers. */
class Writer
{
  public:
    Writer() = default;
    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    /**
     * Open for appending (creating if missing).
     *
     * @return "" on success, else the error
     */
    std::string open(const std::string &path);

    bool isOpen() const { return file != nullptr; }

    /**
     * Append one completed run, flush, and fsync, so entries survive
     * both a SIGKILL of this process and a host power loss — and so a
     * torn entry can only ever be the journal's final line (the
     * loader's truncated-tail recovery depends on that ordering).
     * Thread-safe.
     */
    void append(const std::string &key, const std::string &stats_json);

  private:
    std::mutex mu;
    std::FILE *file = nullptr;
};

} // namespace mg::sim::journal

#endif // MG_SIM_JOURNAL_H
