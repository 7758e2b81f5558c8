/**
 * @file
 * Persistent content-addressed result store for the design-space
 * exploration service (docs/DSE.md).
 *
 * Every completed simulation is stored under a 64-bit FNV-1a content
 * address derived from everything that determines its deterministic
 * stats-JSON line: the assembled program bytes, the *full* core
 * configuration (every field, not just the registry name), the
 * selector, and the simulator version (common/version.h).  Repeat
 * sweep points then cost one file read instead of one simulation, and
 * a timing-model change simply misses — an old entry can never be
 * served as a current result.
 *
 * On-disk layout (one entry per file, atomic rename-into-place):
 *
 *     <root>/objects/<kk>/<key16>.entry      kk = first 2 hex digits
 *     <root>/quarantine/<key16>.<reason>     entries that failed
 *                                            validation (never served)
 *     <root>/tmp/                            write staging
 *
 * Entry format (three lines, every line '\n'-terminated):
 *
 *     mg-dse-v1 <key16> <payload-fnv16> <sim-version>
 *     <identity line>
 *     <stats JSON line>
 *
 * Self-validation: the filename stem, the header key, and
 * fnv1a64(identity line) must all agree; fnv1a64(stats line) must
 * match the header payload digest; the stats line must parse as a
 * successful run (trace/stats_parse.h); and the final newline must be
 * present (its absence is the mid-write truncation signature).  Any
 * violation quarantines the entry — a corrupt result is *never*
 * served, and `mgsim cache verify` exits nonzero.
 */

#ifndef MG_DSE_RESULT_STORE_H
#define MG_DSE_RESULT_STORE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "assembler/program.h"
#include "common/version.h"
#include "trace/stats_parse.h"
#include "uarch/config.h"

namespace mg::dse
{

/** A derived content address plus the identity it hashes. */
struct StoreKey
{
    /** FNV-1a-64 of `identity`. */
    uint64_t value = 0;

    /**
     * One-line, human-auditable derivation record:
     * "prog=<name>#<fnv16>|cfg=<canonical config>|sel=<selector>|
     * sim=<version>".  Stored in the entry so verify/gc can recompute
     * the key without the program in hand.
     */
    std::string identity;

    /** 16-digit lower-case hex of `value` (filename stem). */
    std::string hex() const;
};

/**
 * Canonical serialization of *every* CoreConfig field, in fixed
 * declaration order.  This string — not the registry name — is what
 * the content address hashes, so editing any preset parameter
 * invalidates exactly the affected entries.  (checkLevel and
 * lossAccounting are included deliberately: both can perturb run
 * outcomes — an audit aborts a run, lossAccounting adds stats-JSON
 * fields.)
 */
std::string canonicalConfig(const uarch::CoreConfig &config);

/**
 * Fingerprint of the assembled program: code listing, data image,
 * memory geometry and entry point.
 */
uint64_t programFingerprint(const assembler::Program &prog);

/**
 * Derive the content address of one (program, config, selector) run.
 *
 * @param selector      selector registry name ("none" = baseline)
 * @param templateBudget MGT selection budget of the request
 * @param sim_version   defaults to the compiled-in kSimVersion;
 *                      overridable for tests and gc tooling
 */
StoreKey deriveKey(const assembler::Program &prog,
                   const uarch::CoreConfig &config,
                   const std::string &selector,
                   uint32_t templateBudget,
                   const std::string &sim_version = kSimVersion);

/** Aggregate store statistics (`mgsim cache stats`). */
struct StoreStats
{
    size_t entries = 0;        ///< valid-looking object files
    size_t quarantined = 0;    ///< files in quarantine/
    uint64_t objectBytes = 0;  ///< total size of object files
    /** Entry count per simulator version (header field). */
    std::map<std::string, size_t> byVersion;
};

/** One verify/lookup failure. */
struct BadEntry
{
    std::string file;   ///< path relative to the store root
    std::string reason; ///< short slug, e.g. "truncated", "payload-hash"
};

/** Result of a full-store verification walk. */
struct VerifyReport
{
    size_t checked = 0;
    std::vector<BadEntry> bad; ///< quarantined during the walk
    bool clean() const { return bad.empty(); }
};

/** Result of a garbage collection (`mgsim cache gc`). */
struct GcReport
{
    size_t staleRemoved = 0;      ///< entries of other sim versions
    size_t quarantineRemoved = 0; ///< quarantined files deleted
    uint64_t bytesReclaimed = 0;
};

class ResultStore
{
  public:
    ResultStore() = default;

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Open (creating directories as needed).
     * @return "" on success, else the error
     */
    std::string open(const std::string &root_dir);

    bool isOpen() const { return !root.empty(); }
    const std::string &rootDir() const { return root; }

    /**
     * Fetch the stats-JSON line stored under `key`, fully validating
     * the entry.  A missing file is a miss; an invalid file is
     * quarantined (moved aside, recorded, counted) and reported as a
     * miss — never served.
     */
    std::optional<std::string> lookup(const StoreKey &key);

    /** lookup() that also hands back the served line's parse. */
    std::optional<std::string> lookup(const StoreKey &key,
                                      trace::ParsedStats &parsed);

    /**
     * Store one completed run.  The write is atomic (staged in tmp/,
     * renamed into place), so a concurrent writer of the same key is
     * harmless: both stage identical bytes and the second rename
     * simply replaces the first.
     * @return "" on success, else the error
     */
    std::string insert(const StoreKey &key,
                       const std::string &stats_json_line);

    /** Validate every object entry, quarantining failures. */
    VerifyReport verify();

    /**
     * Remove quarantined files and entries whose header simulator
     * version differs from `keep_version` (they can never hit again
     * under the current binary).
     */
    GcReport gc(const std::string &keep_version = kSimVersion);

    /** Walk the store and tally (deterministic: sorted traversal). */
    StoreStats stats() const;

    // Session counters (this process, this store object).
    size_t hits() const { return nHits; }
    size_t misses() const { return nMisses; }
    size_t quarantines() const { return nQuarantined; }

    /** Entries quarantined by this store object (lookup + verify). */
    const std::vector<BadEntry> &quarantined() const
    {
        return quarantinedEntries;
    }

  private:
    std::string objectPath(const StoreKey &key) const;

    /**
     * Validate one entry file's bytes against its expected key.
     * @return "" if valid, else the failure reason slug
     */
    static std::string validateEntry(
        const std::string &content, const std::string &key_hex,
        std::string *stats_line_out, std::string *version_out,
        trace::ParsedStats *parsed_out = nullptr);

    /** Move a bad entry into quarantine/ and record it. */
    void quarantine(const std::string &path, const std::string &key_hex,
                    const std::string &reason);

    std::string root;
    size_t nHits = 0;
    size_t nMisses = 0;
    size_t nQuarantined = 0;
    std::vector<BadEntry> quarantinedEntries;
};

} // namespace mg::dse

#endif // MG_DSE_RESULT_STORE_H
