/**
 * @file
 * The batch journal (sim/journal.h): run-key derivation, append/load
 * round trips, and corruption tolerance — a truncated final line or
 * garbage bytes must be detected and dropped so a resume continues
 * from the last valid entry (docs/ROBUSTNESS.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sim/experiment.h"
#include "sim/journal.h"
#include "trace/stats_json.h"

namespace mg::sim::journal
{
namespace
{

using minigraph::SelectorKind;

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "mg_journal_" + name + ".log";
}

/** A request for key-derivation tests. */
RunRequest
request(const std::string &workload, const std::string &config,
        std::optional<SelectorKind> sel = std::nullopt)
{
    RunRequest req;
    req.workload = *workloads::findWorkload(workload);
    req.config = *uarch::configFromName(config);
    req.selector = sel;
    return req;
}

/** One real run + its journal-ready stats line. */
std::pair<RunRequest, std::string>
realEntry()
{
    RunRequest req = request("crc32.0", "reduced",
                             SelectorKind::StructAll);
    ProgramContext ctx(req.workload);
    RunResult r = ctx.run(req);
    EXPECT_TRUE(r.ok);
    return {req, trace::statsJson(metaForRun(req, r), r.sim)};
}

/** A Fig-8 style request simulating an explicit chosen set. */
RunRequest
chosenRequest(const std::vector<std::pair<isa::Addr, uint8_t>> &sites)
{
    RunRequest req = request("crc32.0", "reduced");
    req.chosen.emplace();
    for (const auto &[pc, len] : sites) {
        minigraph::Candidate c;
        c.firstPc = pc;
        c.len = len;
        req.chosen->push_back(c);
    }
    return req;
}

TEST(JournalTest, RunKeyDistinguishesRequests)
{
    std::string base = runKey(request("crc32.0", "reduced"));
    EXPECT_NE(base, runKey(request("bitcount.0", "reduced")));
    EXPECT_NE(base, runKey(request("crc32.0", "full")));
    EXPECT_NE(base, runKey(request("crc32.0", "reduced",
                                   SelectorKind::StructAll)));

    RunRequest alt = request("crc32.0", "reduced");
    alt.altInput = true;
    EXPECT_NE(base, runKey(alt));

    RunRequest cross = request("crc32.0", "reduced",
                               SelectorKind::SlackProfile);
    RunRequest self = cross;
    cross.profileFromAltInput = true;
    EXPECT_NE(runKey(self), runKey(cross));

    RunRequest budget = request("crc32.0", "reduced");
    budget.templateBudget = 8;
    EXPECT_NE(base, runKey(budget));

    // Two different chosen sets of the same size.
    EXPECT_NE(runKey(chosenRequest({{0x40, 2}, {0x80, 3}})),
              runKey(chosenRequest({{0x40, 2}, {0x84, 3}})));
}

TEST(JournalTest, RunKeyIsFramingSafe)
{
    // Keys are the journal's first field (tab-delimited) and the
    // fault-spec match text (':' / '!' / '@' delimited): they must
    // never contain those characters.
    for (const auto &key :
         {runKey(request("crc32.0", "reduced")),
          runKey(request("gcc_like.2", "full",
                         SelectorKind::SlackProfile)),
          runKey(chosenRequest({{0x40, 2}, {0x80, 3}}))}) {
        EXPECT_EQ(key.find('\t'), std::string::npos) << key;
        EXPECT_EQ(key.find('\n'), std::string::npos) << key;
        EXPECT_EQ(key.find(':'), std::string::npos) << key;
        EXPECT_EQ(key.find('!'), std::string::npos) << key;
        EXPECT_EQ(key.find('@'), std::string::npos) << key;
    }
}

TEST(JournalTest, RunKeyFoldsInSimulatorVersion)
{
    // The simulator version is part of the run identity (the same
    // rule the DSE result store applies to its content addresses): a
    // journal written by an older timing model must never be replayed
    // as current results, because the stats line it stored can no
    // longer be reproduced by this binary.
    RunRequest req = request("crc32.0", "reduced");
    std::string current = runKey(req);
    EXPECT_NE(current.find("|sim=" + std::string(kSimVersion)),
              std::string::npos)
        << current;

    // A key derived under any other version cannot collide with the
    // current one, so stale entries are silently skipped on resume
    // (the run re-executes) instead of being served.
    std::string stale = runKey(req, "mg-sim-0");
    EXPECT_NE(current, stale);

    // Everything before the version suffix is unchanged, so bumping
    // kSimVersion invalidates journals without perturbing how the
    // rest of the identity is spelled.
    EXPECT_EQ(current.substr(0, current.rfind("|sim=")),
              stale.substr(0, stale.rfind("|sim=")));
}

TEST(JournalTest, StaleVersionJournalIsNotReplayed)
{
    // Simulate a journal left behind by an older simulator: the entry
    // is valid JSON under a stale-version key.  A resume under the
    // current version derives a different key, so the runner re-runs
    // the job instead of replaying the stale line.
    auto [req, line] = realEntry();
    const std::string path = tmpPath("stale_version");
    {
        Writer w;
        ASSERT_EQ(w.open(path), "");
        w.append(runKey(req, "mg-sim-0"), line);
    }
    LoadResult loaded = load(path);
    EXPECT_EQ(loaded.dropped, 0u);
    ASSERT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.entries.count(runKey(req)), 0u)
        << "stale-version journal entry must not match a current key";
    std::remove(path.c_str());
}

TEST(JournalTest, AppendLoadRoundTrip)
{
    auto [req, line] = realEntry();
    std::string path = tmpPath("roundtrip");
    std::remove(path.c_str());

    Writer w;
    ASSERT_EQ(w.open(path), "");
    ASSERT_TRUE(w.isOpen());
    w.append(runKey(req), line);
    w.append("other|key", line);

    LoadResult loaded = load(path);
    EXPECT_TRUE(loaded.existed);
    EXPECT_EQ(loaded.dropped, 0u);
    ASSERT_EQ(loaded.entries.size(), 2u);
    EXPECT_EQ(loaded.entries[runKey(req)], line);
    std::remove(path.c_str());
}

TEST(JournalTest, MissingFileIsEmptyNotError)
{
    LoadResult loaded = load(tmpPath("does_not_exist"));
    EXPECT_FALSE(loaded.existed);
    EXPECT_EQ(loaded.entries.size(), 0u);
    EXPECT_EQ(loaded.dropped, 0u);
}

TEST(JournalTest, DuplicateKeyLastWins)
{
    auto [req, line] = realEntry();
    std::string path = tmpPath("dup");
    std::remove(path.c_str());
    {
        Writer w;
        ASSERT_EQ(w.open(path), "");
        w.append("k", line);
        w.append("k", line); // re-run of the same job
    }
    LoadResult loaded = load(path);
    EXPECT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.dropped, 0u);
    EXPECT_EQ(loaded.entries["k"], line);
    std::remove(path.c_str());
}

TEST(JournalTest, TruncatedFinalLineIsDropped)
{
    auto [req, line] = realEntry();
    std::string path = tmpPath("trunc");
    std::remove(path.c_str());
    {
        std::ofstream out(path, std::ios::binary);
        out << "good\t" << line << "\n";
        // A batch process SIGKILLed mid-write leaves a partial line
        // with no trailing newline.
        out << "half\t" << line.substr(0, line.size() / 2);
    }
    LoadResult loaded = load(path);
    EXPECT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.dropped, 1u);
    EXPECT_NE(loaded.warning.find("truncated"), std::string::npos)
        << loaded.warning;
    EXPECT_EQ(loaded.entries.count("good"), 1u);
    std::remove(path.c_str());
}

TEST(JournalTest, GarbageBytesAreDroppedOthersSurvive)
{
    auto [req, line] = realEntry();
    std::string path = tmpPath("garbage");
    std::remove(path.c_str());
    {
        std::ofstream out(path, std::ios::binary);
        out << "a\t" << line << "\n";
        out << "\x01\x02\xff binary garbage, no tab\n";
        out << "b\tnot a stats json line\n";
        out << "c\t" << line << "\n";
        out << "d\t" << std::string(200000, '[') << "\n"; // stack bomb
    }
    LoadResult loaded = load(path);
    EXPECT_EQ(loaded.entries.size(), 2u);
    EXPECT_EQ(loaded.dropped, 3u);
    EXPECT_FALSE(loaded.warning.empty());
    EXPECT_EQ(loaded.entries.count("a"), 1u);
    EXPECT_EQ(loaded.entries.count("c"), 1u);
    std::remove(path.c_str());
}

TEST(JournalTest, AppendIsDurableBeforeReturning)
{
    // append() fsyncs each entry: an observer reading the file after
    // append() returns — with the writer still open, as a resuming
    // process after a SIGKILL effectively is — must see the entry.
    auto [req, line] = realEntry();
    std::string path = tmpPath("durable");
    std::remove(path.c_str());

    Writer w;
    ASSERT_EQ(w.open(path), "");
    w.append(runKey(req), line);
    // No close, no flush by the test: append alone must suffice.
    LoadResult loaded = load(path);
    ASSERT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.dropped, 0u);
    EXPECT_EQ(loaded.entries[runKey(req)], line);
    std::remove(path.c_str());
}

TEST(JournalTest, TornTailFollowedByValidLineDropsBoth)
{
    // The failure mode per-entry fsync exists to rule out: a torn
    // entry with bytes of a *later* complete entry after it.  Ordered
    // durable appends make this impossible in a real journal (a torn
    // entry can only be the final line), but the loader must still
    // handle the bytes defensively: the torn fragment glues onto the
    // next line, the garbled result is dropped, and no entry is
    // misattributed — earlier and later well-formed lines survive.
    auto [req, line] = realEntry();
    std::string path = tmpPath("torn_then_valid");
    std::remove(path.c_str());
    {
        std::ofstream out(path, std::ios::binary);
        out << "a\t" << line << "\n";
        out << "torn\t" << line.substr(0, line.size() / 2); // no '\n'
        out << "b\t" << line << "\n"; // glued onto the torn fragment
        out << "c\t" << line << "\n";
    }
    LoadResult loaded = load(path);
    EXPECT_EQ(loaded.entries.size(), 2u);
    EXPECT_EQ(loaded.dropped, 1u);
    EXPECT_EQ(loaded.entries.count("a"), 1u);
    EXPECT_EQ(loaded.entries.count("torn"), 0u)
        << "a torn entry must never be replayed";
    EXPECT_EQ(loaded.entries.count("b"), 0u)
        << "an entry glued onto a torn tail must never be replayed";
    EXPECT_EQ(loaded.entries.count("c"), 1u);
    EXPECT_FALSE(loaded.warning.empty());
    std::remove(path.c_str());
}

TEST(JournalTest, ErrorRecordsAreNotReplayable)
{
    // Only successful runs may be replayed: an error record in the
    // journal (hand-written or from an older format) must be skipped
    // so the run re-executes on resume.
    trace::StatsMeta meta;
    meta.workload = "w";
    meta.config = "c";
    meta.selector = "none";
    std::string err_line = trace::errorJson(meta, "boom");

    std::string path = tmpPath("errors");
    std::remove(path.c_str());
    {
        std::ofstream out(path, std::ios::binary);
        out << "e\t" << err_line << "\n";
    }
    LoadResult loaded = load(path);
    EXPECT_EQ(loaded.entries.size(), 0u);
    EXPECT_EQ(loaded.dropped, 1u);
    std::remove(path.c_str());
}

} // namespace
} // namespace mg::sim::journal
