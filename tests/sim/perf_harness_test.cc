/**
 * @file
 * Perf-harness tests (docs/PERF.md).
 *
 * Determinism: two harness executions must produce bit-identical
 * simulated-cycle counts and stats-JSON lines; only wall-time and RSS
 * may differ.  Schema: the BENCH_*.json emitter and parser round-trip
 * every deterministic field.
 */

#include <gtest/gtest.h>

#include "sim/perf_harness.h"

namespace mg::sim
{
namespace
{

TEST(PerfSubsets, PinnedIsDotZeroKernelsTimesFivePolicies)
{
    auto cells = perfPinnedCells();
    ASSERT_FALSE(cells.empty());
    EXPECT_EQ(cells.size() % 5, 0u);
    for (const auto &c : cells) {
        EXPECT_EQ(c.config, "reduced");
        EXPECT_TRUE(c.workload.size() > 2 &&
                    c.workload.substr(c.workload.size() - 2) == ".0")
            << c.workload;
    }
    // Workload-major order: each workload's five policies are
    // contiguous and start with the no-mini-graph baseline.
    for (size_t i = 0; i + 4 < cells.size(); i += 5) {
        EXPECT_EQ(cells[i].selector, "none");
        for (size_t k = 1; k < 5; ++k)
            EXPECT_EQ(cells[i + k].workload, cells[i].workload);
    }
}

TEST(PerfSubsets, SmokeIsSubsetOfPinned)
{
    auto smoke = perfSmokeCells();
    auto pinned = perfPinnedCells();
    ASSERT_EQ(smoke.size(), 15u);
    for (const auto &s : smoke) {
        bool found = false;
        for (const auto &p : pinned) {
            if (p.workload == s.workload && p.config == s.config &&
                p.selector == s.selector)
                found = true;
        }
        EXPECT_TRUE(found) << s.workload << "/" << s.selector;
    }
}

TEST(PerfSubsets, UnknownNameIsAnError)
{
    std::string err;
    auto cells = perfCellsForSubset("bogus", err);
    EXPECT_TRUE(cells.empty());
    EXPECT_FALSE(err.empty());
    err.clear();
    cells = perfCellsForSubset("smoke", err);
    EXPECT_EQ(cells.size(), 15u);
    EXPECT_TRUE(err.empty()) << err;
}

TEST(PerfDeterminism, TwoRunsBitIdenticalModuloWallTime)
{
    auto cells = perfSmokeCells();
    PerfReport a = runPerf(cells, 1, 6, "smoke");
    PerfReport b = runPerf(cells, 1, 6, "smoke");

    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());
    ASSERT_EQ(a.runs.size(), b.runs.size());
    EXPECT_EQ(a.totalSimCycles, b.totalSimCycles);
    for (size_t i = 0; i < a.runs.size(); ++i) {
        const PerfRun &ra = a.runs[i];
        const PerfRun &rb = b.runs[i];
        EXPECT_EQ(ra.cell.workload, rb.cell.workload);
        EXPECT_EQ(ra.cell.selector, rb.cell.selector);
        // Deterministic fields: exact.
        EXPECT_EQ(ra.simCycles, rb.simCycles) << ra.cell.workload;
        EXPECT_EQ(ra.statsJsonLine, rb.statsJsonLine)
            << ra.cell.workload << "/" << ra.cell.selector;
        EXPECT_EQ(ra.statsHash, rb.statsHash);
        // And the hash really is the hash of the line.
        EXPECT_EQ(ra.statsHash, fnv1a64(ra.statsJsonLine));
    }
}

TEST(PerfBenchJson, RoundTripPreservesDeterministicFields)
{
    auto cells = perfSmokeCells();
    PerfReport rep = runPerf(cells, 1, 6, "smoke");
    PerfBaseline base;
    base.label = "pre-optimization";
    base.batchWallSec = 12.5;
    base.totalSimCycles = 42;
    base.simCyclesPerSec = 3.36;
    base.peakRssKb = 1234;
    rep.baseline = base;

    std::string doc = benchJson(rep);
    PerfReport back;
    std::string err = parseBenchJson(doc, back);
    ASSERT_TRUE(err.empty()) << err;

    EXPECT_EQ(back.pr, rep.pr);
    EXPECT_EQ(back.subset, rep.subset);
    EXPECT_EQ(back.jobs, rep.jobs);
    EXPECT_EQ(back.totalSimCycles, rep.totalSimCycles);
    EXPECT_EQ(back.peakRssKb, rep.peakRssKb);
    ASSERT_EQ(back.runs.size(), rep.runs.size());
    for (size_t i = 0; i < rep.runs.size(); ++i) {
        EXPECT_EQ(back.runs[i].cell.workload, rep.runs[i].cell.workload);
        EXPECT_EQ(back.runs[i].cell.config, rep.runs[i].cell.config);
        EXPECT_EQ(back.runs[i].cell.selector, rep.runs[i].cell.selector);
        EXPECT_EQ(back.runs[i].ok, rep.runs[i].ok);
        EXPECT_EQ(back.runs[i].simCycles, rep.runs[i].simCycles);
        EXPECT_EQ(back.runs[i].statsHash, rep.runs[i].statsHash);
    }
    ASSERT_TRUE(back.baseline.has_value());
    EXPECT_EQ(back.baseline->label, "pre-optimization");
    EXPECT_EQ(back.baseline->totalSimCycles, 42u);
    EXPECT_EQ(back.baseline->peakRssKb, 1234);
    EXPECT_NEAR(back.baseline->batchWallSec, 12.5, 1e-9);
    EXPECT_GT(back.speedup(), 0.0);

    // A second serialization of the parsed report differs only in
    // what was never stored (in-memory stats lines).
    PerfReport again;
    ASSERT_TRUE(parseBenchJson(benchJson(back), again).empty());
    EXPECT_EQ(again.totalSimCycles, rep.totalSimCycles);
}

TEST(PerfBenchJson, ParserRejectsGarbage)
{
    PerfReport out;
    EXPECT_FALSE(parseBenchJson("", out).empty());
    EXPECT_FALSE(parseBenchJson("{}", out).empty());
    EXPECT_FALSE(
        parseBenchJson("{\"schema\": \"mg-bench-v0\"}", out).empty());

    // A well-formed document, then the corruptions an earlier reader
    // let through: trailing text, and a hash that is not 16 hex
    // digits (it read "zz..." as 0).
    PerfReport rep;
    rep.pr = 6;
    rep.subset = "pinned";
    PerfRun run;
    run.cell = {"crc32.0", "reduced", "none"};
    run.ok = true;
    run.statsHash = 0x94a80c99f921d7fdull;
    rep.runs.push_back(run);
    const std::string doc = benchJson(rep);
    ASSERT_EQ(parseBenchJson(doc, out), "");
    EXPECT_EQ(out.runs.at(0).statsHash, 0x94a80c99f921d7fdull);
    EXPECT_FALSE(parseBenchJson(doc + "}\n", out).empty());
    const size_t hash = doc.find("94a80c99f921d7fd");
    for (const char *bad : {"zz", "-1", ""}) {
        std::string corrupt = doc;
        corrupt.replace(hash, 2, bad);
        EXPECT_FALSE(parseBenchJson(corrupt, out).empty()) << bad;
    }
}

TEST(PerfFnv, KnownVectors)
{
    // FNV-1a 64 reference values.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

} // namespace
} // namespace mg::sim
