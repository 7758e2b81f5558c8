/**
 * @file
 * The pipeline-trace export formats: record invariants from a real
 * simulation, Konata and Chrome round-trip validation, the cycle
 * window, the RunRequest::trace file-writing path, and the negative
 * cases the validators must catch.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.h"
#include "sim/experiment.h"
#include "trace/chrome_trace.h"
#include "trace/konata.h"
#include "trace/stats_json.h"
#include "workloads/workload.h"

namespace mg::trace
{
namespace
{

/** Trace one full run of a small workload through the raw core. */
std::vector<InstRecord>
traceWorkload(const std::string &name, const TraceConfig &tc = {})
{
    auto spec = *workloads::findWorkload(name);
    auto prog = workloads::buildWorkload(spec).program;
    auto cfg = *uarch::configFromName("reduced");

    PipelineTracer tracer(tc);
    uarch::Core core(cfg, prog);
    core.setProfiler(&tracer);
    core.run();
    return tracer.records();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(PipelineTracer, RecordsObeyStageOrdering)
{
    auto recs = traceWorkload("crc32.0");
    ASSERT_FALSE(recs.empty());

    size_t committed = 0;
    for (const auto &r : recs) {
        if (!r.committed)
            continue;
        ++committed;
        EXPECT_LE(r.fetchCycle, r.dispatchCycle) << "seq " << r.seq;
        EXPECT_LE(r.dispatchCycle, r.issueCycle) << "seq " << r.seq;
        EXPECT_LE(r.issueCycle, r.completeCycle) << "seq " << r.seq;
        EXPECT_LE(r.completeCycle, r.commitCycle) << "seq " << r.seq;
        EXPECT_FALSE(r.squashed) << "seq " << r.seq;
        EXPECT_FALSE(r.disasm.empty()) << "seq " << r.seq;
    }
    EXPECT_GT(committed, 0u);

    // Committed seqs are unique (a flushed seq re-fetches as a new
    // record; only one of them can commit).
    std::set<uint64_t> seqs;
    for (const auto &r : recs) {
        if (r.committed) {
            EXPECT_TRUE(seqs.insert(r.seq).second)
                << "seq " << r.seq << " committed twice";
        }
    }
}

TEST(PipelineTracer, CycleWindowBoundsRecording)
{
    TraceConfig tc;
    tc.startCycle = 100;
    tc.endCycle = 300;
    auto recs = traceWorkload("crc32.0", tc);
    ASSERT_FALSE(recs.empty());
    for (const auto &r : recs) {
        EXPECT_GE(r.fetchCycle, tc.startCycle);
        EXPECT_LE(r.fetchCycle, tc.endCycle);
    }
}

TEST(KonataExport, RoundTripValidates)
{
    TraceConfig window;
    window.endCycle = 3000;
    auto recs = traceWorkload("bitcount.0", window);
    std::string log = konataToString(recs);
    EXPECT_EQ(validateKonata(log), "");
    EXPECT_NE(log.find("Kanata\t0004"), std::string::npos);
    EXPECT_NE(log.find("\nR\t"), std::string::npos) << "no retires";
}

TEST(KonataExport, ValidatorCatchesCorruption)
{
    EXPECT_NE(validateKonata(""), "");
    EXPECT_NE(validateKonata("Kanata\t0003\n"), "");
    // Stage command for an id never introduced.
    EXPECT_NE(
        validateKonata("Kanata\t0004\nC=\t0\nS\t7\t0\tF\n"), "");
    // Malformed retire type.
    EXPECT_NE(validateKonata("Kanata\t0004\nC=\t0\nI\t0\t0\t0\n"
                             "R\t0\t0\t9\n"),
              "");
    // Valid minimal log.
    EXPECT_EQ(validateKonata("Kanata\t0004\nC=\t5\nI\t0\t0\t0\n"
                             "L\t0\t0\tadd r1, r2, r3\nS\t0\t0\tF\n"
                             "C\t3\nR\t0\t0\t0\n"),
              "");
}

TEST(ChromeExport, RoundTripValidates)
{
    TraceConfig window;
    window.endCycle = 3000;
    auto recs = traceWorkload("bitcount.0", window);
    std::string json = chromeTraceToString(recs);
    EXPECT_EQ(json::validate(json), "");
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(StatsJson, SerializesAndValidates)
{
    auto spec = *workloads::findWorkload("crc32.0");
    sim::ProgramContext ctx(spec);
    auto run = ctx.run({.config = *uarch::configFromName("reduced"),
                        .selector = minigraph::SelectorKind::StructAll});
    ASSERT_TRUE(run.ok);

    StatsMeta meta;
    meta.workload = "crc32.0";
    meta.config = "reduced-3w";
    meta.selector = "struct-all";
    meta.templateNames = run.templateNames;
    meta.mgInstances = run.instances;
    meta.mgTemplatesUsed = run.templatesUsed;

    std::string json = statsJson(meta, run.sim);
    EXPECT_EQ(json::validate(json), "");
    EXPECT_EQ(json.find('\n'), std::string::npos) << "must be one line";
    EXPECT_NE(json.find("\"lossAccounting\":{"), std::string::npos);
    EXPECT_NE(json.find("\"mg-internal-serialization\""),
              std::string::npos);
    EXPECT_NE(json.find("\"mgTemplates\":[{"), std::string::npos);

    // Error form.
    std::string err = errorJson(meta, "boom \"quoted\"");
    EXPECT_EQ(json::validate(err), "");
    EXPECT_NE(err.find("\\\"quoted\\\""), std::string::npos);
}

TEST(RunRequestTrace, WritesValidArtefacts)
{
    std::string dir = ::testing::TempDir();
    std::string konata = dir + "/mg_export_test.kanata";
    std::string chrome = dir + "/mg_export_test.trace.json";

    auto spec = *workloads::findWorkload("crc32.0");
    sim::ProgramContext ctx(spec);
    sim::RunRequest req;
    req.config = *uarch::configFromName("reduced");
    req.selector = minigraph::SelectorKind::SlackProfile;
    req.trace = TraceConfig{0, 5000, konata, chrome};
    auto run = ctx.run(req);
    ASSERT_TRUE(run.ok) << run.error;

    std::string klog = slurp(konata);
    std::string cjson = slurp(chrome);
    ASSERT_FALSE(klog.empty());
    ASSERT_FALSE(cjson.empty());
    EXPECT_EQ(validateKonata(klog), "");
    EXPECT_EQ(json::validate(cjson), "");

    // Tracing must not perturb the simulation itself.
    auto plain = ctx.run({.config = req.config,
                          .selector = req.selector});
    EXPECT_EQ(plain.sim.cycles, run.sim.cycles);
    EXPECT_EQ(plain.sim.committedUnits, run.sim.committedUnits);

    std::remove(konata.c_str());
    std::remove(chrome.c_str());
}

} // namespace
} // namespace mg::trace
