/**
 * @file
 * The candidate-level static serialization adapter: predicted
 * buckets, the Slack-Static keep rule, and the deterministic
 * `mgsim analyze` report.
 */

#include "minigraph/static_rank.h"

#include <gtest/gtest.h>

#include <optional>

#include "assembler/assembler.h"
#include "minigraph/candidate.h"

namespace mg::minigraph
{
namespace
{

using analysis::ProgramAnalysis;
using analysis::StaticSerialBounds;
using assembler::Program;

/** Find the unique candidate starting at `first_pc` with `len`. */
std::optional<Candidate>
candidateAt(const Program &prog, const ProgramAnalysis &pa,
            isa::Addr first_pc, uint8_t len)
{
    for (const Candidate &c :
         enumerateCandidates(prog, pa.cfg(), pa.liveness())) {
        if (c.firstPc == first_pc && c.len == len)
            return c;
    }
    return std::nullopt;
}

TEST(StaticRank, NonSerializingCandidateIsAlwaysKept)
{
    // add(r1,r2) -> addi chained: externals only feed the first op.
    Program p = assembler::assemble("li r1, 1\n"
                                    "li r2, 2\n"
                                    "add r3, r1, r2\n"
                                    "addi r3, r3, 5\n"
                                    "sw r3, 0(r1)\n"
                                    "halt\n");
    ProgramAnalysis pa(p);
    auto cand = candidateAt(p, pa, 2, 2);
    ASSERT_TRUE(cand.has_value());

    StaticSerialBounds b = staticBoundsFor(*cand, pa);
    EXPECT_FALSE(b.hasSerializingInput);
    EXPECT_EQ(b.serializingHeight, 0u);
    EXPECT_EQ(b.baseHeight, 1u); // both externals are li results
    EXPECT_EQ(b.externalDelayBound(), 0u);
    EXPECT_EQ(predictedSerial(b), PredictedSerial::NonSerializing);
    EXPECT_TRUE(slackStaticKeep(*cand, pa));
}

TEST(StaticRank, BoundedKeepComparesDelayAgainstCriticalPath)
{
    // The serializing input r9 feeds the second add.  Fed by a li
    // (height 1) the extra arrival delay is within the template's
    // 2-cycle critical path and the candidate is kept...
    Program shallow = assembler::assemble("li r9, 7\n"
                                          "add r3, r1, r2\n"
                                          "add r4, r3, r9\n"
                                          "sw r4, 0(r1)\n"
                                          "halt\n");
    ProgramAnalysis paS(shallow);
    auto cs = candidateAt(shallow, paS, 1, 2);
    ASSERT_TRUE(cs.has_value());
    StaticSerialBounds bs = staticBoundsFor(*cs, paS);
    EXPECT_TRUE(bs.hasSerializingInput);
    EXPECT_FALSE(bs.saturated);
    EXPECT_FALSE(bs.recurrent);
    EXPECT_EQ(bs.serializingHeight, 1u);
    EXPECT_EQ(bs.baseHeight, 0u); // r1/r2 carry initial state
    EXPECT_EQ(predictedSerial(bs), PredictedSerial::Bounded);
    ASSERT_EQ(cs->tmpl.criticalLatency(), 2u);
    EXPECT_TRUE(slackStaticKeep(*cs, paS));

    // ...fed by a 3-cycle load the delay exceeds the critical path
    // and the same shape is rejected.
    Program deep = assembler::assemble("lw r9, 0(r8)\n"
                                       "add r3, r1, r2\n"
                                       "add r4, r3, r9\n"
                                       "sw r4, 0(r1)\n"
                                       "halt\n");
    ProgramAnalysis paD(deep);
    auto cd = candidateAt(deep, paD, 1, 2);
    ASSERT_TRUE(cd.has_value());
    StaticSerialBounds bd = staticBoundsFor(*cd, paD);
    EXPECT_EQ(bd.serializingHeight, 3u);
    EXPECT_EQ(bd.externalDelayBound(), 3u);
    EXPECT_EQ(predictedSerial(bd), PredictedSerial::Bounded);
    EXPECT_FALSE(slackStaticKeep(*cd, paD));
}

TEST(StaticRank, LoopRecurrenceIsUnboundedAndRejected)
{
    // The candidate's own output r1 feeds its serializing input
    // around the loop back edge: the aggregate serializes on itself.
    Program p = assembler::assemble("      li r1, 0\n"
                                    "      li r2, 8\n"
                                    "loop: add r3, r1, r0\n"
                                    "      add r1, r3, r1\n"
                                    "      bne r1, r2, loop\n"
                                    "      halt\n");
    ProgramAnalysis pa(p);
    auto cand = candidateAt(p, pa, 2, 2);
    ASSERT_TRUE(cand.has_value());
    ASSERT_EQ(cand->outputReg, 1);

    StaticSerialBounds b = staticBoundsFor(*cand, pa);
    EXPECT_TRUE(b.hasSerializingInput);
    EXPECT_TRUE(b.recurrent);
    EXPECT_TRUE(b.saturated);
    EXPECT_EQ(predictedSerial(b), PredictedSerial::Unbounded);
    EXPECT_FALSE(slackStaticKeep(*cand, pa));
    // Static frequency of the loop body backs the ranking.
    EXPECT_EQ(b.frequency, 8u);
}

TEST(StaticRank, AnalyzeReportIsConsistentAndDeterministic)
{
    Program p = assembler::assemble("      li r1, 0\n"
                                    "      li r2, 8\n"
                                    "loop: add r3, r1, r0\n"
                                    "      add r1, r3, r1\n"
                                    "      bne r1, r2, loop\n"
                                    "      halt\n");
    p.name = "unit";
    AnalyzeReport r = analyzeProgram(p);
    EXPECT_EQ(r.program, "unit");
    EXPECT_EQ(r.instructions, 6u);
    EXPECT_EQ(r.loops, 1u);
    // The add-based step is not the addi counted-loop pattern, so the
    // trip count stays at the default estimate (which is also 8).
    EXPECT_EQ(r.exactTripCounts, 0u);
    EXPECT_EQ(r.maxLoopDepth, 1u);
    EXPECT_EQ(r.maxBlockFrequency, analysis::kDefaultTripCount);
    EXPECT_TRUE(r.saturated);
    // The buckets partition the candidate pool.
    EXPECT_EQ(r.predNonSerializing + r.predBounded + r.predUnbounded,
              r.candidates);
    EXPECT_EQ(r.structNonSerializing + r.structBounded +
                  r.structUnbounded,
              r.candidates);
    EXPECT_LE(r.slackStaticKept, r.candidates);

    // Rendering is deterministic and keeps the fixed key order.
    std::string json = analyzeReportJson(r);
    EXPECT_EQ(json, analyzeReportJson(analyzeProgram(p)));
    EXPECT_EQ(json.find("{\"program\":\"unit\",\"instructions\":6,"),
              0u);
    EXPECT_NE(json.find("\"slack_static_kept\":"), std::string::npos);
    EXPECT_EQ(json.back(), '}');
}

TEST(StaticRank, JsonEscapesQuotesAndControlChars)
{
    AnalyzeReport r;
    r.program = "we\"ird\\na\tme\x01";
    std::string json = analyzeReportJson(r);
    EXPECT_NE(json.find("we\\\"ird\\\\na\\tme\\u0001"),
              std::string::npos);
}

} // namespace
} // namespace mg::minigraph
