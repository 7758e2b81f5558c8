/**
 * @file
 * The robustness layer (docs/ROBUSTNESS.md): the fork-per-run sandbox
 * (sim/supervisor.h), the MG_FAULTS injection harness (sim/fault.h),
 * the retry/backoff policy, and journal-based resume.  The fault
 * matrix drives every failure kind — crash, hang, oom, corrupt —
 * through a batch and asserts the batch completes around it with the
 * right structured error.
 *
 * Process-fork tests live here (and not in runner_test.cc) so the
 * thread-sanitizer CI job, which filters on "Runner", skips them:
 * fork from a TSan-instrumented multi-threaded test is unsupported.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>

#include "sim/runner.h"
#include "sim/supervisor.h"
#include "trace/stats_json.h"
#include "trace/stats_parse.h"

namespace mg::sim
{
namespace
{

using minigraph::SelectorKind;

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

/** crc32 on reduced (the fault target), crc32 on full, bitcount. */
std::vector<RunRequest>
threeJobBatch()
{
    return {request("crc32.0", "reduced", SelectorKind::StructAll),
            request("crc32.0", "full"),
            request("bitcount.0", "reduced")};
}

FaultSpec
spec(const std::string &text)
{
    std::string err;
    auto parsed = parseFaultSpec(text, err);
    EXPECT_TRUE(parsed) << err;
    return *parsed;
}

// ---------------------------------------------------------------
// Fault-spec parsing
// ---------------------------------------------------------------

TEST(FaultSpecTest, ParsesFullSyntax)
{
    FaultSpec s = spec("corrupt@5000:crc32!2");
    EXPECT_EQ(s.kind, FaultKind::Corrupt);
    EXPECT_EQ(s.cycle, 5000u);
    EXPECT_EQ(s.match, "crc32");
    EXPECT_EQ(s.firstAttempts, 2u);
}

TEST(FaultSpecTest, DefaultsAreEveryRunEveryAttemptCycleOne)
{
    FaultSpec s = spec("crash");
    EXPECT_EQ(s.kind, FaultKind::Crash);
    EXPECT_EQ(s.cycle, 1u);
    EXPECT_EQ(s.match, "");
    EXPECT_EQ(s.firstAttempts, ~0u);
    EXPECT_TRUE(s.appliesTo("any|key", 0));
    EXPECT_TRUE(s.appliesTo("any|key", 99));
}

TEST(FaultSpecTest, RejectsMalformedSpecs)
{
    std::string err;
    EXPECT_FALSE(parseFaultSpec("", err));
    EXPECT_FALSE(parseFaultSpec("explode", err));
    EXPECT_FALSE(parseFaultSpec("crash@zero", err));
    EXPECT_FALSE(parseFaultSpec("crash!x", err));
    EXPECT_FALSE(parseFaultSpec("crash@", err));
}

TEST(FaultSpecTest, AppliesToMatchesKeySubstringAndAttempt)
{
    FaultSpec s = spec("oom@10:crc32!1");
    EXPECT_TRUE(s.appliesTo("crc32.0|reduced-3w|none|budget=512", 0));
    EXPECT_FALSE(s.appliesTo("bitcount.0|reduced-3w|none|budget=512", 0));
    // !1 = first attempt only; the retry runs clean.
    EXPECT_FALSE(s.appliesTo("crc32.0|reduced-3w|none|budget=512", 1));
}

// ---------------------------------------------------------------
// The sandbox itself
// ---------------------------------------------------------------

TEST(SupervisorTest, IsolatedRunMatchesInProcess)
{
    RunRequest req = request("crc32.0", "reduced",
                             SelectorKind::StructAll);
    ProgramContext ctx(req.workload);
    RunResult direct = ctx.run(req);
    ASSERT_TRUE(direct.ok);

    RunResult sandboxed = runIsolated(req, {});
    ASSERT_TRUE(sandboxed.ok) << sandboxed.error;
    EXPECT_EQ(sandboxed.sim.cycles, direct.sim.cycles);
    EXPECT_EQ(sandboxed.sim.originalInsts, direct.sim.originalInsts);
    EXPECT_EQ(sandboxed.templatesUsed, direct.templatesUsed);
    EXPECT_EQ(sandboxed.instances, direct.instances);
    EXPECT_EQ(sandboxed.templateNames, direct.templateNames);

    // The wire format is the stats JSON: the child's marshalled line
    // must byte-match an in-process serialization.
    EXPECT_EQ(sandboxed.statsJsonLine,
              trace::statsJson(metaForRun(req, direct), direct.sim));
}

TEST(SupervisorTest, CrashBecomesStructuredError)
{
    RunRequest req = request("crc32.0", "reduced");
    req.auditHook = makeFaultHook(spec("crash@40"));
    RunResult r = runIsolated(req, {});
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.err.cls, ErrorClass::Crash);
    EXPECT_EQ(r.err.signal, SIGABRT);
    EXPECT_EQ(r.err.lastCycle, 40u);
    EXPECT_NE(r.error.find("signal"), std::string::npos) << r.error;
}

TEST(SupervisorTest, HangIsKilledByWatchdog)
{
    RunRequest req = request("crc32.0", "reduced");
    req.auditHook = makeFaultHook(spec("hang@40"));
    SupervisorOptions opts;
    opts.timeoutSec = 1.5;
    RunResult r = runIsolated(req, opts);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.err.cls, ErrorClass::Timeout);
    EXPECT_NE(r.error.find("timeout"), std::string::npos) << r.error;
}

TEST(SupervisorTest, OomBecomesStructuredError)
{
    RunRequest req = request("crc32.0", "reduced");
    req.auditHook = makeFaultHook(spec("oom@40"));
    RunResult r = runIsolated(req, {});
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.err.cls, ErrorClass::Oom);
}

TEST(SupervisorTest, CorruptBecomesCheckError)
{
    RunRequest req = request("crc32.0", "reduced");
    req.auditHook = makeFaultHook(spec("corrupt@40"));
    RunResult r = runIsolated(req, {});
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.err.cls, ErrorClass::Check);
    EXPECT_NE(r.error.find("injected"), std::string::npos) << r.error;
}

TEST(SupervisorTest, ChildStderrIsCapturedInTail)
{
    RunRequest req = request("crc32.0", "reduced");
    req.auditHook = [](uarch::Core &) {
        static bool once = false;
        if (!once) {
            once = true;
            std::fprintf(stderr, "marker-from-the-child\n");
            std::abort();
        }
    };
    RunResult r = runIsolated(req, {});
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.err.stderrTail.find("marker-from-the-child"),
              std::string::npos)
        << r.err.stderrTail;
}

TEST(SupervisorTest, UnboundedStderrSpewIsTrimmedToTail)
{
    // A worker that floods stderr must never grow the parent's
    // capture buffer past the configured cap: the tail is trimmed per
    // read, and a truncation marker makes the cut explicit.
    RunRequest req = request("crc32.0", "reduced");
    req.auditHook = [](uarch::Core &) {
        static bool once = false;
        if (!once) {
            once = true;
            // ~4MB of stderr, three orders of magnitude over the cap.
            for (int i = 0; i < 65536; ++i)
                std::fprintf(stderr,
                             "spew line %06d padding-padding-padding-"
                             "padding-padding\n",
                             i);
            std::fprintf(stderr, "final-marker-after-the-flood\n");
            std::abort();
        }
    };
    SupervisorOptions opts;
    opts.stderrTailBytes = 4096;
    RunResult r = runIsolated(req, opts);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.err.cls, ErrorClass::Crash);

    // Tail = cap + the explicit truncation marker line, nothing more.
    EXPECT_LE(r.err.stderrTail.size(), 4096u + 128u)
        << "tail size " << r.err.stderrTail.size();
    EXPECT_EQ(r.err.stderrTail.find("[stderr tail: last "), 0u)
        << r.err.stderrTail.substr(0, 120);
    // The *end* of the spew is what survives.
    EXPECT_NE(r.err.stderrTail.find("final-marker-after-the-flood"),
              std::string::npos);
    EXPECT_EQ(r.err.stderrTail.find("spew line 000000"),
              std::string::npos)
        << "the head of the flood should have been trimmed away";
}

TEST(SupervisorTest, SmallStderrHasNoTruncationMarker)
{
    RunRequest req = request("crc32.0", "reduced");
    req.auditHook = [](uarch::Core &) {
        static bool once = false;
        if (!once) {
            once = true;
            std::fprintf(stderr, "tiny\n");
            std::abort();
        }
    };
    RunResult r = runIsolated(req, {});
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.err.stderrTail.find("tiny"), std::string::npos);
    EXPECT_EQ(r.err.stderrTail.find("[stderr tail:"),
              std::string::npos)
        << "unclipped output must not claim truncation";
}

// ---------------------------------------------------------------
// The fault matrix through a full batch
// ---------------------------------------------------------------

struct MatrixCase
{
    const char *fault;
    ErrorClass expect;
    double timeoutSec;
};

// The default printer dumps the object's bytes, among them the
// address of `fault` and the padding, which would put a different
// test name in the ctest listing on every build.
void PrintTo(const MatrixCase &c, std::ostream *os)
{
    std::string fault = c.fault;
    *os << fault.substr(0, fault.find('@')) << " expects "
        << errorClassName(c.expect);
}

class FaultMatrixTest : public ::testing::TestWithParam<MatrixCase>
{
};

TEST_P(FaultMatrixTest, BatchCompletesAroundTheFault)
{
    const MatrixCase &c = GetParam();
    Runner::Options opts;
    opts.jobs = 2;
    opts.isolate = true;
    opts.timeoutSec = c.timeoutSec;
    opts.fault = spec(c.fault);
    Runner runner(opts);

    auto results = runner.run(threeJobBatch(), "matrix");
    ASSERT_EQ(results.size(), 3u);

    // The fault matches only the crc32-on-reduced key; the other two
    // runs complete normally.
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].err.cls, c.expect)
        << errorClassName(results[0].err.cls) << ": "
        << results[0].error;
    EXPECT_EQ(results[0].err.attempts, 1u);
    EXPECT_TRUE(results[1].ok) << results[1].error;
    EXPECT_TRUE(results[2].ok) << results[2].error;

    BatchSummary sum = summarize(results);
    EXPECT_EQ(sum.total, 3u);
    EXPECT_EQ(sum.ok, 2u);
    EXPECT_EQ(sum.failed, 1u);
    EXPECT_EQ(sum.timedOut, c.expect == ErrorClass::Timeout ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FaultMatrixTest,
    ::testing::Values(
        MatrixCase{"crash@40:crc32.0|reduced", ErrorClass::Crash, 0},
        MatrixCase{"hang@40:crc32.0|reduced", ErrorClass::Timeout, 1.5},
        MatrixCase{"oom@40:crc32.0|reduced", ErrorClass::Oom, 0},
        MatrixCase{"corrupt@40:crc32.0|reduced", ErrorClass::Check, 0}),
    [](const ::testing::TestParamInfo<MatrixCase> &param_info) {
        std::string name = param_info.param.fault;
        return name.substr(0, name.find('@'));
    });

// ---------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------

TEST(RetryTest, TransientFailureIsRetriedWithBackoff)
{
    Runner::Options opts;
    opts.jobs = 1;
    opts.isolate = true;
    opts.retries = 2;
    opts.backoffSec = 0.01;
    opts.fault = spec("crash@40:crc32.0|reduced!1"); // first attempt only
    Runner runner(opts);

    auto results = runner.run(threeJobBatch(), "retry");
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].err.attempts, 2u);
    EXPECT_NEAR(results[0].err.backoffSec, 0.01, 1e-12);
    EXPECT_EQ(results[1].err.attempts, 1u);
    EXPECT_EQ(summarize(results).retried, 1u);
}

TEST(RetryTest, RetryCapIsRespectedAndBackoffDoubles)
{
    Runner::Options opts;
    opts.jobs = 1;
    opts.isolate = true;
    opts.retries = 2;
    opts.backoffSec = 0.01;
    opts.fault = spec("crash@40:crc32.0|reduced"); // every attempt
    Runner runner(opts);

    auto results = runner.run(threeJobBatch(), "retry-cap");
    ASSERT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].err.cls, ErrorClass::Crash);
    EXPECT_EQ(results[0].err.attempts, 3u); // 1 + 2 retries
    EXPECT_NEAR(results[0].err.backoffSec, 0.01 + 0.02, 1e-12);
}

TEST(RetryTest, PermanentFailureIsNotRetried)
{
    Runner::Options opts;
    opts.jobs = 1;
    opts.isolate = true;
    opts.retries = 3;
    opts.fault = spec("corrupt@40:crc32.0|reduced");
    Runner runner(opts);

    auto results = runner.run(threeJobBatch(), "no-retry");
    ASSERT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].err.cls, ErrorClass::Check);
    EXPECT_EQ(results[0].err.attempts, 1u);
    EXPECT_EQ(results[0].err.backoffSec, 0.0);
}

// ---------------------------------------------------------------
// In-process degradation (no sandbox): satellite for the worker
// wrapping — a throwing job must become a RunError, not terminate.
// ---------------------------------------------------------------

TEST(DegradeTest, InProcessOomBecomesError)
{
    Runner::Options opts;
    opts.jobs = 2; // through the worker pool
    opts.fault = spec("oom@40:crc32.0|reduced");
    Runner runner(opts);
    auto results = runner.run(threeJobBatch(), "inproc-oom");
    ASSERT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].err.cls, ErrorClass::Oom);
    EXPECT_TRUE(results[1].ok);
    EXPECT_TRUE(results[2].ok);
}

TEST(DegradeTest, InProcessCorruptBecomesCheckError)
{
    Runner::Options opts;
    opts.jobs = 1;
    opts.fault = spec("corrupt@40:crc32.0|reduced");
    Runner runner(opts);
    auto results = runner.run(threeJobBatch(), "inproc-corrupt");
    ASSERT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].err.cls, ErrorClass::Check);
    EXPECT_TRUE(results[1].ok);
    EXPECT_TRUE(results[2].ok);
}

// ---------------------------------------------------------------
// Journal + resume
// ---------------------------------------------------------------

TEST(ResumeTest, ResumeRerunsExactlyTheMissingRuns)
{
    std::string path =
        ::testing::TempDir() + "mg_resume_test_journal.log";
    std::remove(path.c_str());

    // First batch: one run crashes, the other two land in the journal.
    {
        Runner::Options opts;
        opts.jobs = 2;
        opts.isolate = true;
        opts.journalPath = path;
        opts.fault = spec("crash@40:crc32.0|reduced");
        Runner runner(opts);
        auto results = runner.run(threeJobBatch(), "first");
        EXPECT_FALSE(results[0].ok);
        EXPECT_TRUE(results[1].ok);
        EXPECT_TRUE(results[2].ok);
    }

    // Resume without the fault: the completed runs replay from the
    // journal (fromJournal), only the failed one re-executes.
    Runner::Options opts;
    opts.jobs = 2;
    opts.isolate = true;
    opts.journalPath = path;
    opts.resume = true;
    Runner runner(opts);
    auto results = runner.run(threeJobBatch(), "resumed");
    ASSERT_TRUE(results[0].ok) << results[0].error;
    ASSERT_TRUE(results[1].ok);
    ASSERT_TRUE(results[2].ok);
    EXPECT_FALSE(results[0].fromJournal);
    EXPECT_TRUE(results[1].fromJournal);
    EXPECT_TRUE(results[2].fromJournal);
    EXPECT_EQ(summarize(results).replayed, 2u);

    // Replay must reproduce the exact wire bytes a fresh run emits.
    auto jobs = threeJobBatch();
    for (size_t i = 0; i < results.size(); ++i) {
        ProgramContext ctx(jobs[i].workload);
        RunResult fresh = ctx.run(jobs[i]);
        EXPECT_EQ(results[i].statsJsonLine,
                  trace::statsJson(metaForRun(jobs[i], fresh),
                                   fresh.sim))
            << "run " << i;
    }
    std::remove(path.c_str());
}

TEST(ResumeTest, SameSizeChosenSetsReplayTheirOwnResults)
{
    std::string path =
        ::testing::TempDir() + "mg_resume_chosen_journal.log";
    std::remove(path.c_str());

    // Two different one-candidate sets: a Fig-8 style batch.
    RunRequest base = request("crc32.0", "reduced");
    ProgramContext ctx(base.workload);
    const std::vector<minigraph::Candidate> &pool = ctx.candidatePool();
    ASSERT_GE(pool.size(), 2u);
    std::vector<RunRequest> jobs(2, base);
    jobs[0].chosen = std::vector<minigraph::Candidate>{pool.front()};
    jobs[1].chosen = std::vector<minigraph::Candidate>{pool.back()};
    std::vector<std::string> fresh;
    for (const RunRequest &job : jobs) {
        RunResult r = ctx.run(job);
        ASSERT_TRUE(r.ok) << r.error;
        fresh.push_back(trace::statsJson(metaForRun(job, r), r.sim));
    }
    ASSERT_NE(fresh[0], fresh[1]) << "the sets must differ in result";

    Runner::Options opts;
    opts.jobs = 1;
    opts.journalPath = path;
    {
        Runner runner(opts);
        for (const RunResult &r : runner.run(jobs, "chosen"))
            ASSERT_TRUE(r.ok) << r.error;
    }
    opts.resume = true;
    Runner runner(opts);
    auto results = runner.run(jobs, "chosen-resumed");
    EXPECT_EQ(summarize(results).replayed, 2u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(results[i].fromJournal) << "run " << i;
        EXPECT_EQ(results[i].statsJsonLine, fresh[i]) << "run " << i;
    }
    std::remove(path.c_str());
}

TEST(ResumeTest, ResumeSurvivesCorruptJournalTail)
{
    std::string path =
        ::testing::TempDir() + "mg_resume_corrupt_journal.log";
    std::remove(path.c_str());
    {
        Runner::Options opts;
        opts.jobs = 1;
        opts.journalPath = path;
        Runner runner(opts);
        auto results = runner.run(threeJobBatch(), "seed");
        ASSERT_TRUE(results[0].ok && results[1].ok && results[2].ok);
    }
    // Simulate a SIGKILL mid-append: a partial final line.
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputs("crc32.0|partial-entry\t{\"workload\":\"cr", f);
        std::fclose(f);
    }
    Runner::Options opts;
    opts.jobs = 1;
    opts.journalPath = path;
    opts.resume = true;
    Runner runner(opts);
    auto results = runner.run(threeJobBatch(), "resume-corrupt");
    EXPECT_TRUE(results[0].ok && results[1].ok && results[2].ok);
    EXPECT_EQ(summarize(results).replayed, 3u);
    std::remove(path.c_str());
}

} // namespace
} // namespace mg::sim
