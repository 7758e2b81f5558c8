/**
 * @file
 * The `paper-matrix` workload: the pinned selector x program matrix on
 * the reduced machine, one job at a time through sim::Runner.  A round
 * is one cost-balanced group of programs (see bench.h) with all five
 * policies each.  Every program starts from a fresh context, which is
 * freed after its last cell, so its peak memory is its own.
 */

#include <map>

#include "bench.h"
#include "common/string_util.h"
#include "sim/runner.h"
#include "trace/stats_json.h"

namespace hb
{

namespace
{

class PaperMatrix : public Workload
{
  public:
    explicit PaperMatrix(const Options &o) : Workload(o) {}

    /** Load the tables, deal the rounds, and check every cell has a
     *  reference entry. */
    std::string
    setup() override
    {
        if (std::string err = loadTables(); !err.empty())
            return err;
        rounds = matrixRounds(opts.seed, opts.kernels, costs);
        for (const std::string &key : cellKeys())
            if (!ref.find(key))
                return key + ": no reference entry";
        return "";
    }

    std::vector<std::string>
    cellKeys() const override
    {
        std::vector<std::string> keys;
        for (const std::vector<Cell> &cells : rounds)
            for (const Cell &c : cells)
                keys.push_back(c.key());
        return keys;
    }

    size_t roundsPerCycle() const override { return rounds.size(); }

    RoundResult
    round(size_t index, std::vector<SpanLog> *trace) override
    {
        const std::vector<Cell> &cells = rounds[index % rounds.size()];
        RoundResult rr;
        std::vector<mg::sim::RunResult> results(cells.size());
        if (trace)
            tracedRound(cells, *trace, rr, results);
        else
            plainRound(cells, rr, results);
        check(cells, results, rr);
        return rr;
    }

  private:
    void
    plainRound(const std::vector<Cell> &cells, RoundResult &rr,
               std::vector<mg::sim::RunResult> &results)
    {
        mg::sim::RunnerOptions ro;
        ro.jobs = 1;
        for (size_t first = 0; first < cells.size();) {
            size_t end = first;
            while (end < cells.size() &&
                   cells[end].workload == cells[first].workload)
                ++end;
            // Only the program's own work is timed, not the memory
            // measurement or the move to the next CPU between programs.
            nextCpu();
            resetPeakRss();
            const double w0 = wallNow();
            const double c0 = cpuNow();
            {
                mg::sim::Runner runner(ro);
                for (size_t i = first; i < end; ++i) {
                    const double t0 = wallNow();
                    results[i] = std::move(runner.run({cells[i].req})[0]);
                    rr.cellMs.push_back((wallNow() - t0) * 1e3);
                }
            }
            rr.wall += wallNow() - w0;
            rr.cpu += cpuNow() - c0;
            rr.peakMb.push_back(peakRssMb());
            first = end;
        }
        anyCpu();
    }

    /** One context as Runner::context builds it, split in two spans. */
    struct Context
    {
        std::unique_ptr<mg::sim::ProgramContext> ctx;
        ContextClaims claims;
    };

    void
    tracedRound(const std::vector<Cell> &cells, std::vector<SpanLog> &logs,
                RoundResult &rr, std::vector<mg::sim::RunResult> &results)
    {
        logs.assign(1, SpanLog{});
        SpanLog &log = logs[0];
        std::map<std::string, std::unique_ptr<Context>> contexts;
        const double w0 = wallNow();
        const double c0 = cpuNow();
        double busy = 0.0;
        {
            ScopedSpan round(log, "bench.round");
            for (size_t i = 0; i < cells.size(); ++i) {
                const Cell &c = cells[i];
                if (i > 0 && c.workload != cells[i - 1].workload) {
                    ScopedSpan s(log, "sim.context");
                    contexts.clear();
                }
                if (i == 0 || c.workload != cells[i - 1].workload)
                    nextCpu();
                ScopedSpan cell(log, "bench.cell");
                std::unique_ptr<Context> &slot = contexts[c.workload];
                if (!slot) {
                    ScopedSpan s(log, "sim.context");
                    mg::assembler::Program prog = [&] {
                        ScopedSpan b(log, "workloads.build",
                                     c.req.workload.suite == "cbench"
                                         ? "cbench"
                                         : nullptr);
                        return mg::workloads::buildWorkload(c.req.workload)
                            .program;
                    }();
                    slot = std::make_unique<Context>();
                    slot->ctx = std::make_unique<mg::sim::ProgramContext>(
                        std::move(prog));
                }
                Replayed rep =
                    replayRun(*slot->ctx, slot->claims, c.req, c.policy, log);
                rr.coreCosts.push_back(
                    {c.key(), rep.coreSec, rep.result.sim.cycles});
                results[i] = std::move(rep.result);
                const double sec = cell.elapsed();
                busy += sec;
                rr.cellMs.push_back(sec * 1e3);
            }
            ScopedSpan s(log, "sim.context");
            contexts.clear();
        }
        anyCpu();
        rr.wall = wallNow() - w0;
        rr.cpu = cpuNow() - c0;
        log.count("sim.busy_s", busy);
        log.count("sim.capacity_s", rr.wall);
    }

    void
    check(const std::vector<Cell> &cells,
          const std::vector<mg::sim::RunResult> &results, RoundResult &rr)
    {
        for (size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            const mg::sim::RunResult &r = results[i];
            ++rr.attempted;
            if (!r.ok) {
                rr.fail(c.key() + ": " + r.error);
                continue;
            }
            const std::string line =
                mg::trace::statsJson(mg::sim::metaForRun(c.req, r), r.sim);
            rr.hashes.emplace_back(c.key(), mg::fnv1a64(line));
            if (std::string err = checkCell(ref, c.key(), r.sim, line);
                !err.empty())
                rr.fail(err);
            else
                rr.insts += r.sim.originalInsts;
        }
    }

    std::vector<std::vector<Cell>> rounds;
};

} // namespace

std::unique_ptr<Workload>
makePaperMatrix(const Options &opts)
{
    return std::make_unique<PaperMatrix>(opts);
}

} // namespace hb
