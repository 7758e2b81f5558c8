#include "minigraph/static_rank.h"

#include <algorithm>

#include "common/json.h"

namespace mg::minigraph
{

using analysis::ProgramAnalysis;
using analysis::StaticSerialBounds;

analysis::StaticSerialBounds
staticBoundsFor(const Candidate &cand, const ProgramAnalysis &pa)
{
    return analysis::staticSerialBounds(pa, cand.tmpl, cand.firstPc,
                                        cand.len, cand.inputRegs,
                                        cand.outputReg);
}

PredictedSerial
predictedSerial(const StaticSerialBounds &b)
{
    if (!b.hasSerializingInput)
        return PredictedSerial::NonSerializing;
    if (b.recurrent || b.saturated)
        return PredictedSerial::Unbounded;
    return PredictedSerial::Bounded;
}

bool
slackStaticKeep(const Candidate &cand, const ProgramAnalysis &pa)
{
    StaticSerialBounds b = staticBoundsFor(cand, pa);
    switch (predictedSerial(b)) {
      case PredictedSerial::NonSerializing:
        return true;
      case PredictedSerial::Unbounded:
        return false;
      case PredictedSerial::Bounded:
        return b.externalDelayBound() <= cand.tmpl.criticalLatency();
    }
    return false;
}

AnalyzeReport
analyzeProgram(const assembler::Program &prog)
{
    ProgramAnalysis pa(prog);
    AnalyzeReport rep;
    rep.program = prog.name;
    rep.instructions = prog.size();
    rep.blocks = pa.cfg().blocks().size();
    rep.reachableBlocks = pa.dominators().reachableCount();
    rep.loops = pa.loops().loops().size();
    for (const analysis::Loop &l : pa.loops().loops()) {
        if (l.tripCountExact)
            ++rep.exactTripCounts;
    }
    rep.maxLoopDepth = pa.loops().maxDepth();
    rep.irreducibleEdges = pa.loops().irreducibleEdges();
    for (const assembler::BasicBlock &bb : pa.cfg().blocks()) {
        rep.maxBlockFrequency =
            std::max(rep.maxBlockFrequency, pa.loops().frequencyOf(bb.id));
    }
    rep.maxHeight = pa.dataflow().maxHeight();
    rep.saturated = pa.dataflow().saturated();

    auto pool = enumerateCandidates(prog, pa.cfg(), pa.liveness());
    rep.candidates = pool.size();
    for (const Candidate &c : pool) {
        switch (c.serialClass) {
          case SerialClass::NonSerializing: ++rep.structNonSerializing;
            break;
          case SerialClass::Bounded: ++rep.structBounded; break;
          case SerialClass::Unbounded: ++rep.structUnbounded; break;
        }
        switch (predictedSerial(staticBoundsFor(c, pa))) {
          case PredictedSerial::NonSerializing: ++rep.predNonSerializing;
            break;
          case PredictedSerial::Bounded: ++rep.predBounded; break;
          case PredictedSerial::Unbounded: ++rep.predUnbounded; break;
        }
        if (slackStaticKeep(c, pa))
            ++rep.slackStaticKept;
    }
    return rep;
}

std::string
analyzeReportJson(const AnalyzeReport &r)
{
    std::string out = "{\"program\":\"" + json::escape(r.program) + "\"";
    auto field = [&out](const char *key, uint64_t v) {
        out += ",\"";
        out += key;
        out += "\":";
        out += std::to_string(v);
    };
    field("instructions", r.instructions);
    field("blocks", r.blocks);
    field("reachable_blocks", r.reachableBlocks);
    field("loops", r.loops);
    field("exact_trip_counts", r.exactTripCounts);
    field("max_loop_depth", r.maxLoopDepth);
    field("irreducible_edges", r.irreducibleEdges);
    field("max_block_freq", r.maxBlockFrequency);
    field("max_height", r.maxHeight);
    field("saturated", r.saturated ? 1 : 0);
    field("candidates", r.candidates);
    field("struct_nonserializing", r.structNonSerializing);
    field("struct_bounded", r.structBounded);
    field("struct_unbounded", r.structUnbounded);
    field("pred_nonserializing", r.predNonSerializing);
    field("pred_bounded", r.predBounded);
    field("pred_unbounded", r.predUnbounded);
    field("slack_static_kept", r.slackStaticKept);
    out += "}";
    return out;
}

} // namespace mg::minigraph
