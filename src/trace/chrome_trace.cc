#include "trace/chrome_trace.h"

#include <cstdio>

#include "common/json.h"

namespace mg::trace
{

namespace
{

void
event(std::string &out, bool &first, const std::string &name,
      const char *phase, uint64_t tid, uint64_t ts, uint64_t dur,
      uint64_t seq, uint32_t pc)
{
    if (!first)
        out += ",";
    first = false;
    char buf[128];
    out += "{\"name\":\"" + json::escape(name) + "\",\"cat\":\"";
    out += phase;
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":0,\"tid\":%llu,"
                  "\"ts\":%llu,\"dur\":%llu,",
                  static_cast<unsigned long long>(tid),
                  static_cast<unsigned long long>(ts),
                  static_cast<unsigned long long>(dur));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\"args\":{\"seq\":%llu,\"pc\":\"0x%x\"}}",
                  static_cast<unsigned long long>(seq), pc);
    out += buf;
}

} // namespace

std::string
chromeTraceToString(const std::vector<InstRecord> &recs)
{
    std::string out = "{\"traceEvents\":[";
    bool first = true;

    // Lay instructions out round-robin over a few lanes so
    // overlapping lifetimes render as parallel tracks.
    constexpr uint64_t kLanes = 8;

    for (const InstRecord &r : recs) {
        uint64_t tid = r.seq % kLanes;
        std::string name = r.disasm.empty() ? "?" : r.disasm;
        if (r.squashed)
            name = "[squashed] " + name;

        uint64_t end = r.committed ? r.commitCycle : r.squashCycle;
        auto phaseEnd = [&](uint64_t next) {
            return next > 0 ? next : end;
        };

        uint64_t fe = phaseEnd(r.dispatchCycle);
        if (fe > r.fetchCycle)
            event(out, first, name, "fetch", tid, r.fetchCycle,
                  fe - r.fetchCycle, r.seq, r.pc);
        if (r.dispatchCycle > 0) {
            uint64_t de = phaseEnd(r.issueCycle);
            if (de > r.dispatchCycle)
                event(out, first, name, "wait", tid, r.dispatchCycle,
                      de - r.dispatchCycle, r.seq, r.pc);
        }
        if (r.issueCycle > 0) {
            uint64_t ie = phaseEnd(r.completeCycle);
            if (ie > r.issueCycle)
                event(out, first, name, "execute", tid, r.issueCycle,
                      ie - r.issueCycle, r.seq, r.pc);
        }
        if (r.completeCycle > 0 && end > r.completeCycle)
            event(out, first, name, "commit-wait", tid,
                  r.completeCycle, end - r.completeCycle, r.seq, r.pc);
    }

    out += "]}";
    return out;
}

} // namespace mg::trace
