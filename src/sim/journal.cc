#include "sim/journal.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/string_util.h"
#include "trace/stats_parse.h"

namespace mg::sim::journal
{

std::string
runKey(const RunRequest &req, const std::string &sim_version)
{
    std::string key = req.workload.name();
    if (req.altInput)
        key += "#alt";
    key += '|';
    key += req.config.name.empty() ? "?" : req.config.name;
    key += '|';
    key += req.selector ? minigraph::nameOf(*req.selector) : "none";
    if (req.profileConfig) {
        key += "|profile=";
        key += req.profileConfig->name.empty() ? "?"
                                               : req.profileConfig->name;
    }
    key += "|budget=" + std::to_string(req.templateBudget);
    if (req.profileFromAltInput)
        key += "|cross-input";
    if (req.chosen) {
        std::string pcs;
        for (const minigraph::Candidate &c : *req.chosen)
            pcs += std::to_string(c.firstPc) + "+" +
                   std::to_string(c.len) + ";";
        key += "|chosen=" + std::to_string(req.chosen->size()) + "-" +
               hex64(fnv1a64(pcs));
    }
    key += "|sim=" + sim_version;
    return key;
}

LoadResult
load(const std::string &path)
{
    LoadResult out;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return out;
    out.existed = true;

    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    size_t lineno = 0;
    size_t pos = 0;
    auto drop = [&](const std::string &why) {
        ++out.dropped;
        if (!out.warning.empty())
            out.warning += "; ";
        out.warning += "line " + std::to_string(lineno) + ": " + why;
    };

    while (pos < text.size()) {
        ++lineno;
        size_t nl = text.find('\n', pos);
        bool truncated = nl == std::string::npos;
        std::string line = text.substr(
            pos, truncated ? std::string::npos : nl - pos);
        pos = truncated ? text.size() : nl + 1;

        if (line.empty())
            continue;
        if (truncated) {
            // The writer terminates every entry with '\n'; a missing
            // one means the host died mid-write.  Resume from the
            // last complete entry.
            drop("truncated final entry (no newline)");
            continue;
        }
        size_t tab = line.find('\t');
        if (tab == std::string::npos || tab == 0 ||
            tab + 1 >= line.size()) {
            drop("malformed entry (no key/stats separator)");
            continue;
        }
        std::string key = line.substr(0, tab);
        std::string stats = line.substr(tab + 1);
        trace::ParsedStats parsed;
        if (std::string err = trace::parseStatsJson(stats, parsed);
            !err.empty()) {
            drop("invalid stats JSON (" + err + ")");
            continue;
        }
        if (parsed.isError) {
            // Only completed runs belong in a journal.
            drop("error record for key '" + key + "'");
            continue;
        }
        out.entries[key] = std::move(stats);
    }
    return out;
}

Writer::~Writer()
{
    if (file)
        std::fclose(file);
}

std::string
Writer::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu);
    if (file) {
        std::fclose(file);
        file = nullptr;
    }
    file = std::fopen(path.c_str(), "ab");
    if (!file)
        return "cannot open journal '" + path +
               "': " + std::strerror(errno);
    return "";
}

void
Writer::append(const std::string &key, const std::string &stats_json)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!file)
        return;
    std::fputs(key.c_str(), file);
    std::fputc('\t', file);
    std::fputs(stats_json.c_str(), file);
    std::fputc('\n', file);
    // fflush hands the entry to the kernel (survives SIGKILL of this
    // process); fsync makes it durable on the device before append()
    // returns.  The per-entry fsync is what makes the loader's
    // truncation handling sound after a power-loss-style kill: with
    // ordered appends, a torn entry can only ever be the *final*
    // line — there is no window where entry N is a hole on disk while
    // a later complete entry N+1 already is, which --resume would
    // misread as "N never ran" even though its result was reported.
    // One fsync per completed simulation (milliseconds of work at
    // minimum) is noise; batches that cannot afford it can simply not
    // pass --journal.
    std::fflush(file);
    ::fsync(fileno(file));
}

} // namespace mg::sim::journal
