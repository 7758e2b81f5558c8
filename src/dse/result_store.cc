#include "dse/result_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/string_util.h"
#include "trace/stats_parse.h"

namespace fs = std::filesystem;

namespace mg::dse
{

namespace
{

constexpr const char *kMagic = "mg-dse-v1";

std::string
slurp(const fs::path &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ok = false;
        return {};
    }
    std::stringstream ss;
    ss << in.rdbuf();
    ok = true;
    return ss.str();
}

/** Append one CoreConfig field as "name=value;". */
template <typename T>
void
field(std::string &out, const char *name, const T &value)
{
    out += name;
    out += '=';
    out += std::to_string(value);
    out += ';';
}

void
cacheFields(std::string &out, const char *name,
            const uarch::CacheConfig &c)
{
    out += name;
    out += "={";
    field(out, "size", c.sizeBytes);
    field(out, "assoc", c.assoc);
    field(out, "line", c.lineBytes);
    field(out, "hitLat", c.hitLatency);
    out += "};";
}

void
tlbFields(std::string &out, const char *name, const uarch::TlbConfig &t)
{
    out += name;
    out += "={";
    field(out, "entries", t.entries);
    field(out, "assoc", t.assoc);
    field(out, "page", t.pageBytes);
    field(out, "missLat", t.missLatency);
    out += "};";
}

} // namespace

std::string
StoreKey::hex() const
{
    return hex64(value);
}

std::string
canonicalConfig(const uarch::CoreConfig &c)
{
    std::string out = "name=" + c.name + ";";
    field(out, "fetchWidth", c.fetchWidth);
    field(out, "renameWidth", c.renameWidth);
    field(out, "issueWidth", c.issueWidth);
    field(out, "commitWidth", c.commitWidth);
    field(out, "rob", c.robEntries);
    field(out, "iq", c.issueQueueEntries);
    field(out, "regs", c.physRegs);
    field(out, "lq", c.loadQueueEntries);
    field(out, "sq", c.storeQueueEntries);
    field(out, "simpleInt", c.simpleIntPerCycle);
    field(out, "complex", c.complexPerCycle);
    field(out, "loads", c.loadsPerCycle);
    field(out, "stores", c.storesPerCycle);
    field(out, "frontendDelay", c.frontendDelay);
    field(out, "renameDelay", c.renameDelay);
    field(out, "regreadDelay", c.regreadDelay);
    field(out, "regwriteDelay", c.regwriteDelay);
    field(out, "bpBimodal", c.branchPred.bimodalEntries);
    field(out, "bpGshare", c.branchPred.gshareEntries);
    field(out, "bpChooser", c.branchPred.chooserEntries);
    field(out, "bpHistory", c.branchPred.historyBits);
    field(out, "btb", c.branchPred.btbEntries);
    field(out, "btbAssoc", c.branchPred.btbAssoc);
    field(out, "ras", c.branchPred.rasEntries);
    cacheFields(out, "icache", c.icache);
    cacheFields(out, "dcache", c.dcache);
    cacheFields(out, "l2", c.l2);
    tlbFields(out, "itlb", c.itlb);
    tlbFields(out, "dtlb", c.dtlb);
    field(out, "memLat", c.memLatency);
    field(out, "ssit", c.storeSetsSsitEntries);
    field(out, "lfst", c.storeSetsLfstEntries);
    field(out, "ssClear", c.storeSetsClearPeriod);
    field(out, "mg", static_cast<int>(c.mgEnabled));
    field(out, "mgIssue", c.mgIssuePerCycle);
    field(out, "mgMemIssue", c.mgMemIssuePerCycle);
    field(out, "mgt", c.mgtEntries);
    field(out, "sd", static_cast<int>(c.slackDynamicEnabled));
    field(out, "sdIdeal", static_cast<int>(c.slackDynamicIdeal));
    field(out, "sdConsumer",
          static_cast<int>(c.slackDynamicConsumerCheck));
    field(out, "sdSial", static_cast<int>(c.slackDynamicSial));
    field(out, "sdThreshold", c.slackDynamicThreshold);
    field(out, "sdMax", c.slackDynamicMax);
    field(out, "sdDecay", c.slackDynamicDecayCycles);
    field(out, "maxCycles", c.maxCycles);
    field(out, "loss", static_cast<int>(c.lossAccounting));
    field(out, "check", static_cast<int>(c.checkLevel));
    return out;
}

uint64_t
programFingerprint(const assembler::Program &prog)
{
    std::string bytes = prog.name;
    bytes += '\0';
    bytes += prog.listing();
    bytes += '\0';
    bytes.append(reinterpret_cast<const char *>(prog.dataInit.data()),
                 prog.dataInit.size());
    bytes += '\0';
    bytes += std::to_string(prog.dataBase);
    bytes += '|';
    bytes += std::to_string(prog.memSize);
    bytes += '|';
    bytes += std::to_string(prog.entry);
    return fnv1a64(bytes);
}

StoreKey
deriveKey(const assembler::Program &prog,
          const uarch::CoreConfig &config, const std::string &selector,
          uint32_t templateBudget, const std::string &sim_version)
{
    StoreKey key;
    key.identity = "prog=" + prog.name + "#" +
                   hex64(programFingerprint(prog)) +
                   "|cfg=" + canonicalConfig(config) +
                   "|sel=" + selector +
                   "|budget=" + std::to_string(templateBudget) +
                   "|sim=" + sim_version;
    key.value = fnv1a64(key.identity);
    return key;
}

std::string
ResultStore::open(const std::string &root_dir)
{
    std::error_code ec;
    for (const char *sub : {"objects", "quarantine", "tmp"}) {
        fs::create_directories(fs::path(root_dir) / sub, ec);
        if (ec) {
            return "cannot create store directory '" + root_dir + "/" +
                   sub + "': " + ec.message();
        }
    }
    root = root_dir;
    return "";
}

std::string
ResultStore::objectPath(const StoreKey &key) const
{
    std::string hex = key.hex();
    return root + "/objects/" + hex.substr(0, 2) + "/" + hex + ".entry";
}

std::string
ResultStore::validateEntry(const std::string &content,
                           const std::string &key_hex,
                           std::string *stats_line_out,
                           std::string *version_out,
                           trace::ParsedStats *parsed_out)
{
    // The writer terminates the file with '\n'; anything else is the
    // mid-write truncation signature.
    if (content.empty() || content.back() != '\n')
        return "truncated";

    size_t nl1 = content.find('\n');
    size_t nl2 = nl1 == std::string::npos
                     ? std::string::npos
                     : content.find('\n', nl1 + 1);
    size_t nl3 = nl2 == std::string::npos
                     ? std::string::npos
                     : content.find('\n', nl2 + 1);
    if (nl1 == std::string::npos || nl2 == std::string::npos ||
        nl3 == std::string::npos || nl3 + 1 != content.size())
        return "framing";

    const std::string header = content.substr(0, nl1);
    const std::string identity =
        content.substr(nl1 + 1, nl2 - nl1 - 1);
    const std::string stats = content.substr(nl2 + 1, nl3 - nl2 - 1);

    auto tokens = splitWhitespace(header);
    if (tokens.size() != 4 || tokens[0] != kMagic)
        return "header";
    if (tokens[1] != key_hex)
        return "key-mismatch";
    if (hex64(fnv1a64(identity)) != key_hex)
        return "identity-hash";
    if (hex64(fnv1a64(stats)) != tokens[2])
        return "payload-hash";

    trace::ParsedStats parsed;
    if (std::string err = trace::parseStatsJson(stats, parsed);
        !err.empty())
        return "stats-parse";
    if (parsed.isError)
        return "error-record";

    if (stats_line_out)
        *stats_line_out = stats;
    if (version_out)
        *version_out = tokens[3];
    if (parsed_out)
        *parsed_out = std::move(parsed);
    return "";
}

void
ResultStore::quarantine(const std::string &path,
                        const std::string &key_hex,
                        const std::string &reason)
{
    std::error_code ec;
    fs::path dest =
        fs::path(root) / "quarantine" / (key_hex + "." + reason);
    fs::rename(path, dest, ec);
    if (ec) {
        // Cross-device or permission trouble: removing is still safe
        // (the entry is invalid) and keeps it from being re-served.
        fs::remove(path, ec);
    }
    ++nQuarantined;
    quarantinedEntries.push_back(
        {"objects/" + key_hex.substr(0, 2) + "/" + key_hex + ".entry",
         reason});
}

std::optional<std::string>
ResultStore::lookup(const StoreKey &key)
{
    trace::ParsedStats parsed;
    return lookup(key, parsed);
}

std::optional<std::string>
ResultStore::lookup(const StoreKey &key, trace::ParsedStats &parsed)
{
    mg_assert(isOpen(), "ResultStore::lookup before open()");
    const std::string path = objectPath(key);
    bool ok = false;
    std::string content = slurp(path, ok);
    if (!ok) {
        ++nMisses;
        return std::nullopt;
    }
    std::string stats;
    if (std::string reason =
            validateEntry(content, key.hex(), &stats, nullptr, &parsed);
        !reason.empty()) {
        quarantine(path, key.hex(), reason);
        ++nMisses;
        return std::nullopt;
    }
    ++nHits;
    return stats;
}

std::string
ResultStore::insert(const StoreKey &key,
                    const std::string &stats_json_line)
{
    mg_assert(isOpen(), "ResultStore::insert before open()");

    // Refuse to store anything lookup would quarantine.
    trace::ParsedStats parsed;
    if (std::string err =
            trace::parseStatsJson(stats_json_line, parsed);
        !err.empty())
        return "not a stats line: " + err;
    if (parsed.isError)
        return "refusing to store an error record";

    const std::string hex = key.hex();
    std::string content = std::string(kMagic) + " " + hex + " " +
                          hex64(fnv1a64(stats_json_line)) + " " +
                          kSimVersion + "\n" + key.identity + "\n" +
                          stats_json_line + "\n";

    // Stage under a writer-unique name, then rename into place: a
    // reader never observes a partial entry, and two concurrent
    // writers of the same key (which stage identical bytes — the
    // store is content-addressed) race only on who renames last.
    std::ostringstream tid;
    tid << std::this_thread::get_id();
    fs::path tmp = fs::path(root) / "tmp" /
                   (hex + "." + std::to_string(getpid()) + "." +
                    tid.str() + ".tmp");
    {
        std::ofstream out(tmp, std::ios::binary);
        out << content;
        if (!out)
            return "cannot write '" + tmp.string() + "'";
    }
    std::error_code ec;
    const fs::path target = objectPath(key);
    fs::create_directories(target.parent_path(), ec); // fan-out dir
    fs::rename(tmp, target, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return "cannot publish '" + target.string() + "'";
    }
    return "";
}

VerifyReport
ResultStore::verify()
{
    mg_assert(isOpen(), "ResultStore::verify before open()");
    VerifyReport rep;

    // Deterministic traversal: collect then sort.
    std::vector<fs::path> files;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(
             fs::path(root) / "objects", ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file())
            files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());

    for (const fs::path &f : files) {
        ++rep.checked;
        std::string stem = f.stem().string();
        bool ok = false;
        std::string content = slurp(f, ok);
        std::string reason =
            ok ? validateEntry(content, stem, nullptr, nullptr)
               : "unreadable";
        if (!reason.empty()) {
            quarantine(f.string(), stem, reason);
            rep.bad.push_back({"objects/" + stem.substr(0, 2) + "/" +
                                   stem + ".entry",
                               reason});
        }
    }
    return rep;
}

GcReport
ResultStore::gc(const std::string &keep_version)
{
    mg_assert(isOpen(), "ResultStore::gc before open()");
    GcReport rep;
    std::error_code ec;

    std::vector<fs::path> objects;
    for (auto it = fs::recursive_directory_iterator(
             fs::path(root) / "objects", ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file())
            objects.push_back(it->path());
    }
    std::sort(objects.begin(), objects.end());
    for (const fs::path &f : objects) {
        bool ok = false;
        std::string content = slurp(f, ok);
        std::string version;
        std::string reason =
            ok ? validateEntry(content, f.stem().string(), nullptr,
                               &version)
               : "unreadable";
        if (!reason.empty()) {
            // Invalid entries route through quarantine (and are then
            // reclaimed below on the next gc); verify() first gives a
            // report, but gc alone must still never leave them live.
            quarantine(f.string(), f.stem().string(), reason);
            continue;
        }
        if (version != keep_version) {
            uint64_t bytes = content.size();
            fs::remove(f, ec);
            if (!ec) {
                ++rep.staleRemoved;
                rep.bytesReclaimed += bytes;
            }
        }
    }

    std::vector<fs::path> quarantined;
    for (auto it =
             fs::directory_iterator(fs::path(root) / "quarantine", ec);
         !ec && it != fs::directory_iterator(); ++it) {
        if (it->is_regular_file())
            quarantined.push_back(it->path());
    }
    std::sort(quarantined.begin(), quarantined.end());
    for (const fs::path &f : quarantined) {
        uint64_t bytes = fs::file_size(f, ec);
        if (ec)
            bytes = 0;
        fs::remove(f, ec);
        if (!ec) {
            ++rep.quarantineRemoved;
            rep.bytesReclaimed += bytes;
        }
    }
    return rep;
}

StoreStats
ResultStore::stats() const
{
    mg_assert(isOpen(), "ResultStore::stats before open()");
    StoreStats st;
    std::error_code ec;

    std::vector<fs::path> files;
    for (auto it = fs::recursive_directory_iterator(
             fs::path(root) / "objects", ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file())
            files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &f : files) {
        ++st.entries;
        uint64_t bytes = fs::file_size(f, ec);
        if (!ec)
            st.objectBytes += bytes;
        bool ok = false;
        std::string content = slurp(f, ok);
        std::string version;
        if (ok && validateEntry(content, f.stem().string(), nullptr,
                                &version)
                      .empty())
            ++st.byVersion[version];
        else
            ++st.byVersion["invalid"];
    }

    for (auto it =
             fs::directory_iterator(fs::path(root) / "quarantine", ec);
         !ec && it != fs::directory_iterator(); ++it) {
        if (it->is_regular_file())
            ++st.quarantined;
    }
    return st;
}

} // namespace mg::dse
