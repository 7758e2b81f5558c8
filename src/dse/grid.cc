#include "dse/grid.h"

#include <cmath>

#include "common/json.h"
#include "common/string_util.h"
#include "minigraph/selectors.h"
#include "workloads/workload.h"

namespace mg::dse
{

namespace
{

using json::Kind;
using json::Value;

/** A positive integer below 2^32, in any number form ("4", "4.0"). */
bool
positiveU32(const Value &v, uint32_t &out)
{
    double d = 0.0;
    if (!json::toDouble(v, d) || d < 1 || d > UINT32_MAX ||
        d != std::floor(d))
        return false;
    out = static_cast<uint32_t>(d);
    return true;
}

/** Read one positive-integer axis ("width": [2, 4] or "width": 4). */
std::string
readAxis(const Value &root, const std::string &name, uint32_t base_value,
         std::vector<uint32_t> &out)
{
    out.clear();
    const Value *axis = root.find(name);
    if (!axis) {
        out.push_back(base_value);
        return "";
    }
    if (axis->kind != Kind::Number && axis->kind != Kind::Array)
        return "'" + name + "' must be a number or array of numbers";
    const std::vector<Value> items = axis->kind == Kind::Number
                                         ? std::vector<Value>{*axis}
                                         : axis->children;
    if (items.empty())
        return "'" + name + "' must not be empty";
    for (const Value &v : items) {
        if (!positiveU32(v, out.emplace_back()))
            return "'" + name + "' values must be positive integers";
    }
    return "";
}

std::string
readStringList(const Value &v, const std::string &name,
               std::vector<std::string> &out)
{
    if (v.kind != Kind::Array)
        return "'" + name + "' must be an array of strings";
    for (const Value &e : v.children) {
        if (e.kind != Kind::String)
            return "'" + name + "' must be an array of strings";
        out.emplace_back(e.text);
    }
    if (out.empty())
        return "'" + name + "' must not be empty";
    return "";
}

/** The five paper policies plus baseline, in fixed order. */
const std::vector<std::string> &
paperSelectors()
{
    static const std::vector<std::string> kSelectors = {
        "none", "struct-all", "struct-bounded", "slack-profile",
        "slack-dynamic",
    };
    return kSelectors;
}

std::vector<std::string>
workloadSet(const std::string &name)
{
    std::vector<std::string> out;
    if (name == "golden") {
        out = {"crc32.0", "bitcount.0", "adpcm_c.0"};
    } else if (name == "pinned") {
        for (const auto &w : workloads::workloadList()) {
            std::string n = w.name();
            if (endsWith(n, ".0"))
                out.push_back(n);
        }
    } else if (name == "all") {
        for (const auto &w : workloads::workloadList())
            out.push_back(w.name());
    }
    return out;
}

} // namespace

std::string
parseGrid(const std::string &json_text, GridSpec &out)
{
    json::Document doc;
    if (std::string err = json::parse(json_text, doc); !err.empty())
        return "grid JSON: " + err;
    const Value &root = doc.root;
    if (root.kind != Kind::Object)
        return "grid JSON: top level must be an object";

    for (const Value &member : root.children) {
        const std::string_view key = member.key;
        if (key != "base" && key != "workloads" && key != "selectors" &&
            key != "width" && key != "iq" && key != "regs" &&
            key != "mgt" && key != "configs")
            return "grid JSON: unknown key '" + std::string(key) + "'";
    }

    GridSpec grid;
    if (const Value *base = root.find("base")) {
        if (base->kind != Kind::String)
            return "grid JSON: 'base' must be a string";
        grid.base = base->text;
    }
    auto base = uarch::configFromName(grid.base);
    if (!base)
        return "grid JSON: unknown base config '" + grid.base + "'";

    // Workloads: named set or explicit list.
    if (const Value *w = root.find("workloads")) {
        if (w->kind == Kind::String) {
            const std::string set(w->text);
            grid.workloads = workloadSet(set);
            if (grid.workloads.empty())
                return "grid JSON: unknown workload set '" + set +
                       "' (want golden, pinned or all)";
        } else if (std::string err =
                       readStringList(*w, "workloads", grid.workloads);
                   !err.empty()) {
            return "grid JSON: " + err;
        }
    } else {
        grid.workloads = workloadSet("golden");
    }

    // Selectors: explicit list or the paper set.
    if (const Value *s = root.find("selectors")) {
        if (s->kind == Kind::String && s->text == "paper") {
            grid.selectors = paperSelectors();
        } else if (std::string err =
                       readStringList(*s, "selectors", grid.selectors);
                   !err.empty()) {
            return "grid JSON: " + err;
        }
    } else {
        grid.selectors = {"none"};
    }

    // Configurations: explicit tuples win over the axis product.
    if (const Value *configs = root.find("configs")) {
        for (const char *axis : {"width", "iq", "regs", "mgt"}) {
            if (root.find(axis))
                return std::string("grid JSON: '") + axis +
                       "' and 'configs' are mutually exclusive";
        }
        if (configs->kind != Kind::Array || configs->children.empty())
            return "grid JSON: 'configs' must be a non-empty array";
        for (const Value &tuple : configs->children) {
            if (tuple.kind != Kind::Array || tuple.children.size() != 4)
                return "grid JSON: each 'configs' entry must be "
                       "[width, iq, regs, mgt]";
            ConfigTuple t{};
            for (size_t i = 0; i < 4; ++i) {
                if (!positiveU32(tuple.children[i], t[i]))
                    return "grid JSON: 'configs' values must be "
                           "positive integers";
            }
            for (const ConfigTuple &prev : grid.configs) {
                if (prev == t)
                    return "grid JSON: duplicate 'configs' entry [" +
                           std::to_string(t[0]) + ", " +
                           std::to_string(t[1]) + ", " +
                           std::to_string(t[2]) + ", " +
                           std::to_string(t[3]) + "]";
            }
            grid.configs.push_back(t);
        }
    } else {
        std::vector<uint32_t> width, iq, regs, mgt;
        struct Axis
        {
            const char *name;
            std::vector<uint32_t> *values;
            uint32_t baseValue;
        };
        const Axis axes[] = {
            {"width", &width, base->issueWidth},
            {"iq", &iq, base->issueQueueEntries},
            {"regs", &regs, base->physRegs},
            {"mgt", &mgt, base->mgtEntries},
        };
        for (const Axis &axis : axes) {
            if (std::string err = readAxis(root, axis.name,
                                           axis.baseValue,
                                           *axis.values);
                !err.empty())
                return "grid JSON: " + err;
        }
        for (uint32_t w : width)
            for (uint32_t q : iq)
                for (uint32_t r : regs)
                    for (uint32_t m : mgt)
                        grid.configs.push_back({w, q, r, m});
    }

    out = std::move(grid);
    return "";
}

uarch::CoreConfig
deriveConfig(const uarch::CoreConfig &base, const ConfigTuple &tuple)
{
    uarch::CoreConfig cfg = base;
    const auto [width, iq, regs, mgt] = tuple;
    cfg.fetchWidth = width;
    cfg.renameWidth = width;
    cfg.issueWidth = width;
    cfg.commitWidth = width;
    cfg.issueQueueEntries = iq;
    cfg.physRegs = regs;
    cfg.mgtEntries = mgt;
    if (width != base.issueWidth || iq != base.issueQueueEntries ||
        regs != base.physRegs || mgt != base.mgtEntries) {
        cfg.name = base.name + "+w" + std::to_string(width) + "-iq" +
                   std::to_string(iq) + "-r" + std::to_string(regs) +
                   "-mgt" + std::to_string(mgt);
    }
    return cfg;
}

uint64_t
resourceCost(const uarch::CoreConfig &config)
{
    uint64_t regs = config.physRegs > 32 ? config.physRegs - 32 : 0;
    return 64ull * config.issueWidth +
           4ull * config.issueQueueEntries + 2ull * regs +
           config.mgtEntries / 8;
}

std::string
expandGrid(const GridSpec &grid, std::vector<SweepPoint> &out)
{
    out.clear();
    auto base = uarch::configFromName(grid.base);
    if (!base)
        return "unknown base config '" + grid.base + "'";
    for (const std::string &w : grid.workloads) {
        if (!workloads::findWorkload(w))
            return "unknown workload '" + w + "'";
    }
    for (const std::string &s : grid.selectors) {
        if (s != "none" && !minigraph::selectorFromName(s))
            return "unknown selector '" + s + "'";
    }

    size_t index = 0;
    for (const std::string &w : grid.workloads) {
        for (const std::string &sel : grid.selectors) {
            for (const ConfigTuple &tuple : grid.configs) {
                SweepPoint pt;
                pt.index = index++;
                pt.workload = w;
                pt.selector = sel;
                pt.config = deriveConfig(*base, tuple);
                pt.templateBudget = tuple[3];
                pt.cost = resourceCost(pt.config);
                out.push_back(std::move(pt));
            }
        }
    }
    return "";
}

GridSpec
pinnedDseGrid()
{
    GridSpec grid;
    grid.base = "reduced";
    grid.workloads = {"crc32.0", "bitcount.0"};
    grid.selectors = paperSelectors();
    // 13 tuples spanning the paper's resource trade-off space: three
    // width tiers, IQ/regs knees around the reduced machine, and MGT
    // capacities from starved to overprovisioned.
    grid.configs = {
        {2, 12, 80, 128},  {2, 18, 96, 256},  {2, 30, 96, 256},
        {2, 30, 144, 512}, {3, 18, 96, 256},  {3, 24, 128, 384},
        {3, 30, 112, 512}, {3, 30, 144, 128}, {3, 30, 144, 512},
        {4, 18, 112, 256}, {4, 30, 144, 512}, {4, 36, 160, 640},
        {4, 42, 176, 512},
    };
    return grid;
}

} // namespace mg::dse
