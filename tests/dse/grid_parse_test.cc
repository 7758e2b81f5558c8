/**
 * @file
 * parseGrid (src/dse/grid.h) rejection paths: every malformed grid
 * JSON shape must come back as one clear error string — never a
 * partially filled GridSpec that a sweep would silently run.
 */

#include <gtest/gtest.h>

#include "dse/grid.h"

namespace mg::dse
{
namespace
{

/** Parse and expect failure; returns the error message. */
std::string
rejects(const std::string &json)
{
    GridSpec grid;
    std::string err = parseGrid(json, grid);
    EXPECT_FALSE(err.empty())
        << "accepted malformed grid: " << json;
    // A rejected parse must leave the output untouched (the default
    // GridSpec has no workloads), never a partial sweep's worth.
    EXPECT_TRUE(grid.workloads.empty());
    EXPECT_TRUE(grid.configs.empty());
    return err;
}

TEST(GridParse, AcceptsMinimalGrid)
{
    GridSpec grid;
    ASSERT_EQ(parseGrid("{\"workloads\": [\"crc32.0\"]}", grid), "");
    EXPECT_EQ(grid.base, "reduced");
    EXPECT_EQ(grid.workloads.size(), 1u);
    EXPECT_EQ(grid.selectors, std::vector<std::string>{"none"});
    ASSERT_EQ(grid.configs.size(), 1u); // base values on every axis
}

TEST(GridParse, RejectsMalformedJson)
{
    rejects("{\"workloads\": [");
    rejects("");
    rejects("[1, 2, 3]"); // top level must be an object

    // Inputs an earlier reader crashed on or misread: each now fails
    // with a positioned message.
    for (const std::string &bad :
         {"{\"width\": " + std::string(200000, '['),
          std::string("{\"width\": [2], \"width\": [4]}"),
          std::string("{\"width\": [3-4]}"),
          std::string("{\"iq\": [2e]}")}) {
        EXPECT_NE(rejects(bad).find(" at offset "), std::string::npos)
            << bad.substr(0, 40);
    }
}

TEST(GridParse, RejectsUnknownKeysAndBase)
{
    EXPECT_NE(rejects("{\"wrkloads\": [\"crc32.0\"]}")
                  .find("unknown key 'wrkloads'"),
              std::string::npos);
    EXPECT_NE(rejects("{\"base\": \"gigantic\"}")
                  .find("unknown base config 'gigantic'"),
              std::string::npos);
}

TEST(GridParse, RejectsMalformedAxes)
{
    EXPECT_NE(rejects("{\"width\": \"wide\"}")
                  .find("'width' must be a number or array"),
              std::string::npos);
    EXPECT_NE(rejects("{\"iq\": []}").find("'iq' must not be empty"),
              std::string::npos);
}

TEST(GridParse, RejectsZeroAndNegativeDimensions)
{
    EXPECT_NE(rejects("{\"width\": [0]}")
                  .find("'width' values must be positive integers"),
              std::string::npos);
    EXPECT_NE(rejects("{\"regs\": [-96]}")
                  .find("'regs' values must be positive integers"),
              std::string::npos);
    EXPECT_NE(rejects("{\"mgt\": [256.5]}")
                  .find("'mgt' values must be positive integers"),
              std::string::npos);
    EXPECT_NE(rejects("{\"iq\": [4294967296]}")
                  .find("'iq' values must be positive integers"),
              std::string::npos);
}

TEST(GridParse, AcceptsIntegralValuesInAnyNumberForm)
{
    GridSpec grid;
    ASSERT_EQ(parseGrid("{\"workloads\": [\"crc32.0\"],"
                        " \"configs\": [[4.0, 3e1, 96, 4294967295]]}",
                        grid),
              "");
    ASSERT_EQ(grid.configs.size(), 1u);
    EXPECT_EQ(grid.configs[0], (ConfigTuple{4, 30, 96, 4294967295u}));
}

TEST(GridParse, RejectsMalformedConfigTuples)
{
    EXPECT_NE(rejects("{\"configs\": []}")
                  .find("'configs' must be a non-empty array"),
              std::string::npos);
    EXPECT_NE(rejects("{\"configs\": [[3, 20, 96]]}")
                  .find("must be [width, iq, regs, mgt]"),
              std::string::npos);
    EXPECT_NE(rejects("{\"configs\": [[3, 20, 96, 0]]}")
                  .find("'configs' values must be positive integers"),
              std::string::npos);
    EXPECT_NE(rejects("{\"configs\": [[3, 20, 96, 256]],"
                      " \"width\": [3]}")
                  .find("'width' and 'configs' are mutually exclusive"),
              std::string::npos);
}

TEST(GridParse, RejectsDuplicateExplicitTuples)
{
    std::string err = rejects(
        "{\"configs\": [[3, 20, 96, 256], [3, 30, 144, 512],"
        " [3, 20, 96, 256]]}");
    EXPECT_NE(err.find("duplicate 'configs' entry [3, 20, 96, 256]"),
              std::string::npos);
}

TEST(GridParse, AcceptsDistinctTuplesAndKeepsOrder)
{
    GridSpec grid;
    ASSERT_EQ(parseGrid("{\"workloads\": [\"crc32.0\"],"
                        " \"configs\": [[3, 30, 144, 512],"
                        " [3, 20, 96, 256]]}",
                        grid),
              "");
    ASSERT_EQ(grid.configs.size(), 2u);
    EXPECT_EQ(grid.configs[0], (ConfigTuple{3, 30, 144, 512}));
    EXPECT_EQ(grid.configs[1], (ConfigTuple{3, 20, 96, 256}));
}

TEST(GridParse, RejectsUnknownWorkloadSet)
{
    EXPECT_NE(rejects("{\"workloads\": \"everything\"}")
                  .find("unknown workload set 'everything'"),
              std::string::npos);
}

} // namespace
} // namespace mg::dse
