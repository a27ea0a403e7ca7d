/**
 * @file
 * XPGraphConfig::validate()/validated(): every constructor and
 * recover() funnels through one validator that reports actionable
 * problems instead of asserting deep inside the engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/xpgraph.hpp"

namespace xpg {
namespace {

XPGraphConfig
goodConfig()
{
    XPGraphConfig c = XPGraphConfig::persistent(1000, 0);
    c.elogCapacityEdges = 1 << 14;
    c.bufferingThresholdEdges = 1 << 10;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, 10000);
    return c;
}

bool
mentions(const std::vector<std::string> &problems, const std::string &what)
{
    return std::any_of(problems.begin(), problems.end(),
                       [&](const std::string &p) {
                           return p.find(what) != std::string::npos;
                       });
}

TEST(Config, GoodConfigIsClean)
{
    EXPECT_TRUE(goodConfig().validate().empty());
}

TEST(Config, PresetsAreClean)
{
    for (auto make : {&XPGraphConfig::persistent, &XPGraphConfig::battery,
                      &XPGraphConfig::dramOnly}) {
        XPGraphConfig c = make(1000, 0);
        c.pmemBytesPerNode = recommendedBytesPerNode(c, 10000);
        EXPECT_TRUE(c.validate().empty());
    }
}

TEST(Config, ReportsEveryProblemAtOnce)
{
    XPGraphConfig c; // all required fields unset
    const auto problems = c.validate();
    EXPECT_TRUE(mentions(problems, "maxVertices"));
    EXPECT_TRUE(mentions(problems, "pmemBytesPerNode"));
    EXPECT_GE(problems.size(), 2u);
}

TEST(Config, VertexIdSpaceBounds)
{
    XPGraphConfig c = goodConfig();
    c.maxVertices = kMaxVid + 1;
    EXPECT_TRUE(mentions(c.validate(), "delete flag"));
}

TEST(Config, DeviceMustFitLog)
{
    XPGraphConfig c = goodConfig();
    c.pmemBytesPerNode = 4096;
    EXPECT_TRUE(mentions(c.validate(), "too small"));
}

TEST(Config, ThresholdMustFitLog)
{
    XPGraphConfig c = goodConfig();
    c.bufferingThresholdEdges = c.elogCapacityEdges + 1;
    EXPECT_TRUE(mentions(c.validate(), "bufferingThresholdEdges"));

    c = goodConfig();
    c.bufferingThresholdEdges = 0;
    EXPECT_TRUE(mentions(c.validate(), "bufferingThresholdEdges"));
}

TEST(Config, FlushFractionRange)
{
    XPGraphConfig c = goodConfig();
    c.flushThresholdFrac = 0.0;
    EXPECT_TRUE(mentions(c.validate(), "flushThresholdFrac"));
    c.flushThresholdFrac = 1.5;
    EXPECT_TRUE(mentions(c.validate(), "flushThresholdFrac"));
}

TEST(Config, BufferSizesMustBePow2AndOrdered)
{
    XPGraphConfig c = goodConfig();
    c.minVertexBufBytes = 24; // not a power of two
    EXPECT_TRUE(mentions(c.validate(), "minVertexBufBytes"));

    c = goodConfig();
    c.maxVertexBufBytes = c.minVertexBufBytes / 2;
    EXPECT_TRUE(mentions(c.validate(), "maxVertexBufBytes"));
}

TEST(Config, PoolMustFitABuffer)
{
    XPGraphConfig c = goodConfig();
    c.poolBulkBytes = c.maxVertexBufBytes / 2;
    EXPECT_TRUE(mentions(c.validate(), "poolBulkBytes"));

    c = goodConfig();
    c.poolLimitBytes = c.poolBulkBytes - 1;
    EXPECT_TRUE(mentions(c.validate(), "poolLimitBytes"));
}

TEST(Config, ArchiveWorkersRequired)
{
    XPGraphConfig c = goodConfig();
    c.archiveThreads = 0;
    EXPECT_TRUE(mentions(c.validate(), "archiveThreads"));
}

TEST(Config, OutInPlacementNeedsTwoNodes)
{
    XPGraphConfig c = goodConfig();
    c.placement = NumaPlacement::OutInGraph;
    c.numNodes = 4;
    EXPECT_TRUE(mentions(c.validate(), "placement"));
}

TEST(Config, RecoveryNeedsBackingDir)
{
    XPGraphConfig c = goodConfig();
    EXPECT_TRUE(c.validate(/*for_recovery=*/false).empty());
    EXPECT_TRUE(mentions(c.validate(/*for_recovery=*/true), "backingDir"));
}

TEST(ConfigDeath, ConstructorFailsFatallyWithAllProblems)
{
    XPGraphConfig c; // invalid on several axes
    EXPECT_DEATH({ XPGraph graph(c); }, "invalid XPGraphConfig");
}

} // namespace
} // namespace xpg
