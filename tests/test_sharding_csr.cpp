/**
 * @file
 * Edge sharding (monotone ranged shards, balanced assignment) and the
 * CSR reference builder (ordering, deletes, reverse edges, sizes), plus
 * the edge I/O round trip.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_io.hpp"
#include "graph/edge_sharding.hpp"
#include "graph/generators.hpp"
#include "temp_dir.hpp"

namespace xpg {
namespace {

/** Split @p edges into @p n ranged lists by source, as both engines do. */
std::vector<std::vector<Edge>>
shardBySource(const std::vector<Edge> &edges, vid_t nv, unsigned n)
{
    std::vector<std::vector<Edge>> shards(n);
    for (const Edge &e : edges)
        shards[shardOf(e.src, nv, n)].push_back(e);
    return shards;
}

TEST(EdgeSharder, ShardOfIsMonotoneInVertex)
{
    unsigned prev = 0;
    for (vid_t v = 0; v < 1000; ++v) {
        const unsigned s = shardOf(v, 1000, 8);
        EXPECT_GE(s, prev);
        EXPECT_LT(s, 8u);
        prev = s;
    }
    EXPECT_EQ(prev, 7u); // last vertex lands in the last shard
}

TEST(EdgeSharder, AssignCoversAllShardsContiguously)
{
    const vid_t nv = 512;
    const auto edges = generateRmat(9, 20000, RmatParams{}, 13);
    const auto shards = shardBySource(edges, nv, 32);
    const auto assign = assignShards(shards, 4);
    unsigned cursor = 0;
    for (const auto &a : assign) {
        EXPECT_EQ(a.firstShard, cursor);
        EXPECT_GE(a.lastShard, a.firstShard);
        cursor = a.lastShard;
    }
    EXPECT_EQ(cursor, 32u);
}

TEST(EdgeSharder, AssignBalancesEdgeCounts)
{
    const vid_t nv = 4096;
    const auto edges = generateUniform(nv, 40000, 17);
    const auto shards = shardBySource(edges, nv, 64);
    const auto assign = assignShards(shards, 8);
    uint64_t max_load = 0;
    for (const auto &a : assign) {
        uint64_t load = 0;
        for (unsigned s = a.firstShard; s < a.lastShard; ++s)
            load += shards[s].size();
        max_load = std::max(max_load, load);
    }
    // Uniform edges: no worker should exceed ~1.5x the fair share.
    EXPECT_LT(max_load, edges.size() / 8 * 3 / 2);
}

TEST(EdgeSharder, AssignHandlesMoreWorkersThanShards)
{
    std::vector<std::vector<Edge>> shards(2);
    shards[0].push_back({0, 1});
    shards[1].push_back({1, 2});
    const auto assign = assignShards(shards, 8);
    uint64_t covered = 0;
    for (const auto &a : assign)
        covered += a.lastShard - a.firstShard;
    EXPECT_EQ(covered, 2u);
}

TEST(Csr, NeighborsAreSortedAndComplete)
{
    std::vector<Edge> edges{{0, 3}, {0, 1}, {0, 2}, {2, 0}};
    Csr csr(4, edges);
    const auto n0 = csr.neighbors(0);
    EXPECT_EQ(std::vector<vid_t>(n0.begin(), n0.end()),
              (std::vector<vid_t>{1, 2, 3}));
    EXPECT_EQ(csr.degree(1), 0u);
    EXPECT_EQ(csr.numEdges(), 4u);
}

TEST(Csr, ReverseBuildsInEdges)
{
    std::vector<Edge> edges{{0, 3}, {1, 3}, {3, 0}};
    Csr in(4, edges, true);
    const auto n3 = in.neighbors(3);
    EXPECT_EQ(std::vector<vid_t>(n3.begin(), n3.end()),
              (std::vector<vid_t>{0, 1}));
    EXPECT_EQ(in.degree(0), 1u);
}

TEST(Csr, DeleteCancelsOneInsert)
{
    std::vector<Edge> edges{{0, 1}, {0, 1}, {0, asDelete(1)}};
    Csr csr(2, edges);
    EXPECT_EQ(csr.degree(0), 1u); // one duplicate survives
}

TEST(Csr, DeleteBeforeInsertIsIgnored)
{
    std::vector<Edge> edges{{0, asDelete(1)}, {0, 1}};
    Csr csr(2, edges);
    EXPECT_EQ(csr.degree(0), 1u); // delete applied to nothing
}

TEST(Csr, SizeBytesCountsOffsetsAndAdjacency)
{
    std::vector<Edge> edges{{0, 1}, {1, 0}};
    Csr csr(2, edges);
    EXPECT_EQ(csr.sizeBytes(), 3 * sizeof(uint64_t) + 2 * sizeof(vid_t));
}

TEST(EdgeIo, RoundTrip)
{
    const std::string dir = makeTempDir("xpg_edge_io");
    const std::string path = dir + "/edges.bin";
    const auto edges = generateUniform(100, 1000, 3);
    saveEdgeList(path, edges);
    const auto back = loadEdgeList(path);
    EXPECT_EQ(edges, back);
    std::filesystem::remove_all(dir);
}

TEST(EdgeIo, MissingFileIsFatal)
{
    EXPECT_EXIT(loadEdgeList("/nonexistent/nope.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(Types, DeleteFlagHelpers)
{
    EXPECT_FALSE(isDelete(5));
    EXPECT_TRUE(isDelete(asDelete(5)));
    EXPECT_EQ(rawVid(asDelete(5)), 5u);
    EXPECT_EQ(asDelete(asDelete(7)), asDelete(7));
}

} // namespace
} // namespace xpg
