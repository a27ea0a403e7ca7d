/**
 * @file
 * Engine edge cases: empty stores, single-vertex graphs, self-loops,
 * duplicate-heavy streams, threads < nodes, out/in-graph placement
 * queries, battery-variant flush behaviour, and config validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace xpg {
namespace {

XPGraphConfig
smallConfig(vid_t nv, uint64_t edges)
{
    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.elogCapacityEdges = 1 << 12;
    c.bufferingThresholdEdges = 1 << 8;
    c.archiveThreads = 4;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges);
    return c;
}

TEST(EngineEdgeCases, EmptyStoreAnswersQueries)
{
    XPGraph graph(smallConfig(10, 100));
    std::vector<vid_t> nebrs;
    EXPECT_EQ(graph.getNebrsOut(5, nebrs), 0u);
    EXPECT_EQ(graph.getNebrsIn(0, nebrs), 0u);
    std::vector<Edge> logged;
    EXPECT_EQ(graph.getLoggedEdges(logged), 0u);
    graph.bufferAllEdges(); // no-op
    graph.flushAllVbufs();  // no-op
    graph.compactAllAdjs(); // no-op
    EXPECT_EQ(graph.stats().edgesLogged, 0u);
}

TEST(EngineEdgeCases, SelfLoopsAreStoredOncePerDirection)
{
    XPGraph graph(smallConfig(4, 100));
    graph.session(0)->addEdge(2, 2);
    graph.bufferAllEdges();
    std::vector<vid_t> nebrs;
    EXPECT_EQ(graph.getNebrsOut(2, nebrs), 1u);
    EXPECT_EQ(nebrs[0], 2u);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsIn(2, nebrs), 1u);
}

TEST(EngineEdgeCases, DuplicateHeavyStream)
{
    XPGraph graph(smallConfig(8, 3000));
    {
        auto s = graph.session(0);
        for (int i = 0; i < 2000; ++i)
            s->addEdge(1, 2);
    }
    graph.bufferAllEdges();
    std::vector<vid_t> nebrs;
    EXPECT_EQ(graph.getNebrsOut(1, nebrs), 2000u);
    for (vid_t n : nebrs)
        EXPECT_EQ(n, 2u);
    // Deleting twice removes exactly two copies.
    {
        auto s = graph.session(0);
        s->delEdge(1, 2);
        s->delEdge(1, 2);
    }
    graph.bufferAllEdges();
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsOut(1, nebrs), 1998u);
}

TEST(EngineEdgeCases, FewerThreadsThanNodesCoversAllPartitions)
{
    const vid_t nv = 300;
    auto edges = generateUniform(nv, 8000, 3);
    XPGraphConfig c = smallConfig(nv, edges.size());
    c.numNodes = 4;
    c.archiveThreads = 1; // fewer threads than nodes
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
    XPGraph graph(c);
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    const Csr csr(nv, edges, false);
    uint64_t total = 0;
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        total += graph.getNebrsOut(v, nebrs);
        ASSERT_EQ(nebrs.size(), csr.degree(v)) << "degree of " << v;
    }
    EXPECT_EQ(total, edges.size()) << "edges were dropped";
}

TEST(EngineEdgeCases, OutInPlacementServesBothDirections)
{
    const vid_t nv = 100;
    auto edges = generateUniform(nv, 3000, 5);
    XPGraphConfig c = smallConfig(nv, edges.size());
    c.placement = NumaPlacement::OutInGraph;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
    XPGraph graph(c);
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    EXPECT_EQ(graph.nodeOfOut(13), 0);
    EXPECT_EQ(graph.nodeOfIn(13), 1);

    const Csr out_csr(nv, edges, false);
    const Csr in_csr(nv, edges, true);
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < nv; v += 7) {
        nebrs.clear();
        ASSERT_EQ(graph.getNebrsOut(v, nebrs), out_csr.degree(v));
        nebrs.clear();
        ASSERT_EQ(graph.getNebrsIn(v, nebrs), in_csr.degree(v));
    }
}

TEST(EngineEdgeCases, BatteryVariantSkipsLogPressureFlushes)
{
    const vid_t nv = 200;
    auto edges = generateUniform(nv, 20000, 7);

    auto flushes = [&](bool battery) {
        XPGraphConfig c = smallConfig(nv, edges.size());
        c.elogCapacityEdges = 1 << 10; // heavy log pressure
        c.batteryBacked = battery;
        c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges();
        return graph.stats().flushAllPhases;
    };
    EXPECT_GT(flushes(false), 0u);
    EXPECT_EQ(flushes(true), 0u)
        << "battery-backed buffers need no log-pressure flush";
}

TEST(EngineEdgeCases, MaxVertexIdIsUsable)
{
    const vid_t nv = 1000;
    XPGraph graph(smallConfig(nv, 100));
    {
        auto s = graph.session(0);
        s->addEdge(nv - 1, 0);
        s->addEdge(0, nv - 1);
    }
    graph.bufferAllEdges();
    std::vector<vid_t> nebrs;
    EXPECT_EQ(graph.getNebrsOut(nv - 1, nebrs), 1u);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsIn(nv - 1, nebrs), 1u);
}

TEST(EngineEdgeCases, OutOfRangeEdgePanics)
{
    XPGraph xpgraph(smallConfig(10, 100));
    GraphOneConfig gc;
    gc.maxVertices = 10;
    gc.elogCapacityEdges = 1 << 12;
    gc.archiveThreads = 4;
    gc.bytesPerNode = graphoneRecommendedBytesPerNode(gc, 100);
    GraphOne graphone(gc);
    // Range-checked at the ingest boundary, in the client's thread,
    // before the record reaches the shared log, on every engine; a
    // delete's flag passes the check, its endpoint does not.
    for (GraphStore *graph : {static_cast<GraphStore *>(&xpgraph),
                              static_cast<GraphStore *>(&graphone)}) {
        EXPECT_DEATH(graph->session(0)->addEdge(10, 0), "out of range");
        EXPECT_DEATH(graph->session(0)->delEdge(0, 10), "out of range");
        graph->session(0)->delEdge(0, 9);
    }
}

TEST(EngineEdgeCases, MissingConfigIsRejected)
{
    XPGraphConfig no_vertices;
    no_vertices.pmemBytesPerNode = 1 << 20;
    EXPECT_DEATH(XPGraph{no_vertices}, "maxVertices");

    XPGraphConfig no_bytes = XPGraphConfig::persistent(10, 0);
    EXPECT_DEATH(XPGraph{no_bytes}, "pmemBytesPerNode");
}

TEST(EngineEdgeCases, TinyDeviceIsRejectedCleanly)
{
    XPGraphConfig c = XPGraphConfig::persistent(1 << 20, 1 << 20);
    EXPECT_EXIT(XPGraph{c}, ::testing::ExitedWithCode(1), "too small");
}

} // namespace
} // namespace xpg
