/**
 * @file
 * XPGraph engine integration tests: correctness against a CSR ground
 * truth across configurations (parameterized), the Table I interfaces,
 * deletions, compaction, accounting, and stores that simulate the same
 * numbers whatever their calling thread did before.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/algorithms.hpp"
#include "core/xpgraph.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "telemetry/op_scope.hpp"
#include "util/sim_clock.hpp"

namespace xpg {
namespace {

XPGraphConfig
testConfig(vid_t num_vertices, uint64_t num_edges)
{
    XPGraphConfig c = XPGraphConfig::persistent(num_vertices, 0);
    c.pmemBytesPerNode = recommendedBytesPerNode(c, num_edges);
    c.elogCapacityEdges = 1 << 14;
    c.bufferingThresholdEdges = 1 << 10;
    c.archiveThreads = 4;
    return c;
}

/** Ingest, fully archive, and compare every adjacency against CSR —
 *  through the vector interface, the zero-copy visitor interface, and
 *  the O(1) degree cache, which must all agree. */
void
expectMatchesCsr(XPGraph &graph, vid_t num_vertices,
                 const std::vector<Edge> &edges)
{
    graph.bufferAllEdges();
    const Csr out_csr(num_vertices, edges, false);
    const Csr in_csr(num_vertices, edges, true);
    std::vector<vid_t> nebrs;
    std::vector<vid_t> visited;
    for (vid_t v = 0; v < num_vertices; ++v) {
        nebrs.clear();
        graph.getNebrsOut(v, nebrs);
        std::sort(nebrs.begin(), nebrs.end());
        const auto expect = out_csr.neighbors(v);
        ASSERT_EQ(nebrs.size(), expect.size()) << "out-degree of " << v;
        EXPECT_TRUE(std::equal(nebrs.begin(), nebrs.end(), expect.begin()))
            << "out-neighbors of " << v;

        visited.clear();
        const uint32_t n_out = graph.forEachNebrOut(
            v, [&](vid_t n) { visited.push_back(n); });
        std::sort(visited.begin(), visited.end());
        EXPECT_EQ(visited, nebrs) << "visitor out-neighbors of " << v;
        EXPECT_EQ(n_out, nebrs.size());
        EXPECT_EQ(graph.degreeOut(v), nebrs.size())
            << "degree cache (out) of " << v;

        nebrs.clear();
        graph.getNebrsIn(v, nebrs);
        std::sort(nebrs.begin(), nebrs.end());
        const auto expect_in = in_csr.neighbors(v);
        ASSERT_EQ(nebrs.size(), expect_in.size()) << "in-degree of " << v;
        EXPECT_TRUE(
            std::equal(nebrs.begin(), nebrs.end(), expect_in.begin()))
            << "in-neighbors of " << v;

        visited.clear();
        const uint32_t n_in = graph.forEachNebrIn(
            v, [&](vid_t n) { visited.push_back(n); });
        std::sort(visited.begin(), visited.end());
        EXPECT_EQ(visited, nebrs) << "visitor in-neighbors of " << v;
        EXPECT_EQ(n_in, nebrs.size());
        EXPECT_EQ(graph.degreeIn(v), nebrs.size())
            << "degree cache (in) of " << v;
    }
}

TEST(XPGraph, SmallGraphMatchesCsr)
{
    const vid_t nv = 64;
    auto edges = generateUniform(nv, 2000, 7);
    XPGraph graph(testConfig(nv, edges.size()));
    graph.session(0)->addEdges(edges.data(), edges.size());
    expectMatchesCsr(graph, nv, edges);
}

TEST(XPGraph, RmatGraphMatchesCsr)
{
    auto edges = generateRmat(10, 20000, RmatParams{}, 21);
    const vid_t nv = 1 << 10;
    XPGraph graph(testConfig(nv, edges.size()));
    graph.session(0)->addEdges(edges.data(), edges.size());
    expectMatchesCsr(graph, nv, edges);
}

/** Sweep the main configuration axes with one parameterized body. */
struct ConfigCase
{
    std::string name;
    unsigned numNodes;
    NumaPlacement placement;
    bool bind;
    uint32_t minBufBytes; ///< min = max: fixed-size buffers
    uint32_t maxBufBytes;
    MemKind memKind;
    bool battery;
    unsigned threads;
};

/**
 * Print a case as its name. Without a printer gtest dumps the raw bytes,
 * which start with the heap address of the name's buffer, and the ctest
 * names discovered from `--gtest_list_tests` would change with every run.
 */
void
PrintTo(const ConfigCase &cc, std::ostream *os)
{
    *os << cc.name;
}

class XPGraphConfigSweep : public ::testing::TestWithParam<ConfigCase>
{
};

TEST_P(XPGraphConfigSweep, MatchesCsr)
{
    const ConfigCase &cc = GetParam();
    const vid_t nv = 500;
    auto edges = generateRmat(9, 15000, RmatParams{}, 33);
    foldVertices(edges, nv);

    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.numNodes = cc.numNodes;
    c.placement = cc.placement;
    c.bindThreads = cc.bind;
    c.minVertexBufBytes = cc.minBufBytes;
    c.maxVertexBufBytes = cc.maxBufBytes;
    c.memKind = cc.memKind;
    c.batteryBacked = cc.battery;
    c.archiveThreads = cc.threads;
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());

    XPGraph graph(c);
    graph.session(0)->addEdges(edges.data(), edges.size());
    expectMatchesCsr(graph, nv, edges);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, XPGraphConfigSweep,
    ::testing::Values(
        ConfigCase{"subgraph2", 2, NumaPlacement::SubGraph, true, 16, 256,
                   MemKind::Pmem, false, 4},
        ConfigCase{"subgraph4", 4, NumaPlacement::SubGraph, true, 16, 256,
                   MemKind::Pmem, false, 8},
        ConfigCase{"outin", 2, NumaPlacement::OutInGraph, true, 16, 256,
                   MemKind::Pmem, false, 4},
        ConfigCase{"outin1", 1, NumaPlacement::OutInGraph, true, 16, 256,
                   MemKind::Pmem, false, 4},
        ConfigCase{"subgraph3", 3, NumaPlacement::SubGraph, true, 16, 256,
                   MemKind::Pmem, false, 4},
        ConfigCase{"nobind", 2, NumaPlacement::SubGraph, false, 16, 256,
                   MemKind::Pmem, false, 4},
        ConfigCase{"fixed16", 2, NumaPlacement::SubGraph, true, 16, 16,
                   MemKind::Pmem, false, 4},
        ConfigCase{"fixed256", 2, NumaPlacement::SubGraph, true, 256, 256,
                   MemKind::Pmem, false, 4},
        ConfigCase{"battery", 2, NumaPlacement::SubGraph, true, 16, 256,
                   MemKind::Pmem, true, 4},
        ConfigCase{"dram", 2, NumaPlacement::SubGraph, true, 64, 64,
                   MemKind::Dram, true, 4},
        ConfigCase{"memorymode", 2, NumaPlacement::SubGraph, true, 64, 64,
                   MemKind::MemoryMode, true, 4},
        ConfigCase{"singlethread", 1, NumaPlacement::SubGraph, true, 16,
                   256, MemKind::Pmem, false, 1},
        ConfigCase{"manythreads", 2, NumaPlacement::SubGraph, true, 16,
                   256, MemKind::Pmem, false, 16}),
    [](const ::testing::TestParamInfo<ConfigCase> &info) {
        return info.param.name;
    });

TEST(XPGraph, DeleteCancelsEdge)
{
    const vid_t nv = 16;
    XPGraph graph(testConfig(nv, 100));
    graph.session(0)->addEdge(1, 2);
    graph.session(0)->addEdge(1, 3);
    graph.session(0)->addEdge(1, 2); // duplicate
    graph.session(0)->delEdge(1, 2); // cancels one copy
    graph.bufferAllEdges();

    std::vector<vid_t> nebrs;
    graph.getNebrsOut(1, nebrs);
    std::sort(nebrs.begin(), nebrs.end());
    EXPECT_EQ(nebrs, (std::vector<vid_t>{2, 3}));

    nebrs.clear();
    graph.getNebrsIn(2, nebrs);
    EXPECT_EQ(nebrs, (std::vector<vid_t>{1}));
}

TEST(XPGraph, DeleteSurvivesFlushAndCompact)
{
    const vid_t nv = 16;
    XPGraph graph(testConfig(nv, 1000));
    graph.session(0)->addEdge(1, 2);
    graph.bufferAllEdges();
    graph.flushAllVbufs(); // edge (1,2) now in PMEM
    graph.session(0)->delEdge(1, 2);
    graph.bufferAllEdges();
    std::vector<vid_t> nebrs;
    EXPECT_EQ(graph.getNebrsOut(1, nebrs), 0u);

    graph.compactAdjs(1);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsOut(1, nebrs), 0u);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsIn(2, nebrs), 0u);
}

TEST(XPGraph, LoggedEdgesVisibleBeforeBuffering)
{
    const vid_t nv = 16;
    XPGraphConfig c = testConfig(nv, 100);
    c.bufferingThresholdEdges = 1 << 10; // never triggers here
    XPGraph graph(c);
    graph.session(0)->addEdge(3, 4);
    graph.session(0)->addEdge(3, 5);

    std::vector<Edge> logged;
    EXPECT_EQ(graph.getLoggedEdges(logged), 2u);
    EXPECT_EQ(logged[0], (Edge{3, 4}));

    std::vector<vid_t> nebrs;
    EXPECT_EQ(graph.getNebrsLogOut(3, nebrs), 2u);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsLogIn(4, nebrs), 1u);
    EXPECT_EQ(nebrs[0], 3u);

    // Not yet in buffers or PMEM.
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsBufOut(3, nebrs), 0u);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsFlushOut(3, nebrs), 0u);

    graph.bufferAllEdges();
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsBufOut(3, nebrs), 2u);
    std::vector<Edge> after;
    EXPECT_EQ(graph.getLoggedEdges(after), 0u);
}

TEST(XPGraph, VisitorAgreesAcrossStorageLayers)
{
    // Adjacencies spanning flushed PMEM chains, DRAM vertex buffers,
    // and tombstones in both layers: the visitor and degree cache must
    // agree with the materializing interface everywhere.
    const vid_t nv = 64;
    XPGraphConfig c = testConfig(nv, 8000);
    XPGraph graph(c);

    auto first = generateUniform(nv, 3000, 41);
    graph.session(0)->addEdges(first.data(), first.size());
    graph.bufferAllEdges();
    graph.flushAllVbufs(); // first batch now in PMEM chains

    // Delete a slice of the flushed edges (tombstones against PMEM).
    for (uint64_t i = 0; i < first.size(); i += 17)
        graph.session(0)->delEdge(first[i].src, first[i].dst);

    // Second batch stays in DRAM buffers, with some same-batch deletes.
    auto second = generateUniform(nv, 2000, 42);
    graph.session(0)->addEdges(second.data(), second.size());
    for (uint64_t i = 0; i < second.size(); i += 13)
        graph.session(0)->delEdge(second[i].src, second[i].dst);
    graph.bufferAllEdges();

    std::vector<vid_t> nebrs;
    std::vector<vid_t> visited;
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        graph.getNebrsOut(v, nebrs);
        std::sort(nebrs.begin(), nebrs.end());
        visited.clear();
        graph.forEachNebrOut(v, [&](vid_t n) { visited.push_back(n); });
        std::sort(visited.begin(), visited.end());
        EXPECT_EQ(visited, nebrs) << "out of " << v;
        EXPECT_EQ(graph.degreeOut(v), nebrs.size()) << "degree of " << v;

        nebrs.clear();
        graph.getNebrsIn(v, nebrs);
        std::sort(nebrs.begin(), nebrs.end());
        visited.clear();
        graph.forEachNebrIn(v, [&](vid_t n) { visited.push_back(n); });
        std::sort(visited.begin(), visited.end());
        EXPECT_EQ(visited, nebrs) << "in of " << v;
        EXPECT_EQ(graph.degreeIn(v), nebrs.size()) << "in-degree of " << v;
    }
}

TEST(XPGraph, DegreeCacheTracksDeletesThroughCompaction)
{
    const vid_t nv = 16;
    XPGraph graph(testConfig(nv, 1000));
    graph.session(0)->addEdge(1, 2);
    graph.session(0)->addEdge(1, 3);
    graph.session(0)->addEdge(1, 2); // duplicate
    graph.bufferAllEdges();
    EXPECT_EQ(graph.degreeOut(1), 3u);

    graph.session(0)->delEdge(1, 2); // cancels one copy
    graph.bufferAllEdges();
    EXPECT_EQ(graph.degreeOut(1), 2u);
    EXPECT_EQ(graph.degreeIn(2), 1u);

    graph.flushAllVbufs();
    EXPECT_EQ(graph.degreeOut(1), 2u);

    graph.compactAdjs(1);
    EXPECT_EQ(graph.degreeOut(1), 2u);
    graph.compactAllAdjs();
    EXPECT_EQ(graph.degreeIn(2), 1u);

    // After compaction the tombstones are gone; deleting again removes
    // the surviving copy and the cache must follow.
    graph.session(0)->delEdge(1, 2);
    graph.bufferAllEdges();
    EXPECT_EQ(graph.degreeOut(1), 1u);
    EXPECT_EQ(graph.degreeIn(2), 0u);
}

TEST(XPGraph, LogIndexFollowsTheBufferingWindow)
{
    const vid_t nv = 16;
    XPGraphConfig c = testConfig(nv, 1000);
    c.bufferingThresholdEdges = 1 << 10; // manual buffering only
    XPGraph graph(c);

    graph.session(0)->addEdge(3, 4);
    graph.session(0)->addEdge(3, 5);
    graph.session(0)->addEdge(7, 4);

    std::vector<vid_t> nebrs;
    EXPECT_EQ(graph.getNebrsLogOut(3, nebrs), 2u);
    EXPECT_EQ(nebrs, (std::vector<vid_t>{4, 5}));
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsLogIn(4, nebrs), 2u);
    std::sort(nebrs.begin(), nebrs.end());
    EXPECT_EQ(nebrs, (std::vector<vid_t>{3, 7}));

    // Repeated queries hit the already-built index and stay correct.
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsLogOut(7, nebrs), 1u);
    EXPECT_EQ(nebrs[0], 4u);

    // Advance the window: buffered edges leave the log view, and edges
    // logged afterwards are indexed incrementally.
    graph.bufferAllEdges();
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsLogOut(3, nebrs), 0u);

    graph.session(0)->addEdge(3, 9);
    graph.session(0)->addEdge(8, 9);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsLogOut(3, nebrs), 1u);
    EXPECT_EQ(nebrs[0], 9u);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsLogIn(9, nebrs), 2u);
    std::sort(nebrs.begin(), nebrs.end());
    EXPECT_EQ(nebrs, (std::vector<vid_t>{3, 8}));

    // And the window keeps sliding.
    graph.bufferAllEdges();
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsLogIn(9, nebrs), 0u);
}

TEST(XPGraph, FlushMovesBufferedToPmem)
{
    const vid_t nv = 16;
    XPGraph graph(testConfig(nv, 100));
    graph.session(0)->addEdge(1, 2);
    graph.bufferAllEdges();
    std::vector<vid_t> nebrs;
    EXPECT_EQ(graph.getNebrsBufOut(1, nebrs), 1u);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsFlushOut(1, nebrs), 0u);

    graph.flushAllVbufs();
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsBufOut(1, nebrs), 0u);
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsFlushOut(1, nebrs), 1u);
    // Live view unchanged.
    nebrs.clear();
    EXPECT_EQ(graph.getNebrsOut(1, nebrs), 1u);
}

TEST(XPGraph, CompactMergesChains)
{
    const vid_t nv = 8;
    XPGraphConfig c = testConfig(nv, 40000);
    XPGraph graph(c);
    // A single hot vertex forces many buffer flushes -> long chain.
    std::vector<Edge> edges;
    for (vid_t i = 0; i < 5000; ++i)
        edges.push_back(Edge{0, static_cast<vid_t>(1 + (i % 7))});
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();
    graph.flushAllVbufs();

    std::vector<vid_t> before;
    graph.getNebrsOut(0, before);
    graph.compactAllAdjs();
    std::vector<vid_t> after;
    graph.getNebrsOut(0, after);
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    EXPECT_EQ(before, after);
}

TEST(XPGraph, CompactAllAdjsMatchesCsrAndLeavesNoTombstone)
{
    // A store-wide pass over a store archived by 64 threads: every
    // adjacency matches the CSR reference, and no tombstone is left in
    // any layer.
    const vid_t nv = 512;
    XPGraphConfig c = testConfig(nv, 20000);
    c.archiveThreads = 64;
    XPGraph graph(c);
    auto edges = generateUniform(nv, 12000, 29);
    auto session = graph.session(0);
    session->addEdges(edges.data(), edges.size());
    std::vector<Edge> live;
    for (uint64_t i = 0; i < edges.size(); ++i) {
        if (i % 3 == 0)
            session->delEdge(edges[i].src, edges[i].dst);
        else
            live.push_back(edges[i]);
    }
    graph.archiveAll();
    graph.compactAllAdjs();

    expectMatchesCsr(graph, nv, live);
    std::vector<vid_t> recs;
    for (vid_t v = 0; v < nv; ++v) {
        recs.clear();
        graph.getNebrsFlushOut(v, recs);
        graph.getNebrsFlushIn(v, recs);
        graph.getNebrsBufOut(v, recs);
        graph.getNebrsBufIn(v, recs);
        EXPECT_TRUE(std::none_of(recs.begin(), recs.end(),
                                 [](vid_t rec) { return isDelete(rec); }))
            << "tombstone left in the chains of " << v;
    }
}

/** The compaction probe: 512 vertices, 3,000 uniform edges, half of
 *  them deleted, archived by @p archive_threads, the session still
 *  open. compactMinRecords 8 makes the deleted-from slots candidates. */
struct CompactionProbe
{
    std::unique_ptr<XPGraph> graph;
    std::unique_ptr<IngestSession> session; ///< closes before graph
    std::vector<Edge> edges;

    explicit CompactionProbe(unsigned archive_threads)
        : edges(generateUniform(512, 3000, 3))
    {
        XPGraphConfig c = testConfig(512, edges.size());
        c.bufferingThresholdEdges = 1 << 9;
        c.archiveThreads = archive_threads;
        c.compactMinRecords = 8;
        graph = std::make_unique<XPGraph>(c);
        session = graph->session(0);
        session->addEdges(edges.data(), edges.size());
        for (uint64_t i = 0; i < edges.size(); i += 2)
            session->delEdge(edges[i].src, edges[i].dst);
        graph->archiveAll();
    }
};

TEST(XPGraph, EveryCompactionIsOneRecordedPass)
{
    // compactAdjs, runCompactionPass and compactAllAdjs run the one
    // compaction pass on the calling thread: each closes exactly one
    // compaction_pass record, whose simulated time is what its caller
    // was charged and whose media writes are the device's, and counts
    // one pass.
    CompactionProbe probe(1);
    XPGraph &graph = *probe.graph;
    const vid_t v = probe.edges[0].src; // its first out-edge is deleted
    uint64_t returned = 0;
    const std::pair<const char *, std::function<void()>> calls[] = {
        {"compactAdjs", [&] { graph.compactAdjs(v); }},
        {"runCompactionPass", [&] { returned = graph.runCompactionPass(); }},
        {"compactAllAdjs", [&] { graph.compactAllAdjs(); }},
    };
    auto &trace = telemetry::Telemetry::instance().trace();
    for (const auto &[name, call] : calls) {
        SCOPED_TRACE(name);
        const uint64_t ops0 = telemetry::OpScope::opsOpened();
        const telemetry::OpClassTotals class0 =
            telemetry::OpScope::classTotals(telemetry::OpClass::Compaction);
        const IngestStats s0 = graph.snapshotStats();
        const uint64_t written0 = graph.pmemCounters().mediaBytesWritten;
        const uint64_t first = trace.emitted();
        SimScope caller;
        call();
        const uint64_t caller_ns = caller.elapsed();

        EXPECT_EQ(telemetry::OpScope::opsOpened() - ops0, 1u);
        const telemetry::OpClassTotals class1 =
            telemetry::OpScope::classTotals(telemetry::OpClass::Compaction);
        EXPECT_EQ(class1.ops - class0.ops, 1u);
        EXPECT_GT(caller_ns, 0u);
        EXPECT_EQ(class1.simNs - class0.simNs, caller_ns);
        EXPECT_EQ(class1.mediaWriteBytes - class0.mediaWriteBytes,
                  graph.pmemCounters().mediaBytesWritten - written0);
        const IngestStats s1 = graph.snapshotStats();
        EXPECT_EQ(s1.compactionPasses - s0.compactionPasses, 1u);
        const uint64_t chains = s1.compactionSlots - s0.compactionSlots;
        EXPECT_GT(chains, 0u);
        std::vector<uint64_t> span_chains;
        for (const telemetry::TraceEventView &ev : trace.collect())
            if (ev.ticket >= first &&
                std::string_view(ev.name) == "compaction_pass")
                span_chains.push_back(ev.a0);
        EXPECT_EQ(span_chains, std::vector<uint64_t>{chains});
        if (std::string_view(name) == "runCompactionPass") {
            EXPECT_EQ(returned, chains);
        }
    }
}

TEST(XPGraph, CompactAllAdjsIsThreadCountFree)
{
    // compactAllAdjs is one serial pass: it writes the same media bytes
    // whatever the archive thread count, and it leaves the devices
    // declared as it found them, so the open session's next append
    // logs as it would after an idle session opened and closed (which
    // re-declares the idle writers). Nothing else of the 16-thread
    // build is compared: its archiveAll follows host scheduling.
    const auto extra = generateUniform(512, 256, 5);
    struct Compacted
    {
        uint64_t mediaWritten = 0;
        uint64_t appendNs = 0;
    };
    const auto compacted = [&](unsigned archive_threads, bool idle_session) {
        CompactionProbe probe(archive_threads);
        XPGraph &graph = *probe.graph;
        Compacted c;
        const uint64_t written0 = graph.pmemCounters().mediaBytesWritten;
        graph.compactAllAdjs();
        c.mediaWritten = graph.pmemCounters().mediaBytesWritten - written0;
        if (idle_session) {
            auto idle = graph.session(0);
        }
        const uint64_t logged0 = graph.stats().loggingNs;
        probe.session->addEdges(extra.data(), extra.size());
        c.appendNs = graph.stats().loggingNs - logged0;
        return c;
    };
    const Compacted one = compacted(1, false);
    const Compacted wide = compacted(16, false);
    EXPECT_GT(one.mediaWritten, 0u);
    EXPECT_EQ(wide.mediaWritten, one.mediaWritten);
    EXPECT_GT(wide.appendNs, 0u);
    EXPECT_EQ(wide.appendNs, compacted(16, true).appendNs);
}

TEST(XPGraph, SubGraphPlacementBalancesVerticesAcrossNodes)
{
    const vid_t nv = 1000;
    XPGraphConfig c = testConfig(nv, 100);
    c.numNodes = 4;
    c.placement = NumaPlacement::SubGraph;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, 100);
    XPGraph graph(c);
    std::vector<unsigned> counts(4, 0);
    for (vid_t v = 0; v < nv; ++v) {
        EXPECT_EQ(graph.nodeOfIn(v), graph.nodeOfOut(v));
        ++counts[graph.nodeOfOut(v)];
    }
    for (unsigned n : counts)
        EXPECT_EQ(n, 250u);
}

TEST(XPGraph, StatsCountEdges)
{
    const vid_t nv = 64;
    auto edges = generateUniform(nv, 5000, 9);
    XPGraph graph(testConfig(nv, edges.size()));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();
    const IngestStats s = graph.stats();
    EXPECT_EQ(s.edgesLogged, 5000u);
    EXPECT_EQ(s.edgesBuffered, 5000u);
    EXPECT_GT(s.bufferingPhases, 1u);
    EXPECT_GT(s.loggingNs, 0u);
    EXPECT_GT(s.bufferingNs, 0u);
    EXPECT_GT(s.ingestNs(), 0u);
}

TEST(XPGraph, MemoryUsageBreakdownIsPopulated)
{
    const vid_t nv = 256;
    auto edges = generateUniform(nv, 20000, 5);
    XPGraph graph(testConfig(nv, edges.size()));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();
    graph.flushAllVbufs();
    const MemoryUsage mu = graph.memoryUsage();
    EXPECT_GT(mu.metaBytes, 0u);
    EXPECT_GT(mu.vbufBytes, 0u);
    EXPECT_GT(mu.elogBytes, 0u);
    EXPECT_GT(mu.pblkBytes, 0u);
}

TEST(XPGraph, VbufBytesIsTheBufferHighWaterMark)
{
    // Vertex buffers reach known layers (a 16 B buffer holds 3 records,
    // a 32 B one 7): out(0) holds 4 records (32 B) and in(1..4) one each
    // (4 x 16 B); out(8) and in(9) hold 4 each (2 x 32 B); out(10) and
    // in(11) one each (2 x 16 B). 192 B at the phase's end, whichever
    // worker inserted what — and still the figure after a pool-pressure
    // flush (a one-bulk pool limit) has freed every buffer.
    const std::vector<Edge> edges = {{0, 1}, {0, 2}, {0, 3}, {0, 4},
                                     {8, 9}, {8, 9}, {8, 9}, {8, 9},
                                     {10, 11}};
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " archive threads");
        XPGraphConfig c = testConfig(16, edges.size());
        c.archiveThreads = threads;
        c.poolBulkBytes = 1 << 16;
        c.poolLimitBytes = 1 << 16;
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.archiveAll();
        EXPECT_EQ(graph.pool().bytesLive(), 0u);
        EXPECT_EQ(graph.memoryUsage().vbufBytes, 192u);
    }
}

TEST(XPGraph, VbufBytesDoesNotDependOnArchiveThreads)
{
    // Per-vertex buffer sizes do not depend on which worker inserts, so
    // the DRAM figure of one stream is one number for any worker count.
    const vid_t nv = 1 << 10;
    const auto edges = generateRmat(10, 40000, RmatParams{}, 17);
    uint64_t expect = 0;
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " archive threads");
        XPGraphConfig c = testConfig(nv, edges.size());
        c.archiveThreads = threads;
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.archiveAll();
        const uint64_t vbuf = graph.memoryUsage().vbufBytes;
        EXPECT_GT(graph.stats().bufferingPhases, 4u);
        if (threads == 1)
            expect = vbuf;
        EXPECT_EQ(vbuf, expect);
    }
}

TEST(XPGraph, PmemCountersShowWrites)
{
    const vid_t nv = 256;
    auto edges = generateUniform(nv, 20000, 5);
    XPGraph graph(testConfig(nv, edges.size()));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.flushAllVbufs();
    const PcmCounters c = graph.pmemCounters();
    EXPECT_GE(c.appBytesWritten, 20000u * sizeof(Edge));
    EXPECT_GT(c.mediaBytesWritten, 0u);
}

TEST(XPGraph, LogWrapsUnderSmallCapacity)
{
    // Force many wrap-arounds and flush-alls.
    const vid_t nv = 128;
    XPGraphConfig c = testConfig(nv, 60000);
    c.elogCapacityEdges = 1 << 10;
    c.bufferingThresholdEdges = 1 << 8;
    auto edges = generateUniform(nv, 50000, 13);
    XPGraph graph(c);
    graph.session(0)->addEdges(edges.data(), edges.size());
    expectMatchesCsr(graph, nv, edges);
    EXPECT_GT(graph.stats().flushAllPhases, 1u);
}

TEST(XPGraph, PoolLimitTriggersFlushAll)
{
    const vid_t nv = 4096;
    XPGraphConfig c = testConfig(nv, 200000);
    c.poolBulkBytes = 1 << 16;
    c.poolLimitBytes = 1 << 18; // tiny pool: must flush to recycle
    auto edges = generateUniform(nv, 100000, 17);
    XPGraph graph(c);
    graph.session(0)->addEdges(edges.data(), edges.size());
    EXPECT_GT(graph.stats().flushAllPhases, 0u);
    expectMatchesCsr(graph, nv, edges);
    EXPECT_LE(graph.pool().bytesReserved(), (1u << 18));
}

/** What one build of the history test's store simulated. */
struct StoreBuild
{
    std::string pcm; ///< pmemCounters(), every field
    IngestStats stats;
    uint64_t bfsNs = 0;
};

TEST(XPGraph, StoresDoNotInheritTheirThreadsHistory)
{
    // One archive and one query thread. The same store must simulate
    // the same numbers on a fresh thread and on a thread that has just
    // used another store: a closed bound session, a one-worker archive
    // phase and a one-thread BFS each leave the thread as they found
    // it.
    const vid_t nv = 512;
    const auto edges = generateUniform(nv, 3000, 3);
    const auto config = [&](unsigned archive_threads) {
        XPGraphConfig c = testConfig(nv, edges.size());
        c.bufferingThresholdEdges = 1 << 9;
        c.archiveThreads = archive_threads;
        return c;
    };
    const auto ingest = [&](XPGraph &graph, unsigned node) {
        graph.session(node)->addEdges(edges.data(), edges.size());
    };
    const auto build = [&](unsigned archive_threads) {
        XPGraph graph(config(archive_threads));
        ingest(graph, 0);
        graph.archiveAll();
        StoreBuild b;
        b.bfsNs = runBfs(graph, edges[0].src, 1).simNs;
        b.stats = graph.snapshotStats();
        b.pcm = graph.pmemCounters().toJson().dump();
        return b;
    };
    // Another store, logged (and archived) on a helper thread, so that
    // a prelude runs only what it names on the thread under test.
    const auto prepared = [&](bool archived) {
        auto graph = std::make_unique<XPGraph>(config(1));
        std::thread([&] {
            ingest(*graph, 0);
            if (archived)
                graph->archiveAll();
        }).join();
        return graph;
    };
    const std::pair<const char *, std::function<void()>> preludes[] = {
        {"a closed session bound to node 1",
         [&] {
             XPGraph other(config(1));
             ingest(other, 1);
         }},
        {"a one-worker archive phase",
         [&] { prepared(false)->archiveAll(); }},
        {"a one-thread BFS",
         [&] { runBfs(*prepared(true), edges[0].src, 1); }},
    };

    std::thread([&] {
        const StoreBuild fresh = build(1);
        EXPECT_GT(fresh.stats.bufferingPhases, 4u);
        for (const auto &[name, prelude] : preludes) {
            SCOPED_TRACE(name);
            prelude();
            const StoreBuild again = build(1);
            EXPECT_EQ(again.pcm, fresh.pcm);
            EXPECT_TRUE(again.stats == fresh.stats);
            EXPECT_EQ(again.bfsNs, fresh.bfsNs);
        }
        // The session's logging is its own: one stream logs in the same
        // time whether one worker or two archive behind it. (Only that:
        // the rest of a two-worker build follows host scheduling.)
        EXPECT_EQ(build(2).stats.loggingNs, fresh.stats.loggingNs);
    }).join();
}

} // namespace
} // namespace xpg
