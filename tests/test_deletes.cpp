/**
 * @file
 * First-class edge deletes + compaction (DESIGN.md §13): delete records
 * riding the ingest path cancel inserts everywhere a reader can look
 * (degrees, neighbor lists, views), the threshold-driven compactor
 * reclaims the space they free, and a sliding retention window is just
 * bulk tombstones plus one compaction pass.
 *
 * Suite names matter: the sanitizer CI stages pick these tests up via
 * the Delete*:Compact* filters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/generators.hpp"
#include "graph/graph_store.hpp"
#include "graph/retention.hpp"

namespace xpg {
namespace {

XPGraphConfig
smallConfig(vid_t num_vertices, uint64_t num_edges)
{
    XPGraphConfig c = XPGraphConfig::persistent(num_vertices, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9;
    c.archiveThreads = 4;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, num_edges * 2);
    return c;
}

std::vector<vid_t>
sortedNebrsOut(const GraphView &view, vid_t v)
{
    std::vector<vid_t> nebrs;
    view.getNebrsOut(v, nebrs);
    std::sort(nebrs.begin(), nebrs.end());
    return nebrs;
}

std::vector<vid_t>
sortedNebrsIn(const GraphView &view, vid_t v)
{
    std::vector<vid_t> nebrs;
    view.getNebrsIn(v, nebrs);
    std::sort(nebrs.begin(), nebrs.end());
    return nebrs;
}

/** Order-insensitive digest of the whole adjacency (out + in). */
uint64_t
adjChecksum(const GraphView &view)
{
    uint64_t sum = 0;
    for (vid_t v = 0; v < view.numVertices(); ++v) {
        for (vid_t n : sortedNebrsOut(view, v))
            sum += 0x9e3779b97f4a7c15ull * (v + 1) + n;
        for (vid_t n : sortedNebrsIn(view, v))
            sum += 0xc2b2ae3d27d4eb4full * (v + 1) + n;
    }
    return sum;
}

TEST(DeleteTest, DeleteBeforeArchive)
{
    const vid_t nv = 64;
    XPGraph graph(smallConfig(nv, 1000));
    auto session = graph.session(0);
    for (vid_t d = 1; d <= 10; ++d)
        session->addEdge(0, d);
    // The deletes land in the log behind the inserts, before anything
    // was archived: the fold must cancel them pair-wise.
    session->delEdge(0, 3);
    session->delEdge(0, 7);
    graph.archiveAll();

    EXPECT_EQ(graph.degreeOut(0), 8u);
    EXPECT_EQ(sortedNebrsOut(graph, 0),
              (std::vector<vid_t>{1, 2, 4, 5, 6, 8, 9, 10}));
    EXPECT_EQ(graph.degreeIn(3), 0u);
    EXPECT_EQ(graph.degreeIn(4), 1u);
}

TEST(DeleteTest, DeleteAfterArchive)
{
    const vid_t nv = 64;
    XPGraph graph(smallConfig(nv, 1000));
    auto session = graph.session(0);
    for (vid_t d = 1; d <= 10; ++d)
        session->addEdge(0, d);
    graph.archiveAll(); // inserts now live in PMEM chains

    session->delEdge(0, 1);
    session->delEdge(0, 10);
    // archiveAll() is the sync point for deletes exactly as for
    // inserts: logged-but-unarchived tombstones are not yet visible...
    EXPECT_EQ(graph.degreeOut(0), 10u);
    graph.archiveAll();
    // ...and fold everywhere once archived.
    EXPECT_EQ(graph.degreeOut(0), 8u);
    EXPECT_EQ(sortedNebrsOut(graph, 0),
              (std::vector<vid_t>{2, 3, 4, 5, 6, 7, 8, 9}));
    EXPECT_EQ(graph.degreeIn(1), 0u);
}

TEST(DeleteTest, DeleteThenReinsert)
{
    const vid_t nv = 16;
    XPGraph graph(smallConfig(nv, 1000));
    auto session = graph.session(0);
    session->addEdge(1, 2);
    session->delEdge(1, 2);
    session->addEdge(1, 2); // logged after the delete: must survive
    graph.archiveAll();
    EXPECT_EQ(graph.degreeOut(1), 1u);
    EXPECT_EQ(sortedNebrsOut(graph, 1), (std::vector<vid_t>{2}));

    // Multi-edge semantics: one delete cancels ONE copy.
    session->addEdge(3, 4);
    session->addEdge(3, 4);
    session->delEdge(3, 4);
    graph.archiveAll();
    EXPECT_EQ(graph.degreeOut(3), 1u);
    EXPECT_EQ(graph.degreeIn(4), 1u);
}

TEST(DeleteTest, BatchDelEdgesChunks)
{
    // > 256 deletions exercises delEdges' bounded chunking path.
    const vid_t nv = 1024;
    XPGraph graph(smallConfig(nv, 4000));
    auto session = graph.session(0);
    std::vector<Edge> edges;
    for (vid_t v = 0; v < 600; ++v)
        edges.push_back(Edge{v, static_cast<vid_t>(v + 1)});
    session->addEdges(edges.data(), edges.size());
    session->delEdges(edges.data(), edges.size());
    graph.archiveAll();
    for (vid_t v = 0; v < 600; ++v) {
        ASSERT_EQ(graph.degreeOut(v), 0u) << "vertex " << v;
        ASSERT_EQ(graph.degreeIn(v + 1), 0u) << "vertex " << v + 1;
    }
}

TEST(DeleteTest, ViewVisibilityAcrossEpochs)
{
    const vid_t nv = 64;
    XPGraph graph(smallConfig(nv, 1000));
    auto session = graph.session(0);
    for (vid_t d = 1; d <= 8; ++d)
        session->addEdge(0, d);
    graph.archiveAll();

    // A view captured before the delete must not see it...
    const auto before = graph.openView();
    session->delEdge(0, 5);
    graph.archiveAll();
    EXPECT_EQ(before->degreeOut(0), 8u);
    EXPECT_EQ(sortedNebrsOut(*before, 0),
              (std::vector<vid_t>{1, 2, 3, 4, 5, 6, 7, 8}));

    // ...a view captured after must.
    const auto after = graph.openView();
    EXPECT_EQ(after->degreeOut(0), 7u);
    EXPECT_EQ(sortedNebrsOut(*after, 0),
              (std::vector<vid_t>{1, 2, 3, 4, 6, 7, 8}));
    EXPECT_EQ(before->degreeOut(0), 8u); // still isolated
}

TEST(DeleteTest, GraphOneEquivalence)
{
    // The same insert/delete stream through both engines must fold to
    // the same live graph (order-insensitive checksum + spot degrees).
    const vid_t nv = 256;
    auto inserts = generateUniform(nv, 4000, /*seed=*/7);
    std::vector<Edge> deletes;
    for (size_t i = 0; i < inserts.size(); i += 3)
        deletes.push_back(inserts[i]);

    XPGraph xpg(smallConfig(nv, inserts.size()));
    xpg.session(0)->addEdges(inserts.data(), inserts.size());
    xpg.session(0)->delEdges(deletes.data(), deletes.size());
    xpg.archiveAll();

    GraphOneConfig gc;
    gc.maxVertices = nv;
    gc.archiveThreads = 4;
    gc.bytesPerNode = graphoneRecommendedBytesPerNode(
        gc, inserts.size() + deletes.size());
    GraphOne gone(gc);
    gone.session(0)->addEdges(inserts.data(), inserts.size());
    gone.session(0)->delEdges(deletes.data(), deletes.size());
    gone.archiveAll();

    EXPECT_EQ(adjChecksum(xpg), adjChecksum(gone));
    for (vid_t v = 0; v < nv; ++v) {
        ASSERT_EQ(xpg.degreeOut(v), gone.degreeOut(v)) << "vertex " << v;
        ASSERT_EQ(xpg.degreeIn(v), gone.degreeIn(v)) << "vertex " << v;
    }
}

TEST(CompactTest, ThresholdPassReclaimsSpace)
{
    const vid_t nv = 64;
    XPGraphConfig c = smallConfig(nv, 2000);
    XPGraph graph(c);
    auto session = graph.session(0);
    for (vid_t d = 0; d < 200; ++d)
        session->addEdge(1, d % 32);
    graph.archiveAll();
    const uint64_t before_bytes = graph.memoryUsage().pblkBytes;

    // Tombstone 120 of the 200: well past the default 0.25 ratio.
    for (vid_t d = 0; d < 120; ++d)
        session->delEdge(1, d % 32);
    graph.archiveAll();
    EXPECT_EQ(graph.degreeOut(1), 80u);

    const uint64_t rewritten = graph.runCompactionPass();
    EXPECT_GE(rewritten, 1u);
    const IngestStats s = graph.stats();
    EXPECT_GE(s.compactionPasses, 1u);
    EXPECT_GE(s.compactionSlots, rewritten);
    EXPECT_GT(s.compactionBytesReclaimed, 0u);
    // 120 tombstones + the 120 inserts they cancelled disappeared.
    EXPECT_GE(s.compactionRecordsDropped, 240u);
    // Live data unchanged by the rewrite.
    EXPECT_EQ(graph.degreeOut(1), 80u);
    uint64_t total = 0;
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        total += graph.getNebrsOut(v, nebrs);
    }
    EXPECT_EQ(total, 80u);
    // What the pass reports reclaimed matches roughly what the chain
    // grew by while carrying the dead weight (the bump allocator keeps
    // abandoned blocks allocated, so pblkBytes itself cannot shrink —
    // the reclaim shows up as bytes the next rewrite does not copy).
    EXPECT_LE(s.compactionBytesReclaimed,
              graph.memoryUsage().pblkBytes);
    EXPECT_GT(graph.memoryUsage().pblkBytes, before_bytes);

    // A second pass finds nothing: every tombstone was applied.
    EXPECT_EQ(graph.runCompactionPass(), 0u);
}

TEST(CompactTest, DeleteFreeChainsUntouched)
{
    // On a workload without deletes the compactor must be a no-op down
    // to the media byte: that is what makes "compactor on vs off"
    // query checksums trivially identical (the fig14 gate).
    const vid_t nv = 128;
    auto edges = generateUniform(nv, 3000, /*seed=*/5);
    XPGraph graph(smallConfig(nv, edges.size()));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.archiveAll();

    const uint64_t written_before = graph.pmemCounters().mediaBytesWritten;
    EXPECT_EQ(graph.runCompactionPass(), 0u);
    EXPECT_EQ(graph.pmemCounters().mediaBytesWritten, written_before);
    EXPECT_EQ(graph.stats().compactionSlots, 0u);
}

TEST(CompactTest, BelowThresholdUntouched)
{
    const vid_t nv = 64;
    XPGraphConfig c = smallConfig(nv, 2000);
    c.compactTombstoneRatio = 0.5;
    XPGraph graph(c);
    auto session = graph.session(0);
    for (vid_t d = 0; d < 200; ++d)
        session->addEdge(1, d % 32);
    // 20 tombstones over 220 records: far below the 0.5 threshold.
    for (vid_t d = 0; d < 20; ++d)
        session->delEdge(1, d % 32);
    graph.archiveAll();
    EXPECT_EQ(graph.runCompactionPass(), 0u);
    EXPECT_EQ(graph.degreeOut(1), 180u);

    // Delete everything else: 200 tombstones over 400 records sits
    // exactly at the 0.5 threshold (tombstones count as records too),
    // so now it qualifies.
    for (vid_t d = 20; d < 200; ++d)
        session->delEdge(1, d % 32);
    graph.archiveAll();
    EXPECT_GE(graph.runCompactionPass(), 1u);
    EXPECT_EQ(graph.degreeOut(1), 0u);

    // Compacting the now-empty chain again writes an empty block from
    // no records at all; the vertex still reads back empty.
    graph.compactAdjs(1);
    EXPECT_EQ(graph.degreeOut(1), 0u);
    EXPECT_TRUE(sortedNebrsOut(graph, 1).empty());
}

TEST(CompactTest, InsertsLiftingASlotOverTheFloorMakeItACandidate)
{
    // 20 inserts + 20 deletes: half the records are tombstones, but 40
    // records sit below the 64-record floor, so no pass rewrites it.
    const vid_t nv = 64;
    XPGraphConfig c = smallConfig(nv, 2000);
    ASSERT_EQ(c.compactMinRecords, 64u);
    XPGraph graph(c);
    auto session = graph.session(0);
    for (vid_t d = 0; d < 20; ++d)
        session->addEdge(1, d);
    for (vid_t d = 0; d < 20; ++d)
        session->delEdge(1, d);
    graph.archiveAll();
    EXPECT_EQ(graph.runCompactionPass(), 0u);
    EXPECT_EQ(graph.runCompactionPass(), 0u);

    // Plain inserts alone lift it over the floor (70 records, 20
    // tombstones: still past the 0.25 ratio), so the next pass must
    // look at it again although it gained no tombstone.
    for (vid_t d = 20; d < 50; ++d)
        session->addEdge(1, d);
    graph.archiveAll();
    EXPECT_EQ(graph.runCompactionPass(), 1u);
    EXPECT_EQ(graph.degreeOut(1), 30u);
    EXPECT_EQ(graph.stats().compactionSlots, 1u);

    // Nothing changed since: a pass straight after rewrites nothing.
    EXPECT_EQ(graph.runCompactionPass(), 0u);
    EXPECT_EQ(graph.stats().compactionSlots, 1u);
}

TEST(CompactTest, ViewSpansCompaction)
{
    // A view opened before deletes + compaction keeps serving the
    // abandoned blocks (the allocator never reuses space).
    const vid_t nv = 64;
    XPGraph graph(smallConfig(nv, 2000));
    auto session = graph.session(0);
    for (vid_t d = 0; d < 100; ++d)
        session->addEdge(2, d % 50);
    graph.archiveAll();

    const auto view = graph.openView();
    const auto frozen = sortedNebrsOut(*view, 2);
    EXPECT_EQ(frozen.size(), 100u);

    for (vid_t d = 0; d < 60; ++d)
        session->delEdge(2, d % 50);
    graph.archiveAll();
    EXPECT_GE(graph.runCompactionPass(), 1u);

    EXPECT_EQ(sortedNebrsOut(*view, 2), frozen)
        << "view drifted across a compaction underneath it";
    EXPECT_EQ(graph.degreeOut(2), 40u);
}

TEST(CompactTest, BackgroundCompactorRuns)
{
    const vid_t nv = 64;
    XPGraphConfig c = smallConfig(nv, 2000);
    c.backgroundCompaction = true;
    XPGraph graph(c);
    auto session = graph.session(0);
    for (vid_t d = 0; d < 200; ++d)
        session->addEdge(1, d % 32);
    for (vid_t d = 0; d < 120; ++d)
        session->delEdge(1, d % 32);
    // The archive phase both folds the deletes and kicks the compactor.
    graph.archiveAll();

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (graph.snapshotStats().compactionSlots == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const IngestStats s = graph.snapshotStats();
    EXPECT_GT(s.compactionSlots, 0u)
        << "background compactor never picked up the candidate";
    EXPECT_GT(s.compactionBytesReclaimed, 0u);
    EXPECT_EQ(graph.degreeOut(1), 80u);
}

TEST(CompactTest, RetentionWindowExpiresPrefix)
{
    const vid_t nv = 128;
    XPGraphConfig c = smallConfig(nv, 4000);
    // Uniform edges over 128 vertices leave ~a dozen records per
    // chain; drop the floor so the expiry tombstones qualify.
    c.compactMinRecords = 1;
    XPGraph graph(c);
    auto session = graph.session(0);
    RetentionTracker tracker;

    // Stream position is the tick: 1000 edges, keep the last 300.
    auto edges = generateUniform(nv, 1000, /*seed=*/17);
    for (uint64_t i = 0; i < edges.size(); ++i) {
        session->addEdges(&edges[i], 1);
        tracker.record(edges[i], i);
    }
    EXPECT_EQ(tracker.trackedEdges(), edges.size());
    const uint64_t expired =
        tracker.retainEdgesAfter(edges.size() - 300, *session);
    EXPECT_EQ(expired, edges.size() - 300);
    EXPECT_EQ(tracker.trackedEdges(), 300u);
    EXPECT_EQ(tracker.oldestTick(), edges.size() - 300);

    graph.archiveAll();
    const uint64_t rewritten = graph.runCompactionPass();
    EXPECT_GE(rewritten, 1u);

    // Exactly the retained suffix is live (multiset semantics: an edge
    // appearing in both halves survives once per retained copy).
    std::vector<Edge> kept(edges.end() - 300, edges.end());
    std::vector<std::vector<vid_t>> expect_out(nv);
    for (const Edge &e : kept)
        expect_out[e.src].push_back(e.dst);
    uint64_t live = 0;
    for (vid_t v = 0; v < nv; ++v) {
        std::sort(expect_out[v].begin(), expect_out[v].end());
        ASSERT_EQ(sortedNebrsOut(graph, v), expect_out[v])
            << "vertex " << v;
        live += expect_out[v].size();
    }
    EXPECT_EQ(live, 300u);
}

TEST(CompactTest, StatsSurviveSnapshotRace)
{
    // snapshotStats must return phase-consistent compaction counters
    // while the pass runs; hammer it from a second thread.
    const vid_t nv = 64;
    XPGraph graph(smallConfig(nv, 4000));
    auto session = graph.session(0);
    for (int round = 0; round < 4; ++round) {
        for (vid_t d = 0; d < 200; ++d)
            session->addEdge(1, d % 32);
        for (vid_t d = 0; d < 150; ++d)
            session->delEdge(1, d % 32);
        graph.archiveAll();
        std::thread reader([&] {
            for (int i = 0; i < 100; ++i)
                (void)graph.snapshotStats();
        });
        graph.runCompactionPass();
        reader.join();
    }
    EXPECT_GE(graph.stats().compactionPasses, 4u);
}

} // namespace
} // namespace xpg
