/**
 * @file
 * Snapshot-isolated read views (DESIGN.md §12): a ReadView opened on a
 * live store exposes exactly the edges published before the open, stays
 * byte-identical while sessions keep ingesting, archiving, flushing and
 * compacting underneath it, and unpins its resources on close.
 *
 * The Frozen* cases double as the TSAN anchors for the lock-free
 * reader/writer interplay: they hammer a view from the main thread
 * while client sessions drive the store through inline (and pipelined)
 * archive phases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/algorithms.hpp"
#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/generators.hpp"
#include "graph/graph_store.hpp"
#include "graph/snapshot.hpp"
#include "util/rng.hpp"

namespace xpg {
namespace {

XPGraphConfig
smallConfig(vid_t num_vertices, uint64_t num_edges)
{
    XPGraphConfig c = XPGraphConfig::persistent(num_vertices, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9;
    c.archiveThreads = 4;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, num_edges);
    return c;
}

/** Sorted out- and in-neighbor lists of every vertex. */
struct AdjDump
{
    std::vector<std::vector<vid_t>> out;
    std::vector<std::vector<vid_t>> in;

    /** A reference's lists, sorted. */
    AdjDump(std::vector<std::vector<vid_t>> o,
            std::vector<std::vector<vid_t>> i)
        : out(std::move(o)), in(std::move(i))
    {
        for (auto *lists : {&out, &in})
            for (auto &list : *lists)
                std::sort(list.begin(), list.end());
    }

    explicit AdjDump(const GraphView &view)
        : out(view.numVertices()), in(view.numVertices())
    {
        for (vid_t v = 0; v < view.numVertices(); ++v) {
            view.getNebrsOut(v, out[v]);
            std::sort(out[v].begin(), out[v].end());
            view.getNebrsIn(v, in[v]);
            std::sort(in[v].begin(), in[v].end());
        }
    }

    bool
    operator==(const AdjDump &o) const
    {
        return out == o.out && in == o.in;
    }
};

/** Order-insensitive digest of a sample of the view's adjacency. */
uint64_t
sampleChecksum(const GraphView &view, vid_t sample)
{
    uint64_t sum = 0;
    std::vector<vid_t> nebrs;
    const vid_t nv = std::min<vid_t>(sample, view.numVertices());
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        sum += view.getNebrsOut(v, nebrs);
        for (vid_t n : nebrs)
            sum += 0x9e3779b97f4a7c15ull * (v + 1) + n;
        sum += view.degreeIn(v);
    }
    return sum;
}

TEST(ReadView, IsolatedFromLaterUpdates)
{
    const vid_t nv = 256;
    auto edges = generateUniform(nv, 4000, /*seed=*/11);
    XPGraph graph(smallConfig(nv, edges.size() * 2));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    const auto view = graph.openView();
    const uint64_t visible = view->visibleEdges();
    EXPECT_EQ(visible, edges.size());
    const AdjDump before(*view);

    // Everything that can mutate the store underneath the view.
    auto more = generateUniform(nv, 3000, /*seed=*/12);
    graph.session(1)->addEdges(more.data(), more.size());
    graph.archiveAll();
    graph.compactAllAdjs();

    EXPECT_EQ(view->visibleEdges(), visible);
    const AdjDump after(*view);
    EXPECT_TRUE(before == after)
        << "view drifted while the store kept ingesting";

    // The live store, meanwhile, sees both batches.
    std::vector<vid_t> nebrs;
    uint64_t live = 0;
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        live += graph.getNebrsOut(v, nebrs);
    }
    EXPECT_EQ(live, edges.size() + more.size());
}

TEST(ReadView, MidIngestViewMatchesQuiescedReference)
{
    // A client pauses (fully published) after K edges; a view opened at
    // the barrier must be indistinguishable from a reference store that
    // ingested exactly those K edges and quiesced: same adjacency,
    // same degrees, same BFS result.
    const vid_t nv = 512;
    auto edges = generateUniform(nv, 6000, /*seed=*/21);
    const uint64_t k = edges.size() / 2;

    const XPGraphConfig c = smallConfig(nv, edges.size());
    XPGraph graph(c);

    std::mutex m;
    std::condition_variable cv;
    int stage = 0; // 0: ingesting prefix, 1: paused, 2: resume
    std::thread client([&] {
        auto session = graph.session(0);
        session->addEdges(edges.data(), k);
        {
            std::unique_lock<std::mutex> lock(m);
            stage = 1;
            cv.notify_all();
            cv.wait(lock, [&] { return stage == 2; });
        }
        session->addEdges(edges.data() + k, edges.size() - k);
    });

    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return stage == 1; });
    }
    const auto view = graph.openView();
    {
        std::lock_guard<std::mutex> lock(m);
        stage = 2;
        cv.notify_all();
    }

    XPGraph ref(c);
    ref.session(0)->addEdges(edges.data(), k);
    ref.bufferAllEdges();

    EXPECT_EQ(view->visibleEdges(), k);
    const AdjDump view_dump(*view);
    const AdjDump ref_dump(ref);
    EXPECT_TRUE(view_dump == ref_dump)
        << "mid-ingest view differs from the quiesced reference";

    const auto view_bfs = runBfs(*view, edges[0].src, 4);
    const auto ref_bfs = runBfs(ref, edges[0].src, 4);
    EXPECT_EQ(view_bfs.checksum, ref_bfs.checksum);
    EXPECT_EQ(view_bfs.touched, ref_bfs.touched);

    client.join();
    graph.archiveAll();
    EXPECT_EQ(view->visibleEdges(), k); // still pinned to the barrier
}

TEST(ReadView, DeletesFoldAcrossAllThreeLayers)
{
    // Tombstones against flushed chains, buffered records, and frozen
    // log-window records must cancel exactly like the live read path:
    // compare against a reference store that replayed the same ops and
    // quiesced.
    const vid_t nv = 256;
    auto first = generateUniform(nv, 2000, /*seed=*/31);
    auto second = generateUniform(nv, 1200, /*seed=*/32);

    const XPGraphConfig c = smallConfig(nv, 8000);
    const auto replay = [&](GraphStore &store, bool archive_steps) {
        auto s = store.session(0);
        s->addEdges(first.data(), first.size());
        if (archive_steps) {
            auto *xpg = dynamic_cast<XPGraph *>(&store);
            xpg->bufferAllEdges();
            xpg->flushAllVbufs(); // first batch into PMEM chains
        }
        for (uint64_t i = 0; i < first.size(); i += 10)
            s->delEdge(first[i].src, first[i].dst);
        s->addEdges(second.data(), second.size());
        if (archive_steps)
            dynamic_cast<XPGraph *>(&store)->bufferAllEdges();
        // Same-batch deletes that stay in the un-buffered log window.
        for (uint64_t i = 0; i < second.size(); i += 13)
            s->delEdge(second[i].src, second[i].dst);
    };

    XPGraph graph(c);
    replay(graph, /*archive_steps=*/true);
    const auto view = graph.openView();

    XPGraph ref(c);
    replay(ref, /*archive_steps=*/true);
    ref.archiveAll();

    const AdjDump view_dump(*view);
    const AdjDump ref_dump(ref);
    EXPECT_TRUE(view_dump == ref_dump)
        << "tombstone folding through the view diverged from the "
           "quiesced reference";
    for (vid_t v = 0; v < nv; ++v) {
        ASSERT_EQ(view->degreeOut(v), ref.degreeOut(v)) << "v=" << v;
        ASSERT_EQ(view->degreeIn(v), ref.degreeIn(v)) << "v=" << v;
    }
}

void
frozenUnderConcurrentIngest(bool pipelined)
{
    const vid_t nv = 1 << 10;
    auto edges = generateUniform(nv, 1 << 14, /*seed=*/41);
    const uint64_t quarter = edges.size() / 4;

    XPGraphConfig c = smallConfig(nv, edges.size());
    c.pipelinedArchiving = pipelined;
    XPGraph graph(c);
    graph.session(0)->addEdges(edges.data(), quarter);
    graph.bufferAllEdges();

    const auto view = graph.openView();
    const uint64_t visible = view->visibleEdges();
    const uint64_t checksum = sampleChecksum(*view, 256);

    // Four clients ingest the rest while the main thread hammers the
    // view; every observation must equal the open-time observation.
    std::atomic<unsigned> running{4};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            const uint64_t lo =
                quarter + t * (edges.size() - quarter) / 4;
            const uint64_t hi =
                quarter + (t + 1) * (edges.size() - quarter) / 4;
            graph.session(t)->addEdges(edges.data() + lo, hi - lo);
            running.fetch_sub(1, std::memory_order_release);
        });
    }
    while (running.load(std::memory_order_acquire) != 0) {
        ASSERT_EQ(view->visibleEdges(), visible);
        ASSERT_EQ(sampleChecksum(*view, 256), checksum)
            << "view contents changed under concurrent ingest";
    }
    for (std::thread &t : clients)
        t.join();
    graph.archiveAll();
    EXPECT_EQ(view->visibleEdges(), visible);
    EXPECT_EQ(sampleChecksum(*view, 256), checksum);
}

TEST(ReadView, FrozenUnderConcurrentInlineIngest)
{
    frozenUnderConcurrentIngest(/*pipelined=*/false);
}

TEST(ReadView, FrozenUnderConcurrentPipelinedIngest)
{
    frozenUnderConcurrentIngest(/*pipelined=*/true);
}

TEST(ReadView, PinnedLogBlocksWriterUntilClose)
{
    // A view pins each log's reclaim floor at its frozen boundary, so a
    // writer that laps the ring must stall in waitForLogSpace until the
    // view closes — and must complete normally afterwards.
    const vid_t nv = 256;
    XPGraphConfig c = smallConfig(nv, 1 << 14);
    c.elogCapacityEdges = 1 << 10; // tiny ring: writers lap quickly
    XPGraph graph(c);

    auto head = generateUniform(nv, 100, /*seed=*/51);
    graph.session(0)->addEdges(head.data(), head.size());
    graph.bufferAllEdges();
    auto view = graph.openView();
    const uint64_t visible = view->visibleEdges();

    auto tail = generateUniform(nv, 1 << 12, /*seed=*/52);
    std::atomic<bool> done{false};
    std::thread writer([&] {
        graph.session(0)->addEdges(tail.data(), tail.size());
        done.store(true, std::memory_order_release);
    });

    // Give the writer time to fill the pinned ring and stall; the view
    // must stay intact the whole time.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(view->visibleEdges(), visible);
    EXPECT_FALSE(done.load(std::memory_order_acquire))
        << "writer lapped a pinned log ring";

    view.reset(); // closeView: floor lifted, stalled writer notified
    writer.join();
    graph.archiveAll();
    EXPECT_EQ(graph.stats().edgesLogged, head.size() + tail.size());
}

TEST(ReadView, RotatingViewsReclaimRetiredBuffers)
{
    // A serving loop's rotation: open the next view, then close the
    // previous one, while one session inserts (growing vertex buffers
    // through their layers), deletes, runs compaction passes and crosses
    // the log-pressure flush threshold, also while both views are open.
    // A close may return only the buffers no open view can read, and
    // later phases reuse those blocks: right before it closes, every view
    // must still read what it read at open, and the pool's live bytes
    // must stay bounded however many views rotated.
    const vid_t nv = 256;
    const int rotations = 40;
    XPGraphConfig c = smallConfig(nv, 4 * rotations * 1250);
    c.compactMinRecords = 8;
    XPGraph graph(c);
    auto session = graph.session(0);
    // Every vertex holds at most one buffer per side, of the top layer.
    // A close leaves parked what the phases since the surviving view's
    // open retired: at most a flush-all's worth plus the layers buffer
    // growth left behind.
    const uint64_t live_bound = 2ull * nv * c.maxVertexBufBytes;
    const uint64_t bound = 3 * live_bound;

    std::vector<std::vector<vid_t>> out(nv);
    std::vector<std::vector<vid_t>> in(nv);
    std::vector<Edge> present;
    Rng rng(0x2077);
    uint64_t compacted = 0;
    const auto write = [&](uint64_t inserts, uint64_t deletes,
                           uint64_t seed, bool compact) {
        const auto batch = generateUniform(nv, inserts, seed);
        session->addEdges(batch.data(), batch.size());
        for (const Edge &e : batch) {
            out[e.src].push_back(e.dst);
            in[e.dst].push_back(e.src);
            present.push_back(e);
        }
        const auto drop = [](std::vector<vid_t> &list, vid_t v) {
            *std::find(list.begin(), list.end(), v) = list.back();
            list.pop_back();
        };
        std::vector<Edge> dels;
        for (uint64_t i = 0; i < deletes; ++i) {
            std::swap(present[rng.nextBounded(present.size())],
                      present.back());
            const Edge e = present.back();
            present.pop_back();
            drop(out[e.src], e.dst);
            drop(in[e.dst], e.src);
            dels.push_back(e);
        }
        session->delEdges(dels.data(), dels.size());
        if (compact)
            compacted += graph.runCompactionPass();
    };
    const uint64_t flushes_before = graph.stats().flushAllPhases;

    auto view = graph.openView();
    AdjDump opened(*view);
    for (int r = 0; r < rotations; ++r) {
        write(600, 150, 1000 + 2 * r, r % 3 == 0);
        auto next = graph.openView();
        const AdjDump next_opened(*next);
        ASSERT_TRUE(next_opened == AdjDump(out, in))
            << "round " << r << ": a fresh view misses the reference";
        // Phases with both views open retire buffers the next view
        // captured: they must outlive the previous view's close.
        write(400, 100, 1001 + 2 * r, r % 3 == 1);
        ASSERT_TRUE(AdjDump(*view) == opened)
            << "round " << r << ": the closing view changed while open";
        view = std::move(next); // closes the previous view
        opened = next_opened;
        ASSERT_LE(graph.pool().bytesLive(), bound)
            << "round " << r << ": retired buffers outlive their views";
    }
    EXPECT_TRUE(AdjDump(*view) == opened);
    EXPECT_GT(compacted, 0u);
    EXPECT_GT(graph.stats().flushAllPhases, flushes_before);
}

TEST(ReadView, GrowthAfterTheCaptureParksOnlyTheCapturedBuffer)
{
    // One node, one archive thread: vertex v's slot is v and the pool
    // hands out exactly the requested power-of-two blocks, so live
    // bytes are known to the byte.
    const vid_t nv = 32;
    XPGraphConfig c = smallConfig(nv, 64);
    c.numNodes = 1;
    c.archiveThreads = 1;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, 64);
    XPGraph graph(c);
    auto session = graph.session(0);
    session->addEdge(1, 2);
    session->addEdge(1, 3);
    graph.bufferAllEdges();
    // Vertex 1's out buffer (16 B, 2 records) and the in buffers of 2
    // and 3 (16 B, 1 record each).
    ASSERT_EQ(graph.pool().bytesLive(), 3u * 16);

    std::vector<std::unique_ptr<ReadView>> views;
    std::vector<AdjDump> opened;
    for (int i = 0; i < 2; ++i) { // two views of one capture
        views.push_back(graph.openView());
        opened.emplace_back(*views.back());
    }

    // One phase grows vertex 1's buffer twice, 16 -> 32 -> 64 B. The
    // views captured the 16 B buffer, so it parks; the 32 B one lived
    // only inside the phase and goes straight back to the pool.
    for (vid_t d = 10; d < 18; ++d)
        session->addEdge(1, d);
    graph.bufferAllEdges();
    const uint64_t fresh = 64 + 8 * 16; // out buffer + new in buffers
    const uint64_t captured_in = 2 * 16;
    EXPECT_EQ(graph.pool().bytesLive(), 16 + fresh + captured_in);
    for (size_t i = 0; i < views.size(); ++i)
        EXPECT_TRUE(AdjDump(*views[i]) == opened[i]) << "view " << i;

    // A flush parks the two in buffers the views captured and resets
    // the fresh ones in place.
    graph.flushAllVbufs();
    EXPECT_EQ(graph.pool().bytesLive(), 16 + fresh + captured_in);
    for (size_t i = 0; i < views.size(); ++i)
        EXPECT_TRUE(AdjDump(*views[i]) == opened[i]) << "view " << i;

    // The last close frees what the limbo held.
    views.clear();
    EXPECT_EQ(graph.pool().bytesLive(), fresh);
}

TEST(ReadView, EpochAdvancesAcrossArchivePhases)
{
    const vid_t nv = 128;
    auto edges = generateUniform(nv, 2000, /*seed=*/61);
    XPGraph graph(smallConfig(nv, edges.size() * 2));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    const auto v1 = graph.openView();
    const auto v2 = graph.openView();
    EXPECT_EQ(v1->epoch(), v2->epoch())
        << "same quiescent epoch must yield the same pin";
    EXPECT_EQ(v1->visibleEdges(), v2->visibleEdges());

    auto more = generateUniform(nv, 1000, /*seed=*/62);
    graph.session(0)->addEdges(more.data(), more.size());
    graph.archiveAll();

    const auto v3 = graph.openView();
    EXPECT_GT(v3->epoch(), v1->epoch());
    EXPECT_EQ(v3->visibleEdges(), edges.size() + more.size());
    EXPECT_EQ(v1->visibleEdges(), edges.size());
}

TEST(ReadView, FrozenWindowBoundsAreExposed)
{
    const vid_t nv = 128;
    XPGraphConfig c = smallConfig(nv, 4000);
    c.bufferingThresholdEdges = c.elogCapacityEdges; // manual archiving
    XPGraph graph(c);

    auto edges = generateUniform(nv, 500, /*seed=*/71);
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges(); // boundary == head on every node
    auto logged = generateUniform(nv, 300, /*seed=*/72);
    graph.session(0)->addEdges(logged.data(), logged.size());

    const auto view = graph.openView();
    uint64_t window = 0;
    for (unsigned node = 0; node < graph.numNodes(); ++node) {
        EXPECT_GE(view->frozenHead(node), view->frozenBoundary(node));
        window += view->frozenHead(node) - view->frozenBoundary(node);
    }
    EXPECT_EQ(window, logged.size())
        << "frozen window must cover exactly the un-archived records";
    EXPECT_EQ(view->visibleEdges(), edges.size() + logged.size());
}

/** Log positions are indexed as pos + 1 (0 = none): the record at
 *  position 0 must still be found, by a view and by a live read. */
TEST(ReadView, WindowStartingAtLogPositionZeroReturnsItsFirstRecord)
{
    const vid_t nv = 16;
    XPGraphConfig c = smallConfig(nv, 64);
    c.bufferingThresholdEdges = c.elogCapacityEdges; // manual archiving
    XPGraph graph(c);
    const Edge edges[] = {{1, 2}, {3, 4}, {1, 5}};
    graph.session(0)->addEdges(edges, 3);

    const auto view = graph.openView();
    for (unsigned node = 0; node < graph.numNodes(); ++node)
        EXPECT_EQ(view->frozenBoundary(node), 0u);
    std::vector<vid_t> nebrs;
    view->getNebrsOut(1, nebrs);
    std::sort(nebrs.begin(), nebrs.end());
    EXPECT_EQ(nebrs, (std::vector<vid_t>{2, 5}));
    nebrs.clear();
    view->getNebrsIn(2, nebrs);
    EXPECT_EQ(nebrs, (std::vector<vid_t>{1}));

    // The live store's log-window layer walks the same index.
    nebrs.clear();
    graph.getNebrsLogOut(1, nebrs);
    std::sort(nebrs.begin(), nebrs.end());
    EXPECT_EQ(nebrs, (std::vector<vid_t>{2, 5}));
    nebrs.clear();
    graph.getNebrsLogIn(2, nebrs);
    EXPECT_EQ(nebrs, (std::vector<vid_t>{1}));
}

TEST(ReadView, SnapshotInheritsViewEpoch)
{
    const vid_t nv = 128;
    auto edges = generateUniform(nv, 1500, /*seed=*/81);
    XPGraph graph(smallConfig(nv, edges.size() * 2));
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    const auto view = graph.openView();
    const auto snap = takeSnapshot(graph, 2);
    EXPECT_EQ(snap->epoch(), view->epoch());
    EXPECT_EQ(snap->numVertices(), view->numVertices());

    const AdjDump from_view(*view);
    const AdjDump from_snap(*snap);
    EXPECT_TRUE(from_view == from_snap);
}

TEST(ReadView, EmptyViewSnapshotReportsZeroVertices)
{
    // Regression: Snapshot::numVertices() on a snapshot built from a
    // vertex-less view must report 0, not underflow size()-1.
    struct EmptyView final : GraphView
    {
        vid_t numVertices() const override { return 0; }
        uint32_t
        forEachNebrOut(vid_t, NebrVisitor) const override
        {
            return 0;
        }
        uint32_t
        forEachNebrIn(vid_t, NebrVisitor) const override
        {
            return 0;
        }
    } empty;

    const auto snap = takeSnapshot(empty, 2);
    EXPECT_EQ(snap->numVertices(), 0u);
    EXPECT_EQ(snap->numEdges(), 0u);
    EXPECT_EQ(snap->visibleEdges(), 0u);
}

TEST(ReadView, GraphOneFallbackMaterializesConsistentView)
{
    // The baseline has no epoch-tracked internals: openView()
    // materializes the archived state under the archive lock. The
    // result must match the store at open time and stay isolated.
    const vid_t nv = 256;
    auto edges = generateUniform(nv, 3000, /*seed=*/91);
    GraphOneConfig c;
    c.maxVertices = nv;
    c.variant = GraphOneVariant::Pmem;
    c.archiveThreads = 4;
    c.bytesPerNode = graphoneRecommendedBytesPerNode(c, edges.size() * 2);
    GraphOne graph(c);
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.archiveAll();

    const auto view = graph.openView();
    EXPECT_EQ(view->visibleEdges(), edges.size());
    const AdjDump at_open(*view);
    const AdjDump live(graph);
    EXPECT_TRUE(at_open == live);

    auto more = generateUniform(nv, 1000, /*seed=*/92);
    graph.session(0)->addEdges(more.data(), more.size());
    graph.archiveAll();
    EXPECT_EQ(view->visibleEdges(), edges.size());
    const AdjDump after(*view);
    EXPECT_TRUE(at_open == after);
    EXPECT_LT(view->epoch(), graph.openView()->epoch());
}

} // namespace
} // namespace xpg
