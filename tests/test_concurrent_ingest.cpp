/**
 * @file
 * Concurrent ingestion equivalence: N client threads appending through
 * independent IngestSessions must produce exactly the graph a single
 * default-session client produces — across the flushed, buffered, and
 * still-logged states, with tombstones, through crash recovery of a
 * partially drained concurrent log, and with the pipelined (background)
 * archiver. Also exercises the GraphOne baseline's shared-log sessions
 * through the same polymorphic GraphStore surface.
 *
 * Ordering contract under test: per-session log order is preserved;
 * streams from different sessions interleave arbitrarily. A tombstone
 * cancels one *earlier* insert of the same (src,dst), so workloads with
 * deletes keep all records of one pair on one session (hash
 * partitioning); insert-only workloads may split arbitrarily.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/graph_store.hpp"
#include "telemetry/telemetry.hpp"
#include "temp_dir.hpp"

namespace xpg {
namespace {

XPGraphConfig
smallConfig(vid_t num_vertices, uint64_t num_edges)
{
    XPGraphConfig c = XPGraphConfig::persistent(num_vertices, 0);
    c.elogCapacityEdges = 1 << 13; // small: forces mid-ingest archiving
    c.bufferingThresholdEdges = 1 << 9;
    c.archiveThreads = 4;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, num_edges);
    return c;
}

/** Distinct (src,dst) pairs so neither PMEM-dedup on recovery nor the
 *  per-pair tombstone ordering constrains how edges split over sessions. */
std::vector<Edge>
distinctEdges(vid_t nv, uint64_t n, uint64_t seed)
{
    auto edges = generateUniform(nv, n * 2, seed);
    std::sort(edges.begin(), edges.end(),
              [](const Edge &a, const Edge &b) {
                  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    if (edges.size() > n)
        edges.resize(n);
    return edges;
}

enum class Split
{
    Contiguous, ///< session t gets the t-th contiguous chunk
    PairHash    ///< all records of one (src,dst) go to one session
};

/**
 * Ingest @p edges through @p sessions concurrent client threads, each
 * appending its share in several batches (exercising the loop-carried
 * reserve/publish path), then join. No sync point is taken here.
 */
void
ingestConcurrent(GraphStore &store, const std::vector<Edge> &edges,
                 unsigned sessions, Split split)
{
    std::vector<std::vector<Edge>> shares(sessions);
    if (split == Split::Contiguous) {
        const uint64_t chunk = (edges.size() + sessions - 1) / sessions;
        for (unsigned t = 0; t < sessions; ++t) {
            const uint64_t lo = std::min<uint64_t>(t * chunk, edges.size());
            const uint64_t hi = std::min<uint64_t>(lo + chunk, edges.size());
            shares[t].assign(edges.begin() + lo, edges.begin() + hi);
        }
    } else {
        for (const Edge &e : edges) {
            const uint64_t pair =
                (static_cast<uint64_t>(e.src) << 32) | rawVid(e.dst);
            shares[(pair * 0x9E3779B97F4A7C15ull >> 32) % sessions]
                .push_back(e);
        }
    }
    std::vector<std::thread> clients;
    clients.reserve(sessions);
    for (unsigned t = 0; t < sessions; ++t) {
        clients.emplace_back([&store, &shares, t] {
            auto session = store.session(t);
            const std::vector<Edge> &mine = shares[t];
            const uint64_t batch = std::max<uint64_t>(1, mine.size() / 7);
            for (uint64_t off = 0; off < mine.size(); off += batch) {
                const uint64_t n =
                    std::min<uint64_t>(batch, mine.size() - off);
                ASSERT_EQ(session->addEdges(mine.data() + off, n), n);
            }
            EXPECT_EQ(session->edgesLogged(), mine.size());
        });
    }
    for (std::thread &c : clients)
        c.join();
}

/** Expected adjacency after tombstone cancellation, by direct replay. */
std::vector<std::multiset<vid_t>>
replayOut(vid_t nv, const std::vector<Edge> &edges)
{
    std::vector<std::multiset<vid_t>> adj(nv);
    for (const Edge &e : edges) {
        if (isDelete(e.dst)) {
            auto it = adj[e.src].find(rawVid(e.dst));
            if (it != adj[e.src].end())
                adj[e.src].erase(it);
        } else {
            adj[e.src].insert(e.dst);
        }
    }
    return adj;
}

void
expectMatchesOut(GraphStore &store, vid_t nv,
                 const std::vector<std::multiset<vid_t>> &expected)
{
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        store.getNebrsOut(v, nebrs);
        std::multiset<vid_t> got(nebrs.begin(), nebrs.end());
        ASSERT_EQ(got, expected[v]) << "out-neighbors of " << v;
        EXPECT_EQ(store.degreeOut(v), expected[v].size())
            << "degree of " << v;
    }
}

// --- equivalence across archive states -------------------------------------

class ConcurrentIngest : public ::testing::TestWithParam<unsigned>
{
};

/** Fully archived: N sessions == the single-thread reference. */
TEST_P(ConcurrentIngest, ArchivedMatchesSingleThread)
{
    const vid_t nv = 256;
    const auto edges = distinctEdges(nv, 20000, 0xC0C0);
    XPGraph graph(smallConfig(nv, edges.size()));
    ingestConcurrent(graph, edges, GetParam(), Split::Contiguous);
    graph.archiveAll();
    expectMatchesOut(graph, nv, replayOut(nv, edges));
    const IngestStats s = graph.stats();
    EXPECT_EQ(s.edgesLogged, edges.size());
    EXPECT_EQ(s.sessionsOpened, GetParam());
    EXPECT_GT(s.loggingNsMax, 0u);
}

/** Buffered-only state (no flush beyond what pressure forced). */
TEST_P(ConcurrentIngest, BufferedMatchesSingleThread)
{
    const vid_t nv = 256;
    const auto edges = distinctEdges(nv, 15000, 0xBEEF);
    XPGraph graph(smallConfig(nv, edges.size()));
    ingestConcurrent(graph, edges, GetParam(), Split::Contiguous);
    graph.bufferAllEdges();
    expectMatchesOut(graph, nv, replayOut(nv, edges));
}

/** Mid-ingest state: without any sync point, the union of the archived
 *  view (chains + vertex buffers) and the per-node log windows is
 *  exactly the input — nothing lost, nothing duplicated. */
TEST_P(ConcurrentIngest, LoggedPlusArchivedIsLossless)
{
    const vid_t nv = 256;
    const auto edges = distinctEdges(nv, 12000, 0xF00D);
    XPGraph graph(smallConfig(nv, edges.size()));
    ingestConcurrent(graph, edges, GetParam(), Split::Contiguous);

    const auto expected = replayOut(nv, edges);
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        graph.getNebrsOut(v, nebrs);   // chains + vertex buffers
        graph.getNebrsLogOut(v, nebrs); // non-buffered log windows
        std::multiset<vid_t> got(nebrs.begin(), nebrs.end());
        ASSERT_EQ(got, expected[v]) << "combined view of " << v;
    }
}

/** Tombstones: deletes cancel inserts logged by the same session. */
TEST_P(ConcurrentIngest, TombstonesMatchReplay)
{
    const vid_t nv = 128;
    auto edges = distinctEdges(nv, 8000, 0xDEAD);
    // Delete every third edge some time after inserting it.
    std::vector<Edge> ops;
    for (size_t i = 0; i < edges.size(); ++i) {
        ops.push_back(edges[i]);
        if (i % 3 == 0 && i >= 30)
            ops.push_back({edges[i - 30].src, asDelete(edges[i - 30].dst)});
    }
    XPGraph graph(smallConfig(nv, ops.size()));
    ingestConcurrent(graph, ops, GetParam(), Split::PairHash);
    graph.archiveAll();
    expectMatchesOut(graph, nv, replayOut(nv, ops));
}

/** The pipelined (background-archiver) mode reaches the same graph. */
TEST_P(ConcurrentIngest, PipelinedArchiverMatches)
{
    const vid_t nv = 256;
    const auto edges = distinctEdges(nv, 20000, 0xABBA);
    XPGraphConfig c = smallConfig(nv, edges.size());
    c.pipelinedArchiving = true;
    XPGraph graph(c);
    ingestConcurrent(graph, edges, GetParam(), Split::Contiguous);
    graph.archiveAll();
    expectMatchesOut(graph, nv, replayOut(nv, edges));
    EXPECT_EQ(graph.stats().edgesLogged, edges.size());
}

/** GraphOne's shared-log sessions through the same GraphStore surface. */
TEST_P(ConcurrentIngest, GraphOneSessionsMatchSingleThread)
{
    const vid_t nv = 256;
    const auto edges = distinctEdges(nv, 20000, 0x6141);
    GraphOneConfig c;
    c.maxVertices = nv;
    c.variant = GraphOneVariant::Pmem;
    c.elogCapacityEdges = 1 << 13;
    c.archiveThresholdEdges = 1 << 9;
    c.archiveThreads = 4;
    c.bytesPerNode = graphoneRecommendedBytesPerNode(c, edges.size());
    GraphOne graph(c);
    ingestConcurrent(graph, edges, GetParam(), Split::Contiguous);
    graph.archiveAll();
    expectMatchesOut(graph, nv, replayOut(nv, edges));
    const IngestStats s = graph.stats();
    EXPECT_EQ(s.edgesLogged, edges.size());
    EXPECT_EQ(s.sessionsOpened, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sessions, ConcurrentIngest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &info) {
                             return std::to_string(info.param) + "s";
                         });

// --- log-full waits ---------------------------------------------------------

/**
 * Two sessions with deletes share one node's log while the background
 * compactor runs and the test thread churns views that pin the log's
 * reclaim floor: interleavings in which one session takes the slots a
 * pass freed for the other, so a session waiting for log space could
 * be stranded. Each round must finish by a deadline; a stranded session
 * fails the round instead of hanging the run (the test then frees the
 * log itself, and a view close wakes every waiter, so the round can
 * end). Rounds stop starting after a fixed wall-clock budget per
 * archiving mode.
 */
TEST(ConcurrentIngest, LogFullWaitsAlwaysWake)
{
    using namespace std::chrono_literals;
    using Clock = std::chrono::steady_clock;
    const vid_t nv = 128;
    const auto edges = generateUniform(nv, 20000, 0x5EED);
    for (const bool pipelined : {true, false}) {
        const auto budget = Clock::now() + 2s;
        for (int round = 0; Clock::now() < budget; ++round) {
            XPGraphConfig c = smallConfig(nv, 4 * edges.size());
            c.archiveThreads = 2;
            c.pipelinedArchiving = pipelined;
            c.backgroundCompaction = true;
            XPGraph graph(c);
            const auto write = [&graph, &edges] {
                auto session = graph.session(0);
                for (size_t i = 0; i < edges.size(); i += 64) {
                    const size_t n = std::min<size_t>(64, edges.size() - i);
                    session->addEdges(&edges[i], n);
                    if (i % 1024 == 0)
                        session->delEdges(&edges[i], n / 2);
                }
            };
            auto a = std::async(std::launch::async, write);
            auto b = std::async(std::launch::async, write);
            const auto done = [&] {
                return a.wait_for(0s) == std::future_status::ready &&
                       b.wait_for(0s) == std::future_status::ready;
            };
            const auto deadline = Clock::now() + 15s;
            while (!done() && Clock::now() < deadline) {
                auto view = graph.openView();
                std::this_thread::sleep_for(1ms);
            }
            const bool stranded = !done();
            if (stranded) {
                graph.archiveAll();
                graph.openView().reset();
            }
            a.get();
            b.get();
            ASSERT_FALSE(stranded)
                << (pipelined ? "pipelined" : "inline") << " round "
                << round << ": a session stayed parked on a full log";
            graph.archiveAll();
            const IngestStats s = graph.stats();
            EXPECT_EQ(s.edgesBuffered, s.edgesLogged);
        }
    }
}

/**
 * A pipelined session that crosses the buffering threshold once and then
 * idles must still get its window buffered: its one request to the
 * archiver cannot be lost, even when it lands while the archiver is
 * between checking for work and falling asleep (a fresh store's archiver
 * does that just as the session logs). Rounds run for a fixed wall-clock
 * budget; each must see the window buffered by a deadline.
 */
TEST(ConcurrentIngest, IdleSessionWindowIsBuffered)
{
    using namespace std::chrono_literals;
    using Clock = std::chrono::steady_clock;
    const vid_t nv = 128;
    XPGraphConfig c = smallConfig(nv, 1 << 14);
    c.pipelinedArchiving = true;
    const uint64_t threshold = c.bufferingThresholdEdges;
    const auto edges = generateUniform(nv, threshold + 1, /*seed=*/0x1D1E);
    const auto budget = Clock::now() + 1s;
    for (int round = 0; Clock::now() < budget; ++round) {
        XPGraph graph(c);
        auto session = graph.session(0);
        session->addEdges(edges.data(), edges.size());
        const auto deadline = Clock::now() + 10s;
        while (graph.stats().edgesBuffered < threshold &&
               Clock::now() < deadline)
            std::this_thread::sleep_for(100us);
        ASSERT_GE(graph.stats().edgesBuffered, threshold)
            << "round " << round
            << ": the archiver slept through the session's request";
    }
}

// --- session surface -------------------------------------------------------

TEST(IngestSession, BindsToHintedNumaNode)
{
    const vid_t nv = 64;
    XPGraphConfig c = smallConfig(nv, 1000);
    ASSERT_EQ(c.numNodes, 2u);
    XPGraph graph(c);
    for (unsigned hint = 0; hint < 5; ++hint) {
        auto s = graph.session(hint);
        EXPECT_EQ(s->node(), hint % c.numNodes) << "hint " << hint;
    }
}

TEST(IngestSession, DefaultMethodsForwardToBatch)
{
    const vid_t nv = 64;
    XPGraph graph(smallConfig(nv, 100));
    {
        auto s = graph.session(0);
        s->addEdge(1, 2);
        s->addEdge(1, 3);
        s->delEdge(1, 2);
        EXPECT_EQ(s->edgesLogged(), 3u);
    }
    graph.archiveAll();
    std::vector<vid_t> nebrs;
    EXPECT_EQ(graph.getNebrsOut(1, nebrs), 1u);
    EXPECT_EQ(nebrs, std::vector<vid_t>{3});
}

TEST(IngestSession, StreamNsCountsInlineArchivePhases)
{
    // A lone session with inline archiving runs every archive phase
    // itself, so its stream wall is its logging plus all of the store's
    // archiving — on both engines.
    const vid_t nv = 4096;
    const auto edges = generateUniform(nv, 40000, 23);
    XPGraphConfig xc = XPGraphConfig::persistent(nv, 0);
    xc.elogCapacityEdges = 1 << 14;
    xc.bufferingThresholdEdges = 1 << 12;
    xc.archiveThreads = 1;
    xc.pmemBytesPerNode = recommendedBytesPerNode(xc, edges.size());
    GraphOneConfig gc;
    gc.maxVertices = nv;
    gc.elogCapacityEdges = 1 << 14;
    gc.archiveThresholdEdges = 1 << 12;
    gc.archiveThreads = 1;
    gc.bytesPerNode = graphoneRecommendedBytesPerNode(gc, edges.size());
    XPGraph xpgraph(xc);
    GraphOne graphone(gc);
    const std::pair<GraphStore *, const char *> stores[] = {
        {&xpgraph, "XPGraph"}, {&graphone, "GraphOne"}};
    for (const auto &[store, name] : stores) {
        SCOPED_TRACE(name);
        auto session = store->session(0);
        for (uint64_t off = 0; off < edges.size(); off += 1000)
            session->addEdges(edges.data() + off,
                              std::min<uint64_t>(1000, edges.size() - off));
        const IngestStats s = store->ingestStats();
        EXPECT_GE(s.bufferingPhases, 4u);
        EXPECT_EQ(session->streamNs(),
                  session->loggingNs() + s.archivingNs());
    }
}

TEST(IngestSession, OneAppendRecordPerCall)
{
    // The session runs the append loop for every engine: one addEdges
    // call that crosses the archive threshold mid-batch (two log chunks
    // around the archive request) leaves exactly one session_append span
    // and one ingest.session_append_ns sample, and no per-chunk span.
    const vid_t nv = 1024;
    const uint64_t threshold = 256;
    const uint64_t prefill = threshold - 100; // the call crosses at 100
    const auto edges = generateUniform(nv, prefill + 200, 41);

    XPGraphConfig inline_cfg = XPGraphConfig::persistent(nv, 0);
    inline_cfg.elogCapacityEdges = 1 << 12;
    inline_cfg.bufferingThresholdEdges = threshold;
    inline_cfg.archiveThreads = 2;
    inline_cfg.pmemBytesPerNode =
        recommendedBytesPerNode(inline_cfg, edges.size());
    XPGraphConfig pipelined_cfg = inline_cfg;
    pipelined_cfg.pipelinedArchiving = true;
    GraphOneConfig graphone_cfg;
    graphone_cfg.maxVertices = nv;
    graphone_cfg.elogCapacityEdges = 1 << 12;
    graphone_cfg.archiveThresholdEdges = threshold;
    graphone_cfg.archiveThreads = 2;
    graphone_cfg.bytesPerNode =
        graphoneRecommendedBytesPerNode(graphone_cfg, edges.size());

    std::vector<std::pair<std::unique_ptr<GraphStore>, const char *>> stores;
    stores.emplace_back(std::make_unique<XPGraph>(inline_cfg),
                        "XPGraph inline");
    stores.emplace_back(std::make_unique<XPGraph>(pipelined_cfg),
                        "XPGraph pipelined");
    stores.emplace_back(std::make_unique<GraphOne>(graphone_cfg),
                        "GraphOne-P");
    telemetry::Telemetry &tel = telemetry::Telemetry::instance();
    for (const auto &[store, name] : stores) {
        SCOPED_TRACE(name);
        auto session = store->session(0);
        session->addEdges(edges.data(), prefill);
        const uint64_t first_ticket = tel.trace().emitted();
        const uint64_t samples =
            tel.metrics().mergedHistogram("ingest.session_append_ns").count;
        session->addEdges(edges.data() + prefill, 200);
        EXPECT_EQ(
            tel.metrics().mergedHistogram("ingest.session_append_ns").count,
            samples + 1);
        unsigned session_spans = 0;
        unsigned log_spans = 0;
        for (const auto &ev : tel.trace().collect()) {
            if (ev.ticket < first_ticket || !ev.name)
                continue;
            session_spans += std::string(ev.name) == "session_append";
            log_spans += std::string(ev.name) == "log_append";
        }
        EXPECT_EQ(session_spans, 1u);
        EXPECT_EQ(log_spans, 0u);
        store->archiveAll();
        EXPECT_EQ(store->ingestStats().edgesLogged, edges.size());
    }
}

// --- crash recovery of a partially drained concurrent log ------------------

class ConcurrentRecovery : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = makeTempDir(std::string("xpg_conc_recovery_") +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name());
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

TEST_F(ConcurrentRecovery, PartiallyDrainedLogsRecover)
{
    const vid_t nv = 200;
    const auto edges = distinctEdges(nv, 10000, 0x5EED);
    XPGraphConfig c = smallConfig(nv, edges.size());
    c.backingDir = dir_;
    {
        XPGraph graph(c);
        ingestConcurrent(graph, edges, 4, Split::Contiguous);
        // No archiveAll: the per-node logs still hold their tails
        // (pressure during ingest drained an arbitrary prefix of each).
        graph.syncBackings();
        // destructor: "crash" — all DRAM state gone
    }
    auto recovered = XPGraph::recover(c);
    recovered->archiveAll();
    expectMatchesOut(*recovered, nv, replayOut(nv, edges));
    EXPECT_GT(recovered->stats().recoveryNs, 0u);
}

TEST_F(ConcurrentRecovery, PipelinedModeRecovers)
{
    const vid_t nv = 200;
    const auto edges = distinctEdges(nv, 10000, 0x9A9A);
    XPGraphConfig c = smallConfig(nv, edges.size());
    c.backingDir = dir_;
    c.pipelinedArchiving = true;
    {
        XPGraph graph(c);
        ingestConcurrent(graph, edges, 3, Split::Contiguous);
        graph.syncBackings();
    }
    // Recover without the background archiver: the images are plain.
    XPGraphConfig r = c;
    r.pipelinedArchiving = false;
    auto recovered = XPGraph::recover(r);
    recovered->archiveAll();
    expectMatchesOut(*recovered, nv, replayOut(nv, edges));
}

} // namespace
} // namespace xpg
