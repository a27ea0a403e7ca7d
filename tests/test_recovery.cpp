/**
 * @file
 * Crash/recovery integration: a file-backed XPGraph is destroyed at
 * various points of its lifecycle (all DRAM state lost) and recovered
 * from the device images; the recovered graph must equal the pre-crash
 * graph (paper S III-B / S V-D).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/xpgraph.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "temp_dir.hpp"

namespace xpg {
namespace {

class RecoveryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = makeTempDir(std::string("xpg_recovery_") +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name());
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    XPGraphConfig
    config(vid_t nv, uint64_t ne)
    {
        XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
        c.backingDir = dir_;
        c.elogCapacityEdges = 1 << 13;
        c.bufferingThresholdEdges = 1 << 9;
        c.archiveThreads = 4;
        c.pmemBytesPerNode = recommendedBytesPerNode(c, ne);
        return c;
    }

    std::string dir_;
};

void
expectSameNeighbors(XPGraph &graph, const Csr &out_csr, const Csr &in_csr)
{
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < graph.numVertices(); ++v) {
        nebrs.clear();
        graph.getNebrsOut(v, nebrs);
        std::sort(nebrs.begin(), nebrs.end());
        const auto expect = out_csr.neighbors(v);
        ASSERT_EQ(nebrs.size(), expect.size()) << "out-degree of " << v;
        EXPECT_TRUE(std::equal(nebrs.begin(), nebrs.end(), expect.begin()));

        nebrs.clear();
        graph.getNebrsIn(v, nebrs);
        std::sort(nebrs.begin(), nebrs.end());
        const auto expect_in = in_csr.neighbors(v);
        ASSERT_EQ(nebrs.size(), expect_in.size()) << "in-degree of " << v;
        EXPECT_TRUE(
            std::equal(nebrs.begin(), nebrs.end(), expect_in.begin()));

        // The recovered store must also rebuild the live-degree cache
        // and serve the zero-copy visitor path consistently.
        EXPECT_EQ(graph.degreeOut(v), expect.size())
            << "recovered degree cache (out) of " << v;
        EXPECT_EQ(graph.degreeIn(v), expect_in.size())
            << "recovered degree cache (in) of " << v;
        uint32_t visited = 0;
        graph.forEachNebrOut(v, [&](vid_t) { ++visited; });
        EXPECT_EQ(visited, expect.size())
            << "recovered visitor (out) of " << v;
    }
}

TEST_F(RecoveryTest, RecoverAfterFullFlush)
{
    const vid_t nv = 300;
    auto edges = generateRmat(9, 12000, RmatParams{}, 5);
    foldVertices(edges, nv);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
        // destructor: "crash" — all DRAM state gone
    }
    auto recovered = XPGraph::recover(c);
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
    EXPECT_GT(recovered->stats().recoveryNs, 0u);
}

/** Distinct edges (recovery's PMEM-dedup check drops duplicate edges
 *  by design, paper S III-B; see RecoverDropsDuplicateOfFlushedEdge). */
std::vector<Edge>
distinctEdges(vid_t nv, uint64_t n, uint64_t seed)
{
    auto edges = generateUniform(nv, n * 2, seed);
    std::sort(edges.begin(), edges.end(), [](const Edge &a, const Edge &b) {
        return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    if (edges.size() > n)
        edges.resize(n);
    return edges;
}

TEST_F(RecoveryTest, RecoverWithUnflushedBuffers)
{
    // Crash with edges sitting in (lost) DRAM vertex buffers: they must
    // be replayed from the log window [flushedUpTo, bufferedUpTo).
    const vid_t nv = 200;
    auto edges = distinctEdges(nv, 6000, 77);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges(); // buffered, NOT flushed
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, RecoverWithNonBufferedLogEdges)
{
    // Crash with edges only in the log: they stay pending and are
    // archived by the next buffering phase after recovery.
    const vid_t nv = 100;
    auto edges = generateUniform(nv, 3000, 31);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        // Log without triggering archiving for the tail edges.
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, RecoveredGraphAcceptsNewEdges)
{
    const vid_t nv = 100;
    auto edges = generateUniform(nv, 3000, 41);
    const XPGraphConfig c = config(nv, edges.size() * 2);
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    auto more = generateUniform(nv, 3000, 42);
    recovered->session(0)->addEdges(more.data(), more.size());
    recovered->bufferAllEdges();

    std::vector<Edge> all = edges;
    all.insert(all.end(), more.begin(), more.end());
    expectSameNeighbors(*recovered, Csr(nv, all, false),
                        Csr(nv, all, true));
}

TEST_F(RecoveryTest, RecoverPreservesDeletes)
{
    const vid_t nv = 50;
    const XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        {
            auto s = graph.session(0);
            s->addEdge(1, 2);
            s->addEdge(1, 3);
            s->delEdge(1, 2);
        }
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    std::vector<vid_t> nebrs;
    EXPECT_EQ(recovered->getNebrsOut(1, nebrs), 1u);
    EXPECT_EQ(nebrs[0], 3u);
}

TEST_F(RecoveryTest, RecoverDropsDuplicateOfFlushedEdge)
{
    // Documented consequence of the paper's redundancy check (S III-B):
    // a replayed edge whose twin already reached PMEM is dropped, so a
    // legitimate duplicate ingested after a flush does not survive a
    // crash that catches it in a DRAM vertex buffer.
    const vid_t nv = 10;
    const XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.bufferAllEdges();
        graph.flushAllVbufs(); // first copy reaches PMEM
        graph.session(0)->addEdge(1, 2); // duplicate
        graph.bufferAllEdges(); // duplicate buffered, not flushed
        graph.syncBackings();
    }
    auto recovered = XPGraph::recover(c);
    std::vector<vid_t> nebrs;
    EXPECT_EQ(recovered->getNebrsOut(1, nebrs), 1u)
        << "duplicate was dropped by the recovery dedup check";
}

TEST_F(RecoveryTest, RecoverRequiresBackingFiles)
{
    XPGraphConfig c = config(10, 100);
    EXPECT_EXIT(XPGraph::recover(c), ::testing::ExitedWithCode(1),
                "missing backing file");
}

TEST_F(RecoveryTest, RecoverRejectsMismatchedConfig)
{
    const vid_t nv = 100;
    XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.syncBackings();
    }
    XPGraphConfig wrong = c;
    wrong.maxVertices = nv * 2;
    EXPECT_EXIT(XPGraph::recover(wrong), ::testing::ExitedWithCode(1),
                "does not match");
}

// --- typed RecoveryReport (structured, non-fatal recovery outcomes) ---

TEST_F(RecoveryTest, TypedReportMissingBacking)
{
    XPGraphConfig c = config(10, 100);
    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    EXPECT_EQ(recovered, nullptr);
    EXPECT_EQ(report.status, RecoveryStatus::MissingBacking);
    EXPECT_NE(report.error.find("missing backing file"),
              std::string::npos)
        << report.error;
    EXPECT_STREQ(recoveryStatusName(report.status), "MissingBacking");
}

TEST_F(RecoveryTest, TypedReportConfigMismatch)
{
    const vid_t nv = 100;
    XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.syncBackings();
    }
    XPGraphConfig wrong = c;
    wrong.elogCapacityEdges *= 2;
    wrong.pmemBytesPerNode = recommendedBytesPerNode(wrong, 1000);
    RecoveryReport report;
    auto recovered = XPGraph::recover(wrong, &report);
    EXPECT_EQ(recovered, nullptr);
    EXPECT_EQ(report.status, RecoveryStatus::ConfigMismatch);
    EXPECT_NE(report.error.find("does not match"), std::string::npos)
        << report.error;
}

TEST_F(RecoveryTest, TypedReportCorruptSuperblock)
{
    const vid_t nv = 100;
    XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.syncBackings();
    }
    // Scribble over the superblock magic of node 0's backing file.
    const std::string path = dir_ + "/xpgraph_node0.pmem";
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    const uint64_t garbage = 0x6261646d61676963ull;
    std::fwrite(&garbage, sizeof(garbage), 1, f);
    std::fclose(f);

    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    EXPECT_EQ(recovered, nullptr);
    EXPECT_EQ(report.status, RecoveryStatus::SuperblockCorrupt);
    EXPECT_NE(report.error.find("superblock"), std::string::npos)
        << report.error;
}

TEST_F(RecoveryTest, TypedReportFlippedSuperblockBitFailsChecksum)
{
    const vid_t nv = 100;
    XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.syncBackings();
    }
    // Flip one byte inside the superblock body (past magic + version):
    // only the checksum catches this.
    const std::string path = dir_ + "/xpgraph_node0.pmem";
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    std::fseek(f, 40, SEEK_SET);
    uint8_t b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    b ^= 0x40;
    std::fseek(f, 40, SEEK_SET);
    std::fwrite(&b, 1, 1, f);
    std::fclose(f);

    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    EXPECT_EQ(recovered, nullptr);
    EXPECT_EQ(report.status, RecoveryStatus::SuperblockCorrupt);
    EXPECT_NE(report.error.find("checksum"), std::string::npos)
        << report.error;
}

TEST_F(RecoveryTest, CleanRecoveryReportCounts)
{
    const vid_t nv = 200;
    auto edges = distinctEdges(nv, 6000, 91);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges(); // buffered, not flushed: replay expected
        graph.syncBackings();
    }
    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    ASSERT_NE(recovered, nullptr) << report.error;
    EXPECT_TRUE(report.ok());
    EXPECT_GT(report.edgesReplayed, 0u);
    EXPECT_FALSE(report.repaired()) << "clean shutdown needed repairs";
    EXPECT_GT(report.recoveryNs, 0u);
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, TuningKnobsMayChangeAcrossRecovery)
{
    // Only geometry is fingerprinted: buffering/archiving knobs may be
    // retuned across a restart without invalidating the store.
    const vid_t nv = 100;
    auto edges = distinctEdges(nv, 2000, 93);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges();
        graph.syncBackings();
    }
    XPGraphConfig retuned = c;
    retuned.bufferingThresholdEdges *= 4;
    retuned.archiveThreads = 2;
    RecoveryReport report;
    auto recovered = XPGraph::recover(retuned, &report);
    ASSERT_NE(recovered, nullptr) << report.error;
    EXPECT_TRUE(report.ok());
    recovered->bufferAllEdges();
    expectSameNeighbors(*recovered, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, RecoverTwiceIsStable)
{
    const vid_t nv = 100;
    auto edges = distinctEdges(nv, 2000, 95);
    const XPGraphConfig c = config(nv, edges.size());
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
    }
    {
        auto first = XPGraph::recover(c);
        first->syncBackings();
    }
    RecoveryReport report;
    auto second = XPGraph::recover(c, &report);
    ASSERT_NE(second, nullptr) << report.error;
    EXPECT_TRUE(report.ok());
    second->bufferAllEdges();
    expectSameNeighbors(*second, Csr(nv, edges, false),
                        Csr(nv, edges, true));
}

TEST_F(RecoveryTest, FreshInstanceDiscardsStaleFiles)
{
    const vid_t nv = 50;
    const XPGraphConfig c = config(nv, 1000);
    {
        XPGraph graph(c);
        graph.session(0)->addEdge(1, 2);
        graph.bufferAllEdges();
        graph.flushAllVbufs();
        graph.syncBackings();
    }
    // A *fresh* instance over the same directory starts empty.
    XPGraph fresh(c);
    std::vector<vid_t> nebrs;
    EXPECT_EQ(fresh.getNebrsOut(1, nebrs), 0u);
}

} // namespace
} // namespace xpg
