/**
 * @file
 * Circular edge log: pointer ordering invariants (Fig.7), wrap-around,
 * overwrite protection, the battery-backed relaxation, and recovery.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/circular_edge_log.hpp"
#include "pmem/pmem_device.hpp"

namespace xpg {
namespace {

std::vector<Edge>
makeEdges(uint64_t n, vid_t base = 0)
{
    std::vector<Edge> edges;
    for (uint64_t i = 0; i < n; ++i)
        edges.push_back(Edge{static_cast<vid_t>(base + i),
                             static_cast<vid_t>(base + i + 1)});
    return edges;
}

TEST(CircularEdgeLog, AppendAndReadBack)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    CircularEdgeLog log(dev, 0, 128, false, /*durable=*/true);
    const auto edges = makeEdges(10);
    EXPECT_EQ(log.append(edges.data(), edges.size()), 10u);
    EXPECT_EQ(log.head(), 10u);
    std::vector<Edge> back;
    log.readRange(0, 10, back);
    EXPECT_EQ(back, edges);
}

TEST(CircularEdgeLog, AppendStopsAtUnflushedEdges)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    CircularEdgeLog log(dev, 0, 16, false, /*durable=*/true);
    const auto edges = makeEdges(32);
    EXPECT_EQ(log.append(edges.data(), 32), 16u); // capacity bound
    EXPECT_EQ(log.freeSlots(), 0u);
    // Buffering alone does not reclaim space in the persistent variant.
    log.markBuffered(16);
    EXPECT_EQ(log.freeSlots(), 0u);
    log.markFlushed(16);
    EXPECT_EQ(log.freeSlots(), 16u);
}

TEST(CircularEdgeLog, BatteryBackedReclaimsOnBuffering)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    CircularEdgeLog log(dev, 0, 16, true, /*durable=*/true);
    const auto edges = makeEdges(16);
    log.append(edges.data(), 16);
    log.markBuffered(16);
    EXPECT_EQ(log.freeSlots(), 16u); // buffered edges are battery-safe
}

TEST(CircularEdgeLog, WrapAroundPreservesData)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    CircularEdgeLog log(dev, 0, 16, false, /*durable=*/true);
    auto first = makeEdges(12, 0);
    log.append(first.data(), 12);
    log.markBuffered(12);
    log.markFlushed(12);
    auto second = makeEdges(10, 100); // wraps physically
    EXPECT_EQ(log.append(second.data(), 10), 10u);
    std::vector<Edge> back;
    log.readRange(12, 22, back);
    EXPECT_EQ(back, second);
}

TEST(CircularEdgeLog, PointerOrderEnforced)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    CircularEdgeLog log(dev, 0, 16, false, /*durable=*/true);
    auto edges = makeEdges(8);
    log.append(edges.data(), 8);
    EXPECT_DEATH(log.markBuffered(9), "out of order");
    log.markBuffered(8);
    EXPECT_DEATH(log.markFlushed(9), "out of order");
}

TEST(CircularEdgeLog, RecoverRestoresPointers)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    {
        CircularEdgeLog log(dev, 0, 64, false, /*durable=*/true);
        auto edges = makeEdges(40);
        log.append(edges.data(), 40);
        log.markBuffered(30);
        log.markFlushed(10);
    }
    std::string error;
    auto log = CircularEdgeLog::tryRecover(dev, 0, false, &error);
    ASSERT_TRUE(log.has_value()) << error;
    EXPECT_EQ(log->head(), 40u);
    EXPECT_EQ(log->bufferedUpTo(), 30u);
    EXPECT_EQ(log->flushedUpTo(), 10u);
    EXPECT_EQ(log->nonBuffered(), 10u);
    EXPECT_EQ(log->unflushed(), 20u);
    std::vector<Edge> window;
    log->readRange(10, 30, window);
    EXPECT_EQ(window.size(), 20u);
    EXPECT_EQ(window.front().src, 10u);
}

TEST(CircularEdgeLog, RecoverRejectsGarbage)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    std::string error;
    uint64_t rejected = 0;
    EXPECT_FALSE(
        CircularEdgeLog::tryRecover(dev, 0, false, &error, &rejected));
    EXPECT_NE(error.find("header corrupt"), std::string::npos) << error;
    EXPECT_EQ(rejected, 2u);
}

TEST(CircularEdgeLog, NonDurableLogWritesOnlyItsSlots)
{
    // Every method that persists on a durable log: none may write a
    // header byte or force a write-back when durable is false.
    PmemDevice dev("t", 1 << 20, 0, 1);
    CircularEdgeLog log(dev, 0, 128, true, /*durable=*/false);
    const auto edges = makeEdges(10);
    EXPECT_EQ(log.append(edges.data(), edges.size()), 10u);
    log.markBuffered(10);
    log.rewindBuffered(4);
    log.markBuffered(10);
    log.markFlushed(10);
    log.truncateHead(10);
    const PcmCounters c = dev.counters();
    EXPECT_EQ(c.appBytesWritten, edges.size() * sizeof(Edge));
    EXPECT_EQ(c.appBytesRead, 0u);
    EXPECT_EQ(c.mediaWriteOps, 0u);
    EXPECT_EQ(c.mediaBytesWritten, 0u);
}

TEST(CircularEdgeLog, RewindBufferedReopensTheWindow)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    {
        CircularEdgeLog log(dev, 0, 64, true, /*durable=*/true);
        const auto edges = makeEdges(40);
        log.append(edges.data(), 40);
        log.markBuffered(30);
        log.markFlushed(10);
        EXPECT_EQ(log.nonBuffered(), 10u);
        log.rewindBuffered(10);
        EXPECT_EQ(log.bufferedUpTo(), 10u);
        EXPECT_EQ(log.nonBuffered(), 30u);
        EXPECT_EQ(log.freeSlots(), 34u); // battery: reclaim at buffered
        EXPECT_DEATH(log.rewindBuffered(9), "out of range");
        EXPECT_DEATH(log.rewindBuffered(11), "out of range");
    }
    // The rewound marker is what the persisted header holds.
    auto log = CircularEdgeLog::tryRecover(dev, 0, true, nullptr);
    ASSERT_TRUE(log.has_value());
    EXPECT_EQ(log->head(), 40u);
    EXPECT_EQ(log->bufferedUpTo(), 10u);
    EXPECT_EQ(log->nonBuffered(), 30u);
}

TEST(CircularEdgeLog, SequentialAppendsDoNotAmplify)
{
    PmemDevice dev("t", 8 << 20, 0, 1);
    CircularEdgeLog log(dev, 0, 1 << 16, false, /*durable=*/true);
    auto edges = makeEdges(1 << 14);
    log.append(edges.data(), edges.size());
    const auto c = dev.counters();
    // Logging is the paper's cheap phase: media writes should be close to
    // the app bytes (headers add a little), with no RMW storm.
    EXPECT_LT(c.mediaBytesRead, c.appBytesWritten / 4);
}

} // namespace
} // namespace xpg
