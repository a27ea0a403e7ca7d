/**
 * @file
 * PmemDevice model: data integrity, counter accounting (amplification),
 * NUMA remote detection, persist behaviour, simulated-time charging, and
 * the crash model (powerCycle and fault injection).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <thread>
#include <vector>

#include "pmem/numa_topology.hpp"
#include "pmem/pmem_device.hpp"
#include "pmem/xpline.hpp"
#include "telemetry/attribution.hpp"
#include "temp_dir.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace xpg {
namespace {

class PmemDeviceTest : public ::testing::Test
{
  protected:
    void SetUp() override { NumaBinding::unbindThread(); }
    void TearDown() override { NumaBinding::unbindThread(); }
};

TEST_F(PmemDeviceTest, ReadBackWrittenData)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    std::vector<uint8_t> data(1000);
    std::iota(data.begin(), data.end(), 0);
    dev.write(123, data.data(), data.size());
    std::vector<uint8_t> back(1000);
    dev.read(123, back.data(), back.size());
    EXPECT_EQ(data, back);
}

TEST_F(PmemDeviceTest, AppCountersTrackRequests)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    uint32_t v = 42;
    dev.write(0, &v, 4);
    dev.read(0, &v, 4);
    const auto c = dev.counters();
    EXPECT_EQ(c.appBytesWritten, 4u);
    EXPECT_EQ(c.appBytesRead, 4u);
}

TEST_F(PmemDeviceTest, RandomSmallWritesAmplify)
{
    // Scatter 4-byte writes across far more lines than the XPBuffer holds:
    // nearly every store becomes a 256 B read-modify-write.
    PmemDevice dev("t", 64 << 20, 0, 1);
    Rng rng(1);
    const unsigned n = 20000;
    for (unsigned i = 0; i < n; ++i) {
        const uint64_t off =
            4 + kXPLineSize * rng.nextBounded((64 << 20) / kXPLineSize - 1);
        uint32_t v = i;
        dev.write(off, &v, 4);
    }
    const auto c = dev.counters();
    // ~64x write amplification modulo buffer residue.
    EXPECT_GT(c.writeAmplification(), 30.0);
    EXPECT_GT(c.readAmplification(), 30.0 * 4 / 4);
}

TEST_F(PmemDeviceTest, SequentialStreamDoesNotAmplify)
{
    PmemDevice dev("t", 8 << 20, 0, 1);
    std::vector<uint8_t> chunk(kXPLineSize);
    for (uint64_t off = 0; off < (4 << 20);
         off += kXPLineSize)
        dev.write(off, chunk.data(), chunk.size());
    const auto c = dev.counters();
    EXPECT_EQ(c.mediaBytesRead, 0u); // no RMW reads for line-base streams
    EXPECT_LE(c.mediaBytesWritten, c.appBytesWritten);
}

TEST_F(PmemDeviceTest, PersistForcesWriteBack)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    uint32_t v = 7;
    dev.write(0, &v, 4);
    const auto before = dev.counters();
    dev.persist(0, 4);
    const auto after = dev.counters();
    EXPECT_EQ(after.mediaBytesWritten - before.mediaBytesWritten,
              kXPLineSize);
    // Second persist of a clean line is free.
    dev.persist(0, 4);
    EXPECT_EQ(dev.counters().mediaBytesWritten, after.mediaBytesWritten);
}

TEST_F(PmemDeviceTest, RemoteAccessCountedForBoundThreads)
{
    PmemDevice dev("t", 1 << 20, /*node=*/0, /*num_nodes=*/2);
    NumaBinding::bindThread(0, false);
    uint32_t v = 1;
    dev.write(kXPLineSize, &v, 4);
    EXPECT_EQ(dev.counters().remoteAccesses, 0u);
    NumaBinding::bindThread(1, false);
    dev.write(5 * kXPLineSize + 4, &v, 4);
    EXPECT_GT(dev.counters().remoteAccesses, 0u);
}

TEST_F(PmemDeviceTest, RemoteAccessCostsMore)
{
    CostParams params = globalCostParams();
    PmemDevice local("l", 4 << 20, 0, 2, "", XPBufferConfig{}, &params);
    PmemDevice remote("r", 4 << 20, 1, 2, "", XPBufferConfig{}, &params);
    NumaBinding::bindThread(0, false);

    auto scatter = [](PmemDevice &dev) {
        const uint64_t start = SimClock::now();
        Rng rng(3);
        for (unsigned i = 0; i < 4000; ++i) {
            uint32_t v = i;
            dev.write(4 + kXPLineSize * rng.nextBounded(8000), &v, 4);
        }
        return SimClock::now() - start;
    };
    const uint64_t local_ns = scatter(local);
    const uint64_t remote_ns = scatter(remote);
    EXPECT_GT(remote_ns, local_ns * 3 / 2);
}

TEST_F(PmemDeviceTest, WriteContentionSlowsRandomStores)
{
    PmemDevice dev("t", 4 << 20, 0, 1);
    auto scatter = [&dev](uint64_t seed) {
        const uint64_t start = SimClock::now();
        Rng rng(seed);
        for (unsigned i = 0; i < 4000; ++i) {
            uint32_t v = i;
            dev.write(4 + kXPLineSize * rng.nextBounded(8000), &v, 4);
        }
        return SimClock::now() - start;
    };
    dev.setDeclaredWriters(1);
    const uint64_t quiet = scatter(11);
    dev.setDeclaredWriters(32);
    const uint64_t contended = scatter(12);
    EXPECT_GT(contended, quiet * 2);
}

TEST_F(PmemDeviceTest, FileBackingSurvivesReopen)
{
    const std::string dir = makeTempDir("xpg_pmem_backing");
    const std::string path = dir + "/pmem_backing.bin";
    {
        PmemDevice dev("t", 1 << 20, 0, 1, path);
        uint64_t v = 0xdeadbeefcafef00dull;
        dev.write(4096, &v, 8);
        dev.syncBacking();
    }
    {
        PmemDevice dev("t", 1 << 20, 0, 1, path);
        uint64_t v = 0;
        dev.read(4096, &v, 8);
        EXPECT_EQ(v, 0xdeadbeefcafef00dull);
    }
    std::filesystem::remove_all(dir);
}

TEST_F(PmemDeviceTest, OutOfRangeAccessPanics)
{
    PmemDevice dev("t", 4096, 0, 1);
    uint32_t v = 0;
    EXPECT_DEATH(dev.write(4096, &v, 4), "out of range");
    EXPECT_DEATH(dev.read(4094, &v, 4), "out of range");
}

// --- crash model: powerCycle() and fault injection ---

TEST_F(PmemDeviceTest, PowerCycleDropsUnflushedWrites)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    uint64_t v = 0x1111111111111111ull;
    dev.write(0, &v, 8); // buffered, never reaches the media
    dev.powerCycle();
    uint64_t back = ~0ull;
    dev.read(0, &back, 8);
    EXPECT_EQ(back, 0u);
}

TEST_F(PmemDeviceTest, PowerCyclePreservesPersistedWrites)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    uint64_t durable = 0x2222222222222222ull;
    uint64_t lost = 0x3333333333333333ull;
    dev.write(0, &durable, 8);
    dev.persist(0, 8);
    dev.write(kXPLineSize, &lost, 8); // different line, unflushed
    dev.powerCycle();
    uint64_t back = 0;
    dev.read(0, &back, 8);
    EXPECT_EQ(back, durable);
    dev.read(kXPLineSize, &back, 8);
    EXPECT_EQ(back, 0u);
}

TEST_F(PmemDeviceTest, QuiesceMakesWritesDurable)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    uint64_t v = 0x4444444444444444ull;
    dev.write(3 * kXPLineSize + 16, &v, 8);
    dev.quiesce();
    dev.powerCycle();
    uint64_t back = 0;
    dev.read(3 * kXPLineSize + 16, &back, 8);
    EXPECT_EQ(back, v);
}

TEST_F(PmemDeviceTest, TrippedInjectorMakesLaterWritesVolatile)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    FaultPlan plan;
    plan.crashAfterMediaWrites = 1; // first media write trips, lands whole
    auto injector = std::make_shared<FaultInjector>(plan);
    ASSERT_TRUE(dev.armFaults(injector));

    uint64_t first = 0x5555555555555555ull;
    dev.write(0, &first, 8);
    dev.persist(0, 8); // the triggering write (TornMode::None: lands)
    EXPECT_TRUE(injector->crashed());

    uint64_t second = 0x6666666666666666ull;
    dev.write(kXPLineSize, &second, 8);
    dev.persist(kXPLineSize, 8); // after the crash: silently volatile
    dev.powerCycle();

    uint64_t back = 0;
    dev.read(0, &back, 8);
    EXPECT_EQ(back, first);
    dev.read(kXPLineSize, &back, 8);
    EXPECT_EQ(back, 0u);
}

TEST_F(PmemDeviceTest, DroppedTriggeringWriteNeverLands)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    uint64_t old_v = 0x7777777777777777ull;
    dev.write(0, &old_v, 8);
    dev.persist(0, 8);

    FaultPlan plan;
    plan.crashAfterMediaWrites = 1;
    plan.torn = FaultPlan::TornMode::Drop;
    dev.armFaults(std::make_shared<FaultInjector>(plan));

    uint64_t new_v = 0x8888888888888888ull;
    dev.write(0, &new_v, 8);
    dev.persist(0, 8); // triggering write is dropped entirely
    dev.powerCycle();

    uint64_t back = 0;
    dev.read(0, &back, 8);
    EXPECT_EQ(back, old_v);
}

TEST_F(PmemDeviceTest, TornPrefixWritePersistsOnlyTheFirstBytes)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    std::vector<uint8_t> a(kXPLineSize, 0xAA);
    std::vector<uint8_t> b(kXPLineSize, 0xBB);
    dev.write(4096, a.data(), a.size());
    dev.persist(4096, a.size());

    FaultPlan plan;
    plan.crashAfterMediaWrites = 1;
    plan.torn = FaultPlan::TornMode::Prefix;
    plan.tornBytes = 128;
    dev.armFaults(std::make_shared<FaultInjector>(plan));

    dev.write(4096, b.data(), b.size());
    dev.persist(4096, b.size()); // trips: only the first 128 bytes land
    dev.powerCycle();

    std::vector<uint8_t> back(kXPLineSize);
    dev.read(4096, back.data(), back.size());
    for (unsigned i = 0; i < kXPLineSize; ++i)
        EXPECT_EQ(back[i], i < 128 ? 0xBB : 0xAA) << "byte " << i;
}

TEST_F(PmemDeviceTest, TornSuffixWritePersistsOnlyTheLastBytes)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    std::vector<uint8_t> a(kXPLineSize, 0xAA);
    std::vector<uint8_t> b(kXPLineSize, 0xBB);
    dev.write(4096, a.data(), a.size());
    dev.persist(4096, a.size());

    FaultPlan plan;
    plan.crashAfterMediaWrites = 1;
    plan.torn = FaultPlan::TornMode::Suffix;
    plan.tornBytes = 64;
    dev.armFaults(std::make_shared<FaultInjector>(plan));

    dev.write(4096, b.data(), b.size());
    dev.persist(4096, b.size());
    dev.powerCycle();

    std::vector<uint8_t> back(kXPLineSize);
    dev.read(4096, back.data(), back.size());
    for (unsigned i = 0; i < kXPLineSize; ++i)
        EXPECT_EQ(back[i], i < kXPLineSize - 64 ? 0xAA : 0xBB)
            << "byte " << i;
}

TEST_F(PmemDeviceTest, SharedInjectorCrashesAllArmedDevices)
{
    // One injector across two devices models a machine-wide power loss:
    // the trigger on one device makes writes on the other volatile too.
    PmemDevice dev0("n0", 1 << 20, 0, 2);
    PmemDevice dev1("n1", 1 << 20, 1, 2);
    FaultPlan plan;
    plan.crashAfterMediaWrites = 1;
    auto injector = std::make_shared<FaultInjector>(plan);
    dev0.armFaults(injector);
    dev1.armFaults(injector);

    uint64_t v = 0x9999999999999999ull;
    dev0.write(0, &v, 8);
    dev0.persist(0, 8); // trips the shared countdown
    EXPECT_TRUE(injector->crashed());

    dev1.write(0, &v, 8);
    dev1.persist(0, 8); // volatile: the machine is already down
    dev0.powerCycle();
    dev1.powerCycle();

    uint64_t back = 0;
    dev0.read(0, &back, 8);
    EXPECT_EQ(back, v);
    dev1.read(0, &back, 8);
    EXPECT_EQ(back, 0u);
}

TEST_F(PmemDeviceTest, PowerCycleDisarmsFaults)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    FaultPlan plan;
    plan.crashAfterMediaWrites = 1;
    dev.armFaults(std::make_shared<FaultInjector>(plan));
    uint64_t v = 1;
    dev.write(0, &v, 8);
    dev.persist(0, 8); // trip
    dev.powerCycle();  // restart: the plan is consumed

    uint64_t v2 = 0xabcdabcdabcdabcdull;
    dev.write(kXPLineSize, &v2, 8);
    dev.persist(kXPLineSize, 8);
    dev.powerCycle();
    uint64_t back = 0;
    dev.read(kXPLineSize, &back, 8);
    EXPECT_EQ(back, v2); // durable again after the restart
}

// --- crash model: XPBuffer eviction write-backs ---

/** Store @p v in the first 8 bytes of line @p line. */
void
putLine(PmemDevice &dev, uint64_t line, uint64_t v)
{
    dev.write(line * kXPLineSize, &v, 8);
}

uint64_t
getLine(PmemDevice &dev, uint64_t line)
{
    uint64_t v = 0;
    dev.read(line * kXPLineSize, &v, 8);
    return v;
}

/** A one-set buffer of @p ways lines: evictions follow plain LRU. */
XPBufferConfig
oneSet(unsigned ways)
{
    return XPBufferConfig{.numSets = 1, .ways = ways};
}

TEST_F(PmemDeviceTest, PowerCycleKeepsEvictedLinesAndRevertsBufferedOnes)
{
    // No plan armed: an eviction is a media write, so the lines pushed
    // out of a four-line buffer are durable, while the four most recent
    // stores never left it and are lost.
    PmemDevice dev("t", 1 << 20, 0, 1, "", oneSet(4));
    constexpr uint64_t kLines = 12;
    for (uint64_t line = 0; line < kLines; ++line)
        putLine(dev, line, 0x1000 + line);
    EXPECT_EQ(dev.counters().mediaWriteOps, kLines - 4);
    dev.powerCycle();
    for (uint64_t line = 0; line < kLines; ++line)
        EXPECT_EQ(getLine(dev, line), line < kLines - 4 ? 0x1000 + line : 0)
            << "line " << line;
}

/** Arm a plan whose first media write (a persist of @p line) trips. */
void
tripCrash(PmemDevice &dev, uint64_t line)
{
    FaultPlan plan;
    plan.crashAfterMediaWrites = 1;
    auto injector = std::make_shared<FaultInjector>(plan);
    ASSERT_TRUE(dev.armFaults(injector));
    putLine(dev, line, 0x7777);
    dev.persist(line * kXPLineSize, 8); // lands whole, then power fails
    ASSERT_TRUE(injector->crashed());
}

TEST_F(PmemDeviceTest, LineEvictedTwiceAfterCrashRevertsToItsDurableImage)
{
    // After the crash no write-back lands. Line 0 is evicted, dirtied
    // again and evicted again by stores; it must come back with the
    // image it had before the crash, not with its first lost write.
    PmemDevice dev("t", 1 << 20, 0, 1, "", oneSet(2));
    putLine(dev, 0, 0xD0D0);
    dev.persist(0, 8);
    tripCrash(dev, 9);

    putLine(dev, 0, 0x1111); // dirties line 0 over its durable image
    putLine(dev, 1, 0x1);
    putLine(dev, 2, 0x2);    // evicts line 0: lost
    putLine(dev, 0, 0x2222); // dirty again, over volatile bytes
    putLine(dev, 1, 0x3);
    putLine(dev, 2, 0x4);    // evicts line 0 again: lost
    const uint64_t writes = dev.counters().mediaWriteOps;
    dev.powerCycle();

    EXPECT_EQ(writes, 6u); // persist, trigger, four lost evictions
    EXPECT_EQ(getLine(dev, 0), 0xD0D0u);
    EXPECT_EQ(getLine(dev, 1), 0u);
    EXPECT_EQ(getLine(dev, 2), 0u);
    EXPECT_EQ(getLine(dev, 9), 0x7777u); // the trigger landed
}

TEST_F(PmemDeviceTest, LineEvictedByLoadsAfterCrashRevertsToItsDurableImage)
{
    // The same for write-backs forced by load misses.
    PmemDevice dev("t", 1 << 20, 0, 1, "", oneSet(2));
    putLine(dev, 0, 0xD0D0);
    dev.persist(0, 8);
    tripCrash(dev, 9);

    putLine(dev, 0, 0x1111);
    getLine(dev, 3);
    getLine(dev, 4); // evicts line 0: lost
    putLine(dev, 0, 0x2222);
    getLine(dev, 5);
    const uint64_t before = dev.counters().mediaWriteOps;
    getLine(dev, 6); // evicts line 0 again: lost
    EXPECT_EQ(dev.counters().mediaWriteOps, before + 1);
    dev.powerCycle();

    EXPECT_EQ(getLine(dev, 0), 0xD0D0u);
    EXPECT_EQ(getLine(dev, 9), 0x7777u);
}

// --- counters under concurrency ---

TEST_F(PmemDeviceTest, ConcurrentAccessesCountExactly)
{
    // Four threads store and load on one device, each under its own
    // category, in disjoint regions that span every XPBuffer set and
    // heat-table shard. Every counter must be exact: app bytes equal the
    // issued sums, each category row equals its thread's sums, and the
    // rows add up to counters() field by field.
    using telemetry::AccessCategory;
    using telemetry::AccessScope;
    constexpr unsigned kThreads = 4;
    constexpr unsigned kOps = 4000;
    constexpr uint64_t kRegion = 4 << 20;
    const AccessCategory cats[kThreads] = {
        AccessCategory::EdgeLogAppend, AccessCategory::AdjacencyArchive,
        AccessCategory::VertexMeta, AccessCategory::QueryRead};
    PmemDevice dev("t", kThreads * kRegion, 0, 2);
    struct Sums
    {
        uint64_t read = 0;
        uint64_t written = 0;
        uint64_t subLine = 0;
    };
    std::array<Sums, kThreads> sums;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            NumaBinding::unbindThread();
            AccessScope scope(cats[t]);
            Rng rng(40 + t);
            std::vector<std::byte> buf(3 * kXPLineSize);
            Sums &mine = sums[t];
            for (unsigned i = 0; i < kOps; ++i) {
                const uint64_t size = 1 + rng.nextBounded(buf.size());
                const uint64_t off =
                    t * kRegion + rng.nextBounded(kRegion - size);
                if (rng.nextBounded(2) == 0) {
                    dev.write(off, buf.data(), size);
                    mine.written += size;
                    mine.subLine += off % kXPLineSize != 0;
                } else {
                    dev.read(off, buf.data(), size);
                    mine.read += size;
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    dev.quiesce();

    const PcmCounters c = dev.counters();
    const telemetry::AttributionSnapshot snap = dev.attribution();
    uint64_t read = 0;
    uint64_t written = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        read += sums[t].read;
        written += sums[t].written;
        const telemetry::AttributionRow &row = snap[cats[t]];
        EXPECT_EQ(row.pcm.appBytesRead, sums[t].read) << t;
        EXPECT_EQ(row.pcm.appBytesWritten, sums[t].written) << t;
        EXPECT_EQ(row.subLineStores, sums[t].subLine) << t;
    }
    EXPECT_EQ(c.appBytesRead, read);
    EXPECT_EQ(c.appBytesWritten, written);
    EXPECT_GT(c.remoteAccesses, 0u); // unbound threads on a 2-node box
    const PcmCounters rows = snap.total();
    EXPECT_EQ(rows.appBytesRead, c.appBytesRead);
    EXPECT_EQ(rows.appBytesWritten, c.appBytesWritten);
    EXPECT_EQ(rows.mediaBytesRead, c.mediaBytesRead);
    EXPECT_EQ(rows.mediaBytesWritten, c.mediaBytesWritten);
    EXPECT_EQ(rows.mediaReadOps, c.mediaReadOps);
    EXPECT_EQ(rows.mediaWriteOps, c.mediaWriteOps);
    EXPECT_EQ(rows.bufferHits, c.bufferHits);
    EXPECT_EQ(rows.remoteAccesses, c.remoteAccesses);
    EXPECT_TRUE(snap[AccessCategory::Other].empty());
}

} // namespace
} // namespace xpg
