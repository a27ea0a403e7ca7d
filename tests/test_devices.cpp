/**
 * @file
 * DramDevice, MemoryModeDevice, NumaBinding, and cost-model behaviour
 * not covered by the PmemDevice tests, plus edge cases every device kind
 * shares.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "pmem/cost_model.hpp"
#include "pmem/dram_device.hpp"
#include "pmem/memory_mode_device.hpp"
#include "pmem/numa_topology.hpp"
#include "pmem/pmem_device.hpp"
#include "pmem/ssd_device.hpp"
#include "pmem/xpline.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace xpg {
namespace {

class DeviceTest : public ::testing::Test
{
  protected:
    void SetUp() override { NumaBinding::unbindThread(); }
    void TearDown() override { NumaBinding::unbindThread(); }
};

TEST_F(DeviceTest, DramRoundTrip)
{
    DramDevice dev("d", 1 << 20, 0, 1);
    std::vector<uint8_t> data(4096);
    std::iota(data.begin(), data.end(), 1);
    dev.write(100, data.data(), data.size());
    std::vector<uint8_t> back(4096);
    dev.read(100, back.data(), back.size());
    EXPECT_EQ(data, back);
    EXPECT_EQ(dev.counters().appBytesWritten, 4096u);
    EXPECT_EQ(dev.counters().mediaBytesWritten, 0u); // no media concept
}

TEST_F(DeviceTest, DramSequentialBeatsRandomPerByte)
{
    DramDevice dev("d", 16 << 20, 0, 1);
    std::vector<uint8_t> chunk(4096);

    const uint64_t t0 = SimClock::now();
    for (int i = 0; i < 256; ++i)
        dev.write(static_cast<uint64_t>(i) * 4096, chunk.data(), 4096);
    const uint64_t seq_ns = SimClock::now() - t0;

    Rng rng(5);
    const uint64_t t1 = SimClock::now();
    for (int i = 0; i < 256 * 64; ++i) { // same byte volume, 64 B quanta
        uint8_t b = 0;
        dev.write(rng.nextBounded((16 << 20) - 1), &b, 1);
    }
    const uint64_t rand_ns = SimClock::now() - t1;
    EXPECT_GT(rand_ns, 2 * seq_ns);
}

TEST_F(DeviceTest, DramRemotePenaltyIsSmallerThanPmem)
{
    const CostParams &p = globalCostParams();
    EXPECT_LT(p.dramRemoteMult, p.pmemRemoteReadMult);
}

TEST_F(DeviceTest, MemoryModeHitsAfterFirstTouch)
{
    MemoryModeDevice dev("mm", 1 << 20, /*cache=*/1 << 20, 0, 1);
    uint32_t v = 1;
    dev.write(0, &v, 4); // miss: media read
    const auto after_first = dev.counters();
    EXPECT_EQ(after_first.mediaReadOps, 1u);
    dev.write(4, &v, 4); // same line: DRAM hit
    dev.read(8, &v, 4);  // same line: DRAM hit
    const auto after = dev.counters();
    EXPECT_EQ(after.mediaReadOps, 1u);
    // Every line access is a hit or a miss, and each miss is one media
    // read.
    EXPECT_GT(static_cast<double>(after.bufferHits) /
                  static_cast<double>(after.bufferHits + after.mediaReadOps),
              0.5);
}

TEST_F(DeviceTest, MemoryModeConflictEvictsDirtyLine)
{
    // Cache of exactly one line: alternating lines conflict.
    MemoryModeDevice dev("mm", 1 << 20, kXPLineSize, 0, 1);
    uint32_t v = 1;
    dev.write(0, &v, 4);
    const auto before = dev.counters();
    dev.write(kXPLineSize, &v, 4); // conflicts, victim dirty
    const auto after = dev.counters();
    EXPECT_EQ(after.mediaWriteOps - before.mediaWriteOps, 1u);
    EXPECT_EQ(after.mediaReadOps - before.mediaReadOps, 1u);
}

TEST_F(DeviceTest, MemoryModeMatchesDirectMappedReference)
{
    // Memory Mode is a direct-mapped XPLine cache: line L lives in slot
    // L mod (cache lines). A model holding a tag and a dirty bit per slot
    // predicts every hit, media read, dirty write-back and write-miss RMW
    // of a seeded mix of sub-line and multi-line reads and writes.
    constexpr uint64_t kCacheBytes = 64 << 10;
    constexpr uint64_t kSlots = kCacheBytes / kXPLineSize;
    constexpr uint64_t kCapacity = 1 << 20;
    MemoryModeDevice dev("mm", kCapacity, kCacheBytes, 0, 1);

    struct Slot
    {
        uint64_t tag = ~uint64_t{0};
        bool dirty = false;
    };
    std::vector<Slot> model(kSlots);
    uint64_t hits = 0, reads = 0, writes = 0, rmw = 0;
    std::vector<std::byte> buf(4 * kXPLineSize);
    Rng rng(21);
    for (int i = 0; i < 20000; ++i) {
        const bool is_write = rng.nextBounded(2) == 0;
        const uint64_t size = rng.nextBounded(4) == 0
                                  ? 1 + rng.nextBounded(buf.size())
                                  : 1 + rng.nextBounded(16);
        // Half the accesses stay in a region 1.5x the cache, so hits,
        // conflicts and dirty evictions all occur.
        const uint64_t span = rng.nextBounded(2) ? kCacheBytes * 3 / 2
                                                 : kCapacity;
        const uint64_t off = rng.nextBounded(span - size + 1);
        if (is_write)
            dev.write(off, buf.data(), size);
        else
            dev.read(off, buf.data(), size);
        for (uint64_t line = xplineOf(off);
             line <= xplineOf(off + size - 1); ++line) {
            Slot &s = model[line % kSlots];
            if (s.tag == line) {
                ++hits;
                s.dirty = s.dirty || is_write;
                continue;
            }
            ++reads;
            rmw += is_write;
            writes += s.dirty;
            s = Slot{line, is_write};
        }
    }
    ASSERT_GT(hits, 1000u);
    ASSERT_GT(writes, 1000u);
    const PcmCounters c = dev.counters();
    EXPECT_EQ(c.bufferHits, hits);
    EXPECT_EQ(c.mediaReadOps, reads);
    EXPECT_EQ(c.mediaWriteOps, writes);
    const telemetry::AttributionSnapshot a = dev.attribution();
    uint64_t rmw_reads = 0;
    for (const telemetry::AttributionRow &row : a.rows)
        rmw_reads += row.rmwReads;
    EXPECT_EQ(rmw_reads, rmw);
}

TEST_F(DeviceTest, MemoryModeIsSlowerThanDramFasterThanNothing)
{
    // A working set far beyond the cache behaves like PMEM; within the
    // cache it behaves like DRAM.
    MemoryModeDevice big_cache("mm1", 8 << 20, 8 << 20, 0, 1);
    MemoryModeDevice tiny_cache("mm2", 8 << 20, 4 << 10, 0, 1);
    Rng rng(9);
    auto sweep = [&rng](MemoryModeDevice &dev) {
        const uint64_t t0 = SimClock::now();
        for (int i = 0; i < 5000; ++i) {
            uint32_t v = i;
            dev.write(4 * rng.nextBounded((8 << 20) / 4 - 1), &v, 4);
        }
        return SimClock::now() - t0;
    };
    const uint64_t warm = sweep(big_cache);  // first pass fills cache
    const uint64_t warm2 = sweep(big_cache); // second pass mostly hits
    const uint64_t cold = sweep(tiny_cache);
    EXPECT_LT(warm2, warm);
    EXPECT_GT(cold, warm2);
}

TEST_F(DeviceTest, BindingIsPerThread)
{
    NumaBinding::bindThread(1, false);
    EXPECT_EQ(NumaBinding::currentNode(), 1);
    std::thread t([] {
        EXPECT_EQ(NumaBinding::currentNode(), kUnboundNode);
        NumaBinding::bindThread(0, false);
        EXPECT_EQ(NumaBinding::currentNode(), 0);
    });
    t.join();
    EXPECT_EQ(NumaBinding::currentNode(), 1);
}

TEST_F(DeviceTest, RebindingChargesMigrationOnce)
{
    NumaBinding::unbindThread();
    const uint64_t t0 = SimClock::now();
    NumaBinding::bindThread(0, true); // first bind: free
    EXPECT_EQ(SimClock::now(), t0);
    NumaBinding::bindThread(0, true); // no-op: same node
    EXPECT_EQ(SimClock::now(), t0);
    NumaBinding::bindThread(1, true); // migration
    EXPECT_EQ(SimClock::now() - t0,
              globalCostParams().threadMigrationNs);
}

TEST_F(DeviceTest, ContentionMultIsPiecewiseLinear)
{
    EXPECT_DOUBLE_EQ(CostParams::contentionMult(4, 8, 0.2), 1.0);
    EXPECT_DOUBLE_EQ(CostParams::contentionMult(8, 8, 0.2), 1.0);
    EXPECT_DOUBLE_EQ(CostParams::contentionMult(10, 8, 0.2), 1.4);
    EXPECT_DOUBLE_EQ(CostParams::contentionMult(16, 8, 0.5), 5.0);
}

TEST_F(DeviceTest, UnboundAccessChargesAverageRemoteCost)
{
    // On a 2-node topology, an unbound thread pays halfway between the
    // local and remote rates for media traffic.
    CostParams params = globalCostParams();
    PmemDevice local("l", 4 << 20, 0, 2, "", XPBufferConfig{}, &params);
    PmemDevice other("o", 4 << 20, 0, 2, "", XPBufferConfig{}, &params);
    auto scatter = [](PmemDevice &dev) {
        Rng rng(3);
        const uint64_t t0 = SimClock::now();
        for (unsigned i = 0; i < 3000; ++i) {
            uint32_t v = i;
            dev.write(4 + kXPLineSize * rng.nextBounded(8000), &v, 4);
        }
        return SimClock::now() - t0;
    };
    NumaBinding::bindThread(0, false);
    const uint64_t local_ns = scatter(local);
    NumaBinding::unbindThread();
    const uint64_t unbound_ns = scatter(other);
    EXPECT_GT(unbound_ns, local_ns);
    EXPECT_LT(unbound_ns, local_ns * 3); // below the full remote rate
}

TEST_F(DeviceTest, ZeroByteAccessesAreFree)
{
    // A zero-byte access touches no line: every device kind returns at
    // once, charges no simulated time and moves no counter — at offset 0
    // too, where a last line computed as off + size - 1 would wrap.
    PmemDevice pmem("p", 1 << 20, 0, 1);
    DramDevice dram("d", 1 << 20, 0, 1);
    SsdDevice ssd("s", 1 << 20, 0, 1);
    MemoryModeDevice mm("m", 1 << 20, 64 << 10, 0, 1);
    MemoryDevice *devices[] = {&pmem, &dram, &ssd, &mm};
    uint64_t buf = 0;
    for (MemoryDevice *dev : devices) {
        for (const uint64_t off : {uint64_t{0}, uint64_t{8}}) {
            const uint64_t t0 = SimClock::now();
            dev->read(off, &buf, 0);
            EXPECT_NE(dev->readView(off, 0), nullptr);
            dev->write(off, &buf, 0);
            dev->persist(off, 0);
            EXPECT_EQ(SimClock::now(), t0)
                << dev->name() << " at offset " << off;
        }
        const PcmCounters c = dev->counters();
        EXPECT_EQ(c.appBytesRead + c.appBytesWritten + c.mediaBytesRead +
                      c.mediaBytesWritten + c.mediaReadOps +
                      c.mediaWriteOps + c.bufferHits + c.remoteAccesses,
                  0u)
            << dev->name();
    }
}

} // namespace
} // namespace xpg
