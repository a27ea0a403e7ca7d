/**
 * @file
 * AdjacencyStore unit tests: append/fill/grow behaviour, chain reads,
 * contains(), compaction, persistent-index recovery, and the streaming
 * write pattern (property-checked over append sizes with TEST_P).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "core/adjacency_store.hpp"
#include "pmem/pmem_device.hpp"
#include "pmem/xpline.hpp"

namespace xpg {
namespace {

/**
 * Reload @p slot through the crash-safe loader and check it found the
 * chain intact: nothing dropped, nothing truncated.
 */
VertexChain
reloadIntact(AdjacencyStore &store, uint64_t slot)
{
    ChainScan scan;
    const VertexChain loaded = store.loadChainValidated(slot, scan);
    EXPECT_EQ(scan.blocksDropped, 0u);
    EXPECT_EQ(scan.recordsTruncated, 0u);
    return loaded;
}

/** A reloaded intact chain reproduces its DRAM mirror field by field. */
void
expectMirrors(const VertexChain &loaded, const VertexChain &mirror)
{
    EXPECT_EQ(loaded.head, mirror.head);
    EXPECT_EQ(loaded.tail, mirror.tail);
    EXPECT_EQ(loaded.records, mirror.records);
    EXPECT_EQ(loaded.tailCount, mirror.tailCount);
    EXPECT_EQ(loaded.tailCapacity, mirror.tailCapacity);
    EXPECT_EQ(loaded.tailSum, mirror.tailSum);
    EXPECT_EQ(loaded.tailCommitSlot, mirror.tailCommitSlot);
}

class StoreFixture : public ::testing::Test
{
  protected:
    StoreFixture()
        : dev_("t", 16 << 20, 0, 1),
          alloc_(dev_, 1 << 16, 16 << 20, 128),
          store_(dev_, alloc_, 4096, 64, true)
    {
    }

    std::vector<vid_t>
    seq(uint32_t n, vid_t base = 0)
    {
        std::vector<vid_t> v(n);
        std::iota(v.begin(), v.end(), base);
        return v;
    }

    PmemDevice dev_;
    PmemAllocator alloc_;
    AdjacencyStore store_;
};

TEST_F(StoreFixture, AppendThenReadBack)
{
    VertexChain chain;
    const auto nebrs = seq(10);
    store_.append(0, nebrs.data(), 10, chain);
    EXPECT_EQ(chain.records, 10u);
    std::vector<vid_t> out;
    EXPECT_EQ(store_.readRaw(chain, out), 10u);
    EXPECT_EQ(out, nebrs);
}

TEST_F(StoreFixture, SecondAppendFillsTailFirst)
{
    VertexChain chain;
    auto first = seq(10);
    store_.append(1, first.data(), 10, chain);
    const uint64_t tail_before = chain.tail;
    ASSERT_GT(chain.tailCapacity, 10u) << "degree-sized block has slack";
    // An append that fits the tail's free space reuses it...
    const uint32_t fits = chain.tailCapacity - chain.tailCount;
    auto second = seq(fits, 100);
    store_.append(1, second.data(), fits, chain);
    EXPECT_EQ(chain.tail, tail_before) << "small appends reuse the tail";
    // ...and a further append must chain a new block.
    auto third = seq(20, 200);
    store_.append(1, third.data(), 20, chain);
    EXPECT_NE(chain.tail, tail_before);
    EXPECT_EQ(chain.records, 30u + fits);

    std::vector<vid_t> out;
    store_.readRaw(chain, out);
    std::vector<vid_t> expect = first;
    expect.insert(expect.end(), second.begin(), second.end());
    expect.insert(expect.end(), third.begin(), third.end());
    EXPECT_EQ(out, expect);
}

TEST_F(StoreFixture, LargeAppendsGrowChain)
{
    // One append fits in one right-sized block; a second large append
    // overflows the tail and must chain a new block.
    VertexChain chain;
    auto first = seq(500);
    store_.append(2, first.data(), 500, chain);
    EXPECT_EQ(chain.head, chain.tail) << "single append = single block";
    auto second = seq(500, 1000);
    store_.append(2, second.data(), 500, chain);
    EXPECT_EQ(chain.records, 1000u);
    EXPECT_NE(chain.head, chain.tail) << "expected a multi-block chain";

    std::vector<vid_t> out;
    store_.readRaw(chain, out);
    std::vector<vid_t> expect = first;
    expect.insert(expect.end(), second.begin(), second.end());
    EXPECT_EQ(out, expect);
}

TEST_F(StoreFixture, BlockCapacityGrowsWithDegree)
{
    VertexChain chain;
    // Repeated medium appends: later blocks should be bigger.
    for (int i = 0; i < 40; ++i) {
        auto nebrs = seq(63, i * 100);
        store_.append(3, nebrs.data(), 63, chain);
    }
    EXPECT_GT(chain.tailCapacity, 63u)
        << "tail block capacity should exceed a single flush";
}

TEST_F(StoreFixture, ContainsFindsOnlyPresentRecords)
{
    VertexChain chain;
    auto nebrs = seq(100, 10);
    store_.append(4, nebrs.data(), 100, chain);
    EXPECT_TRUE(store_.contains(chain, 10));
    EXPECT_TRUE(store_.contains(chain, 109));
    EXPECT_FALSE(store_.contains(chain, 9));
    EXPECT_FALSE(store_.contains(chain, 110));
    EXPECT_FALSE(store_.contains(VertexChain{}, 10));
}

TEST_F(StoreFixture, CompactAppliesTombstonesAndSingleBlocks)
{
    VertexChain chain;
    std::vector<vid_t> recs{1, 2, 3, asDelete(2), 4, asDelete(9)};
    store_.append(5, recs.data(), static_cast<uint32_t>(recs.size()),
                  chain);
    store_.compact(5, chain);
    EXPECT_EQ(chain.head, chain.tail);
    std::vector<vid_t> out;
    store_.readRaw(chain, out);
    EXPECT_EQ(out, (std::vector<vid_t>{1, 3, 4}));
}

TEST_F(StoreFixture, CompactOfEmptyChainIsNoop)
{
    VertexChain chain;
    store_.compact(6, chain);
    EXPECT_TRUE(chain.empty());
}

TEST_F(StoreFixture, LoadChainRebuildsFromIndex)
{
    VertexChain chain;
    for (int i = 0; i < 5; ++i) {
        auto nebrs = seq(80, i * 1000);
        store_.append(7, nebrs.data(), 80, chain);
    }
    const VertexChain loaded = reloadIntact(store_, 7);
    expectMirrors(loaded, chain);

    std::vector<vid_t> a, b;
    store_.readRaw(chain, a);
    store_.readRaw(loaded, b);
    EXPECT_EQ(a, b);
}

TEST_F(StoreFixture, LoadChainOfUntouchedSlotIsEmpty)
{
    EXPECT_TRUE(reloadIntact(store_, 63).empty());
}

TEST_F(StoreFixture, DistinctSlotsAreIndependent)
{
    VertexChain a, b;
    auto na = seq(5, 0);
    auto nb = seq(7, 100);
    store_.append(10, na.data(), 5, a);
    store_.append(11, nb.data(), 7, b);
    std::vector<vid_t> out;
    store_.readRaw(a, out);
    EXPECT_EQ(out, na);
    out.clear();
    store_.readRaw(b, out);
    EXPECT_EQ(out, nb);
}

TEST_F(StoreFixture, WholeBlockWritesAreStreamingFriendly)
{
    // Fresh block writes start at XPLine bases: no RMW reads.
    const auto before = dev_.counters();
    VertexChain chain;
    auto nebrs = seq(1000);
    store_.append(12, nebrs.data(), 1000, chain);
    const auto delta = dev_.counters() - before;
    // Index + tail-header updates cause a few reads; data writes none.
    EXPECT_LT(delta.mediaBytesRead, 4 * kXPLineSize);
}

// ---------------------------------------------------------------------------
// Compressed chunks (DESIGN.md §11): delta+varint hub runs.
// ---------------------------------------------------------------------------

/** Store with compression on and a tiny degree threshold, so small
 *  runs exercise the compressed path. */
class CompressedStoreFixture : public ::testing::Test
{
  protected:
    CompressedStoreFixture()
        : dev_("t", 16 << 20, 0, 1),
          alloc_(dev_, 1 << 16, 16 << 20, 128),
          store_(dev_, alloc_, 4096, 64, true,
                 CompressionPolicy{8})
    {
    }

    std::vector<vid_t>
    seq(uint32_t n, vid_t base = 0)
    {
        std::vector<vid_t> v(n);
        std::iota(v.begin(), v.end(), base);
        return v;
    }

    AdjacencyStore::BlockHeader
    headerAt(uint64_t off)
    {
        return dev_.readPod<AdjacencyStore::BlockHeader>(off);
    }

    PmemDevice dev_;
    PmemAllocator alloc_;
    AdjacencyStore store_;
};

TEST_F(CompressedStoreFixture, HubRunBecomesSortedCompressedChunk)
{
    VertexChain chain;
    // Unsorted on purpose: the chunk stores the sorted run.
    std::vector<vid_t> nebrs{90, 5, 30, 7, 1000, 2, 64, 63, 65, 4};
    store_.append(0, nebrs.data(), static_cast<uint32_t>(nebrs.size()),
                  chain);
    const auto hdr = headerAt(chain.tail);
    EXPECT_TRUE(hdr.compressed());
    EXPECT_EQ(hdr.liveCount(), nebrs.size());
    EXPECT_EQ(chain.tailCapacity, chain.tailCount) << "sealed chunk";

    std::vector<vid_t> out;
    EXPECT_EQ(store_.readRaw(chain, out), nebrs.size());
    std::sort(nebrs.begin(), nebrs.end());
    EXPECT_EQ(out, nebrs);

    const CompressionStats cs = store_.compressionStats();
    EXPECT_EQ(cs.chunksCompressed, 1u);
    EXPECT_EQ(cs.recordsCompressed, nebrs.size());
    EXPECT_LT(cs.encodedBytes, cs.rawBytes);
}

TEST_F(CompressedStoreFixture, LowDegreeRunsStayRaw)
{
    VertexChain chain;
    auto nebrs = seq(4);
    store_.append(1, nebrs.data(), 4, chain);
    EXPECT_FALSE(headerAt(chain.tail).compressed());
    EXPECT_EQ(store_.compressionStats().chunksCompressed, 0u);
}

TEST_F(CompressedStoreFixture, RunsWithTombstonesStayRaw)
{
    VertexChain chain;
    auto nebrs = seq(20);
    nebrs[10] = asDelete(3);
    store_.append(2, nebrs.data(), 20, chain);
    EXPECT_FALSE(headerAt(chain.tail).compressed());
    std::vector<vid_t> out;
    store_.readRaw(chain, out);
    EXPECT_EQ(out, nebrs) << "raw blocks keep exact record order";
}

TEST_F(CompressedStoreFixture, MixedRawAndCompressedChainReadsBack)
{
    VertexChain chain;
    auto small = seq(3);
    store_.append(3, small.data(), 3, chain);
    const uint64_t raw_head = chain.head;
    ASSERT_FALSE(headerAt(raw_head).compressed());

    // Fill the raw tail's slack, then compress the overflow run.
    auto hub = seq(600, 100);
    store_.append(3, hub.data(), 600, chain);
    EXPECT_NE(chain.tail, raw_head);
    EXPECT_TRUE(headerAt(chain.tail).compressed());

    std::vector<vid_t> out;
    store_.readRaw(chain, out);
    ASSERT_EQ(out.size(), 603u);
    // The raw prefix keeps append order; the compressed remainder comes
    // back sorted — compare as multisets.
    std::vector<vid_t> expect = small;
    expect.insert(expect.end(), hub.begin(), hub.end());
    std::multiset<vid_t> want(expect.begin(), expect.end());
    std::multiset<vid_t> got(out.begin(), out.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(std::vector<vid_t>(out.begin(), out.begin() + 3), small);
}

TEST_F(CompressedStoreFixture, DuplicateRecordsRoundTrip)
{
    VertexChain chain;
    std::vector<vid_t> nebrs{7, 7, 7, 9, 9, 12, 12, 12, 12, 50};
    store_.append(4, nebrs.data(), static_cast<uint32_t>(nebrs.size()),
                  chain);
    ASSERT_TRUE(headerAt(chain.tail).compressed());
    std::vector<vid_t> out;
    store_.readRaw(chain, out);
    EXPECT_EQ(out, nebrs) << "gap 0 encodes duplicates";
}

TEST_F(CompressedStoreFixture, MaxVidRoundTrips)
{
    VertexChain chain;
    std::vector<vid_t> nebrs{0, 1, kMaxVid - 1, kMaxVid};
    for (int i = 0; i < 4; ++i) // reach the degree threshold (8)
        nebrs.push_back(500 + i);
    std::sort(nebrs.begin(), nebrs.end());
    store_.append(5, nebrs.data(), static_cast<uint32_t>(nebrs.size()),
                  chain);
    ASSERT_TRUE(headerAt(chain.tail).compressed());
    std::vector<vid_t> out;
    store_.readRaw(chain, out);
    EXPECT_EQ(out, nebrs);
}

TEST_F(CompressedStoreFixture, ContainsSearchesCompressedChunks)
{
    VertexChain chain;
    auto nebrs = seq(100, 10);
    store_.append(6, nebrs.data(), 100, chain);
    ASSERT_TRUE(headerAt(chain.tail).compressed());
    EXPECT_TRUE(store_.contains(chain, 10));
    EXPECT_TRUE(store_.contains(chain, 109));
    EXPECT_FALSE(store_.contains(chain, 9));
    EXPECT_FALSE(store_.contains(chain, 110));
}

TEST_F(CompressedStoreFixture, CompactionCompressesEligibleSurvivors)
{
    VertexChain chain;
    auto nebrs = seq(50);
    nebrs.push_back(asDelete(10));
    nebrs.push_back(asDelete(20));
    store_.append(7, nebrs.data(), static_cast<uint32_t>(nebrs.size()),
                  chain);
    ASSERT_FALSE(headerAt(chain.tail).compressed())
        << "tombstoned run must stay raw";
    store_.compact(7, chain);
    EXPECT_EQ(chain.head, chain.tail);
    EXPECT_TRUE(headerAt(chain.head).compressed())
        << "insert-only survivor run compacts to one chunk";
    std::vector<vid_t> out;
    store_.readRaw(chain, out);
    std::vector<vid_t> expect = seq(50);
    expect.erase(expect.begin() + 20);
    expect.erase(expect.begin() + 10);
    EXPECT_EQ(out, expect);
}

TEST_F(CompressedStoreFixture, LoadChainMatchesDramMirror)
{
    VertexChain chain;
    auto a = seq(3);
    store_.append(8, a.data(), 3, chain);
    auto b = seq(400, 50);
    store_.append(8, b.data(), 400, chain);
    ASSERT_TRUE(headerAt(chain.tail).compressed());

    const VertexChain loaded = reloadIntact(store_, 8);
    expectMirrors(loaded, chain);
    EXPECT_EQ(loaded.tailCapacity, loaded.tailCount)
        << "compressed tails must load as sealed (capacity == count)";

    std::vector<vid_t> x, y;
    store_.readRaw(chain, x);
    store_.readRaw(loaded, y);
    EXPECT_EQ(x, y);
}

TEST_F(CompressedStoreFixture, ValidatedLoadAcceptsIntactChunks)
{
    VertexChain chain;
    auto nebrs = seq(300);
    store_.append(9, nebrs.data(), 300, chain);
    ASSERT_TRUE(headerAt(chain.tail).compressed());
    ChainScan scan;
    const VertexChain loaded = store_.loadChainValidated(9, scan);
    EXPECT_EQ(scan.blocksDropped, 0u);
    EXPECT_EQ(loaded.records, 300u);
    std::vector<vid_t> out;
    store_.readRaw(loaded, out);
    EXPECT_EQ(out, nebrs);
}

TEST_F(CompressedStoreFixture, CorruptedPayloadByteDropsChunk)
{
    VertexChain chain;
    auto small = seq(3);
    store_.append(10, small.data(), 3, chain);
    auto hub = seq(500, 100);
    store_.append(10, hub.data(), 500, chain);
    ASSERT_TRUE(headerAt(chain.tail).compressed());

    // Flip one payload byte: the commit checksum no longer matches, so
    // validation must refuse the chunk's commit and fall back to the
    // vacuous zero commit — the chunk holds nothing durable, exactly
    // like a torn raw block, and its records are reported truncated.
    const uint64_t payload_off =
        chain.tail + sizeof(AdjacencyStore::BlockHeader) + 5;
    uint8_t byte = 0;
    dev_.read(payload_off, &byte, 1);
    byte ^= 0xFF;
    dev_.write(payload_off, &byte, 1);

    ChainScan scan;
    const VertexChain loaded = store_.loadChainValidated(10, scan);
    EXPECT_GT(scan.recordsTruncated, 0u);
    EXPECT_LT(loaded.records, chain.records);
    std::vector<vid_t> out;
    store_.readRaw(loaded, out);
    ASSERT_GE(out.size(), small.size());
    for (size_t i = 0; i < small.size(); ++i)
        EXPECT_EQ(out[i], small[i]) << "raw prefix must survive intact";
}

TEST_F(CompressedStoreFixture, TruncatedVarintStreamIsRejected)
{
    VertexChain chain;
    auto nebrs = seq(200);
    store_.append(11, nebrs.data(), 200, chain);
    auto hdr = headerAt(chain.tail);
    ASSERT_TRUE(hdr.compressed());

    // Shrink the declared stream length inside the run header (keeping
    // the commit word): both the checksum and decodeRun's exact-
    // consumption check fail, so the chunk degrades to the vacuous
    // empty commit and every record it held is reported truncated.
    const uint64_t run_hdr_off =
        chain.tail + sizeof(AdjacencyStore::BlockHeader);
    adjcodec::RunHeader run{};
    dev_.read(run_hdr_off, &run, sizeof(run));
    run.encodedBytes -= 1;
    dev_.write(run_hdr_off, &run, sizeof(run));

    ChainScan scan;
    const VertexChain loaded = store_.loadChainValidated(11, scan);
    EXPECT_GT(scan.recordsTruncated, 0u);
    EXPECT_EQ(loaded.records, 0u) << "no partial decode may survive";
    std::vector<vid_t> out;
    store_.readRaw(loaded, out);
    EXPECT_TRUE(out.empty());
}

// --- codec-level adversarial cases (no store involved) ---

TEST(AdjacencyCodec, SingletonAndEmptyPayloads)
{
    std::vector<std::byte> payload;
    const vid_t one[] = {42};
    adjcodec::encodeRun(one, 1, payload);
    std::vector<vid_t> out;
    EXPECT_TRUE(adjcodec::decodeRun(payload.data(), payload.size(),
                                    [&](vid_t v) { out.push_back(v); }));
    EXPECT_EQ(out, (std::vector<vid_t>{42}));

    // No payload / header-only payloads are malformed, not UB.
    EXPECT_FALSE(adjcodec::decodeRun(payload.data(), 0, [](vid_t) {}));
    EXPECT_FALSE(adjcodec::decodeRun(payload.data(),
                                     sizeof(adjcodec::RunHeader) - 1,
                                     [](vid_t) {}));
}

TEST(AdjacencyCodec, TruncatedAndOversizedPayloadsFail)
{
    std::vector<std::byte> payload;
    const vid_t run[] = {1, 128, 1 << 20, 1 << 21};
    adjcodec::encodeRun(run, 4, payload);
    EXPECT_TRUE(
        adjcodec::decodeRun(payload.data(), payload.size(), [](vid_t) {}));
    EXPECT_FALSE(adjcodec::decodeRun(payload.data(), payload.size() - 1,
                                     [](vid_t) {}));
    payload.push_back(std::byte{0}); // trailing garbage
    EXPECT_FALSE(
        adjcodec::decodeRun(payload.data(), payload.size(), [](vid_t) {}));
}

TEST(AdjacencyCodec, OverflowingGapsAreRejected)
{
    // first vid kMaxVid, then a gap of 2: the accumulated id would
    // reach the delete-flag bit, which decode must refuse.
    std::vector<std::byte> payload;
    payload.resize(sizeof(adjcodec::RunHeader));
    adjcodec::encodeValue(payload, kMaxVid);
    adjcodec::encodeValue(payload, 2);
    const adjcodec::RunHeader hdr{
        2, static_cast<uint32_t>(payload.size() -
                                 sizeof(adjcodec::RunHeader))};
    std::memcpy(payload.data(), &hdr, sizeof(hdr));
    EXPECT_FALSE(
        adjcodec::decodeRun(payload.data(), payload.size(), [](vid_t) {}));
}

TEST(AdjacencyCodec, OverlongVarintIsRejected)
{
    // Five continuation bytes never terminate a uint32 varint.
    std::vector<std::byte> payload;
    payload.resize(sizeof(adjcodec::RunHeader));
    for (int i = 0; i < 5; ++i)
        payload.push_back(std::byte{0x80});
    payload.push_back(std::byte{0x01});
    const adjcodec::RunHeader hdr{
        1, static_cast<uint32_t>(payload.size() -
                                 sizeof(adjcodec::RunHeader))};
    std::memcpy(payload.data(), &hdr, sizeof(hdr));
    EXPECT_FALSE(
        adjcodec::decodeRun(payload.data(), payload.size(), [](vid_t) {}));
}

/** Property sweep: any sequence of append sizes reads back intact. */
class AppendPattern
    : public ::testing::TestWithParam<std::vector<uint32_t>>
{
};

TEST_P(AppendPattern, ReadBackMatchesAllAppends)
{
    PmemDevice dev("t", 32 << 20, 0, 1);
    PmemAllocator alloc(dev, 1 << 16, 32 << 20, 128);
    AdjacencyStore store(dev, alloc, 4096, 4, true);

    VertexChain chain;
    std::vector<vid_t> expect;
    vid_t next = 0;
    for (uint32_t n : GetParam()) {
        std::vector<vid_t> nebrs(n);
        std::iota(nebrs.begin(), nebrs.end(), next);
        next += n;
        store.append(0, nebrs.data(), n, chain);
        expect.insert(expect.end(), nebrs.begin(), nebrs.end());
    }
    std::vector<vid_t> out;
    EXPECT_EQ(store.readRaw(chain, out), expect.size());
    EXPECT_EQ(out, expect);
    EXPECT_EQ(chain.records, expect.size());

    // The persistent index agrees after a simulated restart.
    const VertexChain loaded = reloadIntact(store, 0);
    expectMirrors(loaded, chain);
    std::vector<vid_t> out2;
    store.readRaw(loaded, out2);
    EXPECT_EQ(out2, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, AppendPattern,
    ::testing::Values(std::vector<uint32_t>{1},
                      std::vector<uint32_t>{1, 1, 1, 1, 1, 1, 1, 1},
                      std::vector<uint32_t>{3, 7, 15, 31, 63},
                      std::vector<uint32_t>{63, 63, 63, 63},
                      std::vector<uint32_t>{1000},
                      std::vector<uint32_t>{1, 1000, 1},
                      std::vector<uint32_t>{500, 500, 500},
                      std::vector<uint32_t>{60, 1, 60, 1, 60}));

} // namespace
} // namespace xpg
