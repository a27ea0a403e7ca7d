/**
 * @file
 * Buddy pool invariants: distinct live blocks, recycling, buddy merging,
 * accounting, cross-thread frees, and the pool-limit signal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mempool/vertex_buffer_pool.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define XPG_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XPG_TEST_ASAN 1
#endif
#endif

#if defined(XPG_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace xpg {
namespace {

/**
 * The buddy allocator restated the slow way — a hash index of free
 * blocks and a scan of the list for every merged buddy — with the same
 * LIFO lists and swap-with-last removal. The pool must hand out exactly
 * the blocks this model does, in the same order, since its block
 * choices decide when a bulk (and its modeled OS charge) is acquired.
 */
class ReferenceBuddy
{
  public:
    ReferenceBuddy(uint64_t bulk, uint32_t min_block) : minBlock_(min_block)
    {
        while ((uint64_t{min_block} << (classes_ - 1)) < bulk)
            ++classes_;
        lists_.resize(classes_);
    }

    /** @p fresh_bulk names the base of a bulk acquired for this call. */
    uintptr_t
    alloc(uint32_t size, const std::function<uintptr_t()> &fresh_bulk)
    {
        const unsigned cls = classOf(size);
        unsigned have = cls;
        while (have < classes_ && lists_[have].empty())
            ++have;
        if (have == classes_) {
            have = classes_ - 1;
            push(fresh_bulk(), have);
            ++bulks_;
        }
        const uintptr_t block = lists_[have].back();
        lists_[have].pop_back();
        index_.erase(block);
        while (have > cls) {
            --have;
            push(block + (uint64_t{minBlock_} << have), have);
        }
        return block;
    }

    void
    free(uintptr_t addr, uint32_t size)
    {
        unsigned cls = classOf(size);
        while (cls + 1 < classes_) {
            const uintptr_t buddy = addr ^ (uint64_t{minBlock_} << cls);
            const auto it = index_.find(buddy);
            if (it == index_.end() || it->second != cls)
                break;
            index_.erase(it);
            auto &list = lists_[cls];
            *std::find(list.begin(), list.end(), buddy) = list.back();
            list.pop_back();
            addr = std::min(addr, buddy);
            ++cls;
        }
        push(addr, cls);
    }

    size_t bulks() const { return bulks_; }

  private:
    unsigned
    classOf(uint32_t size) const
    {
        unsigned cls = 0;
        while ((uint64_t{minBlock_} << cls) < size)
            ++cls;
        return cls;
    }

    void
    push(uintptr_t addr, unsigned cls)
    {
        lists_[cls].push_back(addr);
        index_.emplace(addr, cls);
    }

    uint32_t minBlock_;
    unsigned classes_ = 1;
    size_t bulks_ = 0;
    std::vector<std::vector<uintptr_t>> lists_;
    std::unordered_map<uintptr_t, unsigned> index_;
};

PoolConfig
smallPool(uint64_t bulk = 1 << 20)
{
    PoolConfig c;
    c.bulkSize = bulk;
    c.minBlock = 16;
    return c;
}

TEST(VertexBufferPool, AllocationsAreDistinctAndUsable)
{
    VertexBufferPool pool(smallPool());
    std::set<std::byte *> seen;
    std::vector<std::byte *> blocks;
    for (int i = 0; i < 100; ++i) {
        std::byte *p = pool.alloc(64);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(seen.insert(p).second) << "duplicate block";
        std::memset(p, i, 64);
        blocks.push_back(p);
    }
    // All blocks retain their bytes (no overlap).
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(static_cast<unsigned char>(blocks[i][0]),
                  static_cast<unsigned char>(i));
    for (auto *p : blocks)
        pool.free(p, 64);
}

TEST(VertexBufferPool, AlignmentMatchesSizeClass)
{
    VertexBufferPool pool(smallPool());
    for (uint32_t size : {16u, 32u, 64u, 128u, 256u}) {
        std::byte *p = pool.alloc(size);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % size, 0u)
            << "size " << size;
        pool.free(p, size);
    }
}

TEST(VertexBufferPool, FreedBlockIsRecycled)
{
    VertexBufferPool pool(smallPool());
    std::byte *a = pool.alloc(64);
    pool.free(a, 64);
    std::byte *b = pool.alloc(64);
    EXPECT_EQ(a, b);
    pool.free(b, 64);
}

TEST(VertexBufferPool, BuddyMergeAllowsLargerAllocation)
{
    // Allocate the whole bulk as min blocks, free them all, then a
    // bulk-sized allocation must succeed from the same bulk.
    const uint64_t bulk = 1 << 16;
    VertexBufferPool pool(smallPool(bulk));
    std::vector<std::byte *> blocks;
    for (uint64_t i = 0; i < bulk / 16; ++i)
        blocks.push_back(pool.alloc(16));
    EXPECT_EQ(pool.bulkCount(), 1u);
    for (auto *p : blocks)
        pool.free(p, 16);
    std::byte *big = pool.alloc(static_cast<uint32_t>(bulk));
    EXPECT_EQ(pool.bulkCount(), 1u) << "merge failed; new bulk acquired";
    pool.free(big, static_cast<uint32_t>(bulk));
}

TEST(VertexBufferPool, LiveAccountingTracksAllocations)
{
    VertexBufferPool pool(smallPool());
    EXPECT_EQ(pool.bytesLive(), 0u);
    std::byte *a = pool.alloc(128);
    std::byte *b = pool.alloc(64);
    EXPECT_EQ(pool.bytesLive(), 192u);
    pool.free(a, 128);
    EXPECT_EQ(pool.bytesLive(), 64u);
    pool.free(b, 64);
    EXPECT_EQ(pool.bytesLive(), 0u);
}

TEST(VertexBufferPool, ReservedGrowsByBulks)
{
    const uint64_t bulk = 1 << 16;
    VertexBufferPool pool(smallPool(bulk));
    EXPECT_EQ(pool.bytesReserved(), 0u);
    pool.alloc(16);
    EXPECT_EQ(pool.bytesReserved(), bulk);
}

TEST(VertexBufferPool, NearlyFullSignalsBeforeLimit)
{
    const uint64_t bulk = 1 << 16;
    PoolConfig c = smallPool(bulk);
    c.poolLimit = 2 * bulk;
    VertexBufferPool pool(c);
    EXPECT_FALSE(pool.nearlyFull());
    std::vector<std::byte *> blocks;
    // Fill most of the allowed space.
    for (uint64_t i = 0; i < (2 * bulk) / 256 - 8; ++i)
        blocks.push_back(pool.alloc(256));
    EXPECT_TRUE(pool.nearlyFull());
    for (auto *p : blocks)
        pool.free(p, 256);
    EXPECT_FALSE(pool.nearlyFull());
}

TEST(VertexBufferPool, CrossThreadFreeReturnsToOwningArena)
{
    VertexBufferPool pool(smallPool());
    std::byte *p = pool.alloc(64);
    std::thread t([&] { pool.free(p, 64); });
    t.join();
    EXPECT_EQ(pool.bytesLive(), 0u);
    // The block is recyclable afterwards.
    std::byte *q = pool.alloc(64);
    EXPECT_EQ(q, p);
    pool.free(q, 64);
}

TEST(VertexBufferPool, ManyThreadsGetIndependentArenas)
{
    VertexBufferPool pool(smallPool(1 << 16));
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&pool] {
            std::vector<std::byte *> mine;
            for (int i = 0; i < 200; ++i)
                mine.push_back(pool.alloc(32));
            for (auto *p : mine)
                pool.free(p, 32);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(pool.bytesLive(), 0u);
    EXPECT_GE(pool.bulkCount(), 4u); // one bulk per thread at least
}

TEST(VertexBufferPool, HandsOutTheReferenceBuddyBlocks)
{
    // Random allocs of the vertex-buffer layers (8..256 B, the engine's
    // minimum block) and frees in random order, across several small
    // bulks: every block must be the one the reference model picks.
    const uint64_t bulk = 1 << 14;
    PoolConfig c = smallPool(bulk);
    c.minBlock = 8;
    VertexBufferPool pool(c);
    ReferenceBuddy ref(bulk, c.minBlock);
    Rng rng(0xB0DD1);
    std::vector<std::pair<std::byte *, uint32_t>> live;
    for (int op = 0; op < 40000; ++op) {
        if (live.empty() || rng.nextBounded(100) < 55) {
            const uint32_t size = 8u << rng.nextBounded(6);
            std::byte *p = pool.alloc(size);
            const uintptr_t want = ref.alloc(size, [&] {
                return reinterpret_cast<uintptr_t>(p) & ~(bulk - 1);
            });
            ASSERT_EQ(reinterpret_cast<uintptr_t>(p), want) << "op " << op;
            ASSERT_EQ(pool.bulkCount(), ref.bulks()) << "op " << op;
            std::memset(p, 0xAB, size);
            live.emplace_back(p, size);
        } else {
            const size_t i = rng.nextBounded(live.size());
            std::swap(live[i], live.back());
            pool.free(live.back().first, live.back().second);
            ref.free(reinterpret_cast<uintptr_t>(live.back().first),
                     live.back().second);
            live.pop_back();
        }
    }
    for (const auto &[p, size] : live)
        pool.free(p, size);
    EXPECT_EQ(pool.bytesLive(), 0u);
}

TEST(VertexBufferPool, FreeBlocksArePoisonedUnderAsan)
{
#if defined(XPG_TEST_ASAN)
    // A listed block keeps only its 8-byte list position addressable,
    // so a reader of a returned vertex buffer trips ASAN.
    VertexBufferPool pool(smallPool());
    std::byte *a = pool.alloc(64);
    std::byte *b = pool.alloc(64);
    pool.free(a, 64);
    EXPECT_FALSE(__asan_address_is_poisoned(a));
    EXPECT_TRUE(__asan_address_is_poisoned(a + 8));
    EXPECT_TRUE(__asan_address_is_poisoned(a + 63));
    EXPECT_FALSE(__asan_address_is_poisoned(b + 8));
    std::byte *again = pool.alloc(64);
    ASSERT_EQ(again, a);
    EXPECT_FALSE(__asan_address_is_poisoned(a + 63));
    pool.free(again, 64);
    pool.free(b, 64);
#else
    GTEST_SKIP() << "poisoning is compiled in only under AddressSanitizer";
#endif
}

} // namespace
} // namespace xpg
