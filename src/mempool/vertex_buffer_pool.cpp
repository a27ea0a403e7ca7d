#include "mempool/vertex_buffer_pool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/logging.hpp"
#include "util/sim_clock.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define XPG_POOL_POISON 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XPG_POOL_POISON 1
#endif
#endif

#if defined(XPG_POOL_POISON)
#include <sanitizer/asan_interface.h>
#endif

namespace xpg {

namespace {

inline unsigned
classOf(uint64_t size, unsigned min_shift)
{
    // Not std::has_single_bit: without -mpopcnt that is a libgcc call,
    // and this runs on every alloc and free.
    XPG_ASSERT((size & (size - 1)) == 0 && size >> min_shift != 0,
               "size must be a power of two of at least the minimum class");
    return std::countr_zero(size) - min_shift;
}

/** A free block's own bookkeeping: its position in its class's list. */
using ListPos = uint64_t;

/** Make [p, p + n) unaddressable (ASAN builds only). */
inline void
poison(const std::byte *p, uint64_t n)
{
#if defined(XPG_POOL_POISON)
    ASAN_POISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/** Make [p, p + n) addressable again (ASAN builds only). */
inline void
unpoison(const std::byte *p, uint64_t n)
{
#if defined(XPG_POOL_POISON)
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
}

} // namespace

/**
 * One bulk-size-aligned host allocation, owned by one arena. freeBits
 * holds one bitmap per size class (SizeClass::bitOf): a bit is set while
 * the block at that offset sits on its arena's free list of that class,
 * other than as the list's tail. Guarded by the owner's lock.
 */
struct VertexBufferPool::Bulk
{
    Bulk(std::byte *mem, uint64_t bytes, Arena *arena, uint64_t bit_words)
        : base(mem), size(bytes), owner(arena),
          freeBits(new uint64_t[bit_words]())
    {
    }

    ~Bulk()
    {
        unpoison(base, size);
        std::free(base);
    }

    std::byte *const base;
    const uint64_t size;
    Arena *const owner;
    Bulk *next = nullptr; ///< directory chain; immutable once published
    const std::unique_ptr<uint64_t[]> freeBits;
};

/**
 * Per-thread buddy arena. All state is protected by the arena lock; the
 * owning thread takes it uncontended, remote frees contend briefly.
 */
struct VertexBufferPool::Arena
{
    /** A free-list entry: the block and the bulk it lies in. */
    struct FreeBlock
    {
        std::byte *ptr;
        Bulk *bulk;
    };

    /**
     * One size class: its LIFO free list, indexed for buddy lookups.
     * Every listed block but the tail is indexed: its freeBits bit is
     * set and its first bytes hold its list position. The tail is
     * found by comparison, so a LIFO push/pop pair (the split and merge
     * of an otherwise empty class) touches neither bitmap nor block.
     */
    struct SizeClass
    {
        std::vector<FreeBlock> list;
        uint64_t firstBit = 0; ///< its bitmap's first freeBits bit
        unsigned shift = 0;    ///< log2 of the block size

        uint64_t
        bitOf(const FreeBlock &b) const
        {
            return firstBit +
                   (static_cast<uint64_t>(b.ptr - b.bulk->base) >> shift);
        }

        /** Index the entry at @p pos (no longer the tail). */
        void
        index(uint64_t pos)
        {
            const FreeBlock &b = list[pos];
            const uint64_t bit = bitOf(b);
            b.bulk->freeBits[bit / 64] |= uint64_t{1} << (bit % 64);
            std::memcpy(b.ptr, &pos, sizeof(ListPos));
        }

        /** Unindex the entry now at the tail. */
        void
        unindexTail()
        {
            const uint64_t bit = bitOf(list.back());
            list.back().bulk->freeBits[bit / 64] &=
                ~(uint64_t{1} << (bit % 64));
        }

        void
        push(Bulk &bulk, std::byte *ptr)
        {
            if (!list.empty())
                index(list.size() - 1);
            append(bulk, ptr);
        }

        void
        append(Bulk &bulk, std::byte *ptr)
        {
            list.push_back({ptr, &bulk});
            unpoison(ptr, sizeof(ListPos));
            poison(ptr + sizeof(ListPos),
                   (uint64_t{1} << shift) - sizeof(ListPos));
        }

        /** Pop the newest free block (the list is non-empty). */
        FreeBlock
        pop()
        {
            const FreeBlock block = list.back();
            list.pop_back();
            if (!list.empty())
                unindexTail();
            return block;
        }

        /** Remove @p ptr if it is free at this size (a buddy being
         *  merged); the list's last entry takes its place. */
        bool
        remove(Bulk &bulk, std::byte *ptr)
        {
            if (list.empty())
                return false;
            if (list.back().ptr == ptr) {
                pop();
                return true;
            }
            const uint64_t bit = bitOf({ptr, &bulk});
            uint64_t &word = bulk.freeBits[bit / 64];
            const uint64_t mask = uint64_t{1} << (bit % 64);
            if ((word & mask) == 0)
                return false;
            word &= ~mask;
            ListPos pos;
            std::memcpy(&pos, ptr, sizeof(ListPos));
            list[pos] = list.back();
            list.pop_back();
            if (pos + 1 < list.size()) {
                unindexTail();
                index(pos);
            }
            return true;
        }
    };

    Arena(const std::vector<uint64_t> &first_bits, unsigned min_shift)
        : classes(first_bits.size())
    {
        for (size_t cls = 0; cls < classes.size(); ++cls) {
            classes[cls].firstBit = first_bits[cls];
            classes[cls].shift = min_shift + static_cast<unsigned>(cls);
        }
    }

    std::vector<SizeClass> classes;
    std::vector<std::unique_ptr<Bulk>> bulks;
    SpinLock lock;
};

VertexBufferPool::VertexBufferPool(const PoolConfig &config,
                                   const CostParams *params)
    : config_(config),
      params_(params ? params : &globalCostParams())
{
    XPG_ASSERT(std::has_single_bit(config_.bulkSize), "bulkSize not pow2");
    XPG_ASSERT(std::has_single_bit(
                   static_cast<uint64_t>(config_.minBlock)),
               "minBlock not pow2");
    XPG_ASSERT(config_.minBlock >= sizeof(ListPos),
               "minBlock cannot hold a free block's list position");
    minShift_ = std::countr_zero(config_.minBlock);
    numClasses_ = classOf(config_.bulkSize, minShift_) + 1;
    bulkShift_ = std::countr_zero(config_.bulkSize);
    // The class bitmaps lie back to back in Bulk::freeBits, each padded
    // to whole words.
    for (unsigned cls = 0; cls < numClasses_; ++cls) {
        classFirstBit_.push_back(bulkBitWords_ * 64);
        bulkBitWords_ += ((config_.bulkSize >> (minShift_ + cls)) + 63) / 64;
    }
    static std::atomic<uint64_t> next_pool_id{1};
    poolId_ = next_pool_id.fetch_add(1, std::memory_order_relaxed);
}

VertexBufferPool::~VertexBufferPool() = default;

VertexBufferPool::Arena &
VertexBufferPool::myArena()
{
    // Thread-local cache of (pool id -> arena). Keyed by the pool's
    // process-unique id, not its address: a new pool may reuse a
    // destroyed pool's address, and the stale arena pointer must never
    // match. A thread touches few live pools, so linear scan suffices.
    struct CacheEntry
    {
        uint64_t poolId;
        Arena *arena;
    };
    thread_local CacheEntry last{0, nullptr}; // pool ids start at 1
    if (last.poolId == poolId_)
        return *last.arena;
    thread_local std::vector<CacheEntry> cache;
    for (const auto &entry : cache) {
        if (entry.poolId == poolId_) {
            last = entry;
            return *entry.arena;
        }
    }

    auto arena = std::make_unique<Arena>(classFirstBit_, minShift_);
    Arena *raw = arena.get();
    {
        std::lock_guard<SpinLock> guard(arenasLock_);
        arenas_.push_back(std::move(arena));
    }
    // Bound the cache: entries of destroyed pools accumulate in long-
    // running threads; dropping live entries is safe (a fresh arena is
    // registered on the next allocation).
    if (cache.size() >= 64)
        cache.clear();
    cache.push_back({poolId_, raw});
    last = cache.back();
    return *raw;
}

namespace {

/** Directory bucket of the bulk whose aligned address is @p key << shift. */
unsigned
bucketOf(uintptr_t key, unsigned bits)
{
    return static_cast<unsigned>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

} // namespace

VertexBufferPool::Bulk &
VertexBufferPool::bulkOf(const std::byte *ptr) const
{
    const uintptr_t key = reinterpret_cast<uintptr_t>(ptr) >> bulkShift_;
    for (Bulk *b = directory_[bucketOf(key, kDirectoryBits)].load(
             std::memory_order_acquire);
         b != nullptr; b = b->next)
        if (reinterpret_cast<uintptr_t>(b->base) >> bulkShift_ == key)
            return *b;
    XPG_PANIC("pointer does not belong to this pool");
}

void
VertexBufferPool::acquireBulk(Arena &arena)
{
    void *mem = std::aligned_alloc(config_.bulkSize, config_.bulkSize);
    if (mem == nullptr)
        XPG_FATAL("vertex buffer pool: host allocation failed");
    auto owned = std::make_unique<Bulk>(static_cast<std::byte *>(mem),
                                        config_.bulkSize, &arena,
                                        bulkBitWords_);
    Bulk &bulk = *owned;
    arena.bulks.push_back(std::move(owned));
    arena.classes.back().push(bulk, bulk.base);

    auto &bucket = directory_[bucketOf(
        reinterpret_cast<uintptr_t>(bulk.base) >> bulkShift_,
        kDirectoryBits)];
    Bulk *head = bucket.load(std::memory_order_relaxed);
    do {
        bulk.next = head;
    } while (!bucket.compare_exchange_weak(head, &bulk,
                                           std::memory_order_release,
                                           std::memory_order_relaxed));
    bulkCount_.fetch_add(1, std::memory_order_relaxed);
    bytesReserved_.fetch_add(config_.bulkSize, std::memory_order_relaxed);
    // Acquiring a bulk is the one place the pool touches the OS.
    SimClock::charge(params_->sysAllocNs * 64);
}

std::byte *
VertexBufferPool::alloc(uint32_t size)
{
    const unsigned cls = classOf(size, minShift_);
    Arena &arena = myArena();
    SimClock::charge(params_->poolAllocNs);

    std::lock_guard<SpinLock> guard(arena.lock);
    // Find the smallest class with a free block, splitting downwards.
    Arena::SizeClass *classes = arena.classes.data();
    unsigned have = cls;
    while (have < numClasses_ && classes[have].list.empty())
        ++have;
    if (have == numClasses_) {
        acquireBulk(arena);
        have = numClasses_ - 1;
    }
    const Arena::FreeBlock block = classes[have].pop();
    // The classes below the split one were empty: the halves become
    // their only entries, so no tail needs indexing.
    while (have > cls) {
        --have;
        classes[have].append(*block.bulk,
                             block.ptr + (uint64_t{1} << classes[have].shift));
    }
    unpoison(block.ptr, size);

    bytesLive_.fetch_add(size, std::memory_order_relaxed);
    return block.ptr;
}

void
VertexBufferPool::free(std::byte *ptr, uint32_t size)
{
    unsigned cls = classOf(size, minShift_);
    Bulk &bulk = bulkOf(ptr);
    Arena &arena = *bulk.owner;
    SimClock::charge(params_->poolAllocNs);

    std::lock_guard<SpinLock> guard(arena.lock);
    // Buddy merge: the buddy of a block at offset o with size s is o ^ s
    // (bulks are bulk-size aligned, so absolute addresses work too).
    Arena::SizeClass *classes = arena.classes.data();
    while (cls + 1 < numClasses_) {
        const auto addr = reinterpret_cast<uintptr_t>(ptr);
        auto *buddy = reinterpret_cast<std::byte *>(
            addr ^ (uintptr_t{1} << classes[cls].shift));
        if (!classes[cls].remove(bulk, buddy))
            break;
        ptr = std::min(ptr, buddy);
        ++cls;
    }
    classes[cls].push(bulk, ptr);
    bytesLive_.fetch_sub(size, std::memory_order_relaxed);
}

uint64_t
VertexBufferPool::bytesLive() const
{
    return bytesLive_.load(std::memory_order_relaxed);
}

uint64_t
VertexBufferPool::bytesReserved() const
{
    return bytesReserved_.load(std::memory_order_relaxed);
}

bool
VertexBufferPool::nearlyFull() const
{
    if (config_.poolLimit == ~0ull)
        return false;
    const uint64_t reserved =
        bytesReserved_.load(std::memory_order_relaxed);
    const uint64_t live = bytesLive_.load(std::memory_order_relaxed);
    // Live bytes approaching the limit, or the next bulk would bust it
    // while most of the current reservation is already in use.
    if (live + config_.bulkSize > config_.poolLimit)
        return true;
    return reserved + config_.bulkSize > config_.poolLimit &&
           live * 10 >= reserved * 9;
}

size_t
VertexBufferPool::bulkCount() const
{
    return bulkCount_.load(std::memory_order_relaxed);
}

} // namespace xpg
