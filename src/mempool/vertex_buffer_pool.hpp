/**
 * @file
 * Buddy-like DRAM memory pool for vertex buffers (paper S III-C).
 *
 * The pool pre-acquires large bulks (16 MiB by default), hands one to each
 * thread, and runs a classic buddy allocator inside each bulk: power-of-two
 * size classes from the minimum vertex-buffer size up to the bulk size,
 * per-class free lists, split-on-alloc and buddy-merge-on-free. This
 * mirrors the paper's design goals: no user/kernel switches, no global
 * lock contention (arena state is per-thread; cross-thread frees take a
 * short per-arena spinlock), and freed-buffer recycling.
 *
 * Every list operation is O(1) and allocates nothing per block:
 *  - the per-class free lists are LIFO vectors, and a listed block
 *    (but its list's tail) stores its own list position in its first 8
 *    bytes, so a merge removes its buddy by moving the list's last entry
 *    into its place;
 *  - each bulk keeps one bitmap per size class answering "is the block
 *    at this address free at this size" (the tail by comparison);
 *  - bulks are bulk-size aligned, so free() finds a block's bulk (and its
 *    owning arena) from the aligned address through a lock-free directory.
 * Under AddressSanitizer a listed block is poisoned except for those 8
 * bytes, so a reader of a returned buffer trips ASAN.
 *
 * A pool-size limit supports the scalability experiment (Fig.19): when the
 * pool is nearly full the engine flushes all vertex buffers and the space
 * is recycled.
 */

#ifndef XPG_MEMPOOL_VERTEX_BUFFER_POOL_HPP
#define XPG_MEMPOOL_VERTEX_BUFFER_POOL_HPP

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pmem/cost_model.hpp"
#include "util/spinlock.hpp"

namespace xpg {

/** Pool configuration. All sizes in bytes; powers of two. */
struct PoolConfig
{
    uint64_t bulkSize = 16ull << 20;  ///< per-acquisition bulk (16 MiB)
    uint64_t poolLimit = ~0ull;       ///< max bytes the pool may reserve
    uint32_t minBlock = 16;           ///< smallest size class (>= 8)
};

/**
 * Thread-aware buddy pool.
 *
 * alloc()/free() charge the modeled pool-allocator cost so the volatile-
 * variant comparison (system allocator vs pool, Fig.12/16/17) is captured
 * in simulated time.
 */
class VertexBufferPool
{
  public:
    explicit VertexBufferPool(const PoolConfig &config = PoolConfig{},
                              const CostParams *params = nullptr);
    ~VertexBufferPool();

    VertexBufferPool(const VertexBufferPool &) = delete;
    VertexBufferPool &operator=(const VertexBufferPool &) = delete;

    /**
     * Allocate @p size bytes (a power of two >= minBlock, <= bulkSize).
     * Never returns nullptr; exhausting poolLimit is the engine's job to
     * avoid via nearlyFull() + flush-all.
     */
    std::byte *alloc(uint32_t size);

    /** Return @p ptr of size class @p size to the pool. */
    void free(std::byte *ptr, uint32_t size);

    /** Bytes currently handed out to live buffers. */
    uint64_t bytesLive() const;

    /** Bytes acquired from the OS (bulks). */
    uint64_t bytesReserved() const;

    /**
     * True when the next bulk acquisition would exceed the pool limit —
     * the engine should flush all vertex buffers (Fig.19 mechanism).
     */
    bool nearlyFull() const;

    /** Number of bulks acquired (for tests). */
    size_t bulkCount() const;

  private:
    struct Arena;
    struct Bulk;

    /** Per-thread arena lookup/creation for this pool. */
    Arena &myArena();

    /** Bulk holding @p ptr (lock-free directory lookup). */
    Bulk &bulkOf(const std::byte *ptr) const;

    /** Acquire a fresh bulk for @p arena and publish it. */
    void acquireBulk(Arena &arena);

    PoolConfig config_;
    const CostParams *params_;
    unsigned numClasses_;
    unsigned minShift_;  ///< log2(minBlock)
    unsigned bulkShift_; ///< log2(bulkSize)
    /// per class: the first bit of its free bitmap in a bulk's bitmaps
    std::vector<uint64_t> classFirstBit_;
    uint64_t bulkBitWords_ = 0; ///< words of one bulk's bitmaps
    /** Process-unique id: keys the per-thread arena cache safely even
     *  when a new pool reuses a destroyed pool's address. */
    uint64_t poolId_;

    mutable SpinLock arenasLock_;
    std::vector<std::unique_ptr<Arena>> arenas_;

    /**
     * Bulk directory: hash buckets keyed by the bulk-aligned address,
     * each the head of a chain of bulks. A bulk is pushed once (CAS) and
     * never unlinked before the pool dies, so lookups take no lock.
     */
    static constexpr unsigned kDirectoryBits = 10;
    std::array<std::atomic<Bulk *>, 1u << kDirectoryBits> directory_{};
    std::atomic<size_t> bulkCount_{0};

    std::atomic<uint64_t> bytesLive_{0};
    std::atomic<uint64_t> bytesReserved_{0};
};

} // namespace xpg

#endif // XPG_MEMPOOL_VERTEX_BUFFER_POOL_HPP
