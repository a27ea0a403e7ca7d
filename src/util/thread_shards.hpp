/**
 * @file
 * Per-thread shards of a counter block, summed on read.
 *
 * ThreadShards<Shard> gives every thread that writes to one owning object
 * (a histogram, a device's counter table) a private Shard of its own, so
 * concurrent writers never share a cache line or a lock. Readers visit all
 * shards and sum them. A shard is written only by its thread; its fields
 * are relaxed atomics so a concurrent reader is race-free (under TSAN
 * too), and a single writer may update a field with a plain load + store
 * instead of a locked read-modify-write.
 *
 * Each owner has a process-unique id that is never reused; a thread finds
 * its shard through a thread-local table indexed by that id, so a cached
 * pointer can never refer to a different (later) owner. Shards live as
 * long as their owner: the counts of a thread that exits stay in the sum.
 */

#ifndef XPG_UTIL_THREAD_SHARDS_HPP
#define XPG_UTIL_THREAD_SHARDS_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace xpg {

namespace detail {

/** Id source for ThreadShards owners (never reused). */
inline std::atomic<uint32_t> g_nextThreadShardsId{0};

/** The calling thread's shard pointers, indexed by owner id. */
inline thread_local std::vector<void *> t_threadShards;

} // namespace detail

/**
 * Add @p n to a shard cell only the calling thread writes: a plain load
 * + store, never a locked read-modify-write.
 */
inline void
addToOwnCell(std::atomic<uint64_t> &cell, uint64_t n)
{
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

/**
 * Per-thread @p Shard instances of one owner. @p Shard must be
 * default-constructible; declare it alignas(64) so shards of different
 * threads never share a cache line.
 */
template <typename Shard>
class ThreadShards
{
  public:
    ThreadShards()
        : id_(detail::g_nextThreadShardsId.fetch_add(
              1, std::memory_order_relaxed))
    {
    }

    ThreadShards(const ThreadShards &) = delete;
    ThreadShards &operator=(const ThreadShards &) = delete;

    /** The calling thread's shard, allocated on the thread's first call. */
    Shard &
    local()
    {
        std::vector<void *> &cache = detail::t_threadShards;
        if (id_ < cache.size() && cache[id_] != nullptr) [[likely]]
            return *static_cast<Shard *>(cache[id_]);
        return attach(cache);
    }

    /** Call @p fn on every shard allocated so far. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &shard : shards_)
            fn(static_cast<const Shard &>(*shard));
    }

    /** Mutable visit (resets). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &shard : shards_)
            fn(*shard);
    }

  private:
    Shard &
    attach(std::vector<void *> &cache)
    {
        std::lock_guard<std::mutex> lock(mu_);
        shards_.push_back(std::make_unique<Shard>());
        if (id_ >= cache.size())
            cache.resize(id_ + 1, nullptr);
        cache[id_] = shards_.back().get();
        return *shards_.back();
    }

    const uint32_t id_;
    mutable std::mutex mu_; ///< guards shards_ growth and visits
    std::vector<std::unique_ptr<Shard>> shards_;
};

/**
 * @p N counters in per-thread shards: add() is a plain load + store to
 * the calling thread's own cell (no shared cache line, no locked
 * read-modify-write), sum() adds up every thread's cell. A sum taken
 * while writers run may miss their latest adds; once they are joined it
 * is exact.
 */
template <unsigned N>
class ShardedCounters
{
  public:
    void
    add(unsigned i, uint64_t n)
    {
        addToOwnCell(shards_.local().cells[i], n);
    }

    uint64_t
    sum(unsigned i) const
    {
        uint64_t total = 0;
        shards_.forEach([&](const Shard &shard) {
            total += shard.cells[i].load(std::memory_order_relaxed);
        });
        return total;
    }

    /** Zero every cell; only while no thread adds (an add racing the
     *  reset stores its stale sum back). */
    void
    reset()
    {
        shards_.forEach([](Shard &shard) {
            for (std::atomic<uint64_t> &cell : shard.cells)
                cell.store(0, std::memory_order_relaxed);
        });
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> cells[N] = {};
    };

    ThreadShards<Shard> shards_;
};

} // namespace xpg

#endif // XPG_UTIL_THREAD_SHARDS_HPP
