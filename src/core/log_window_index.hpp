/**
 * @file
 * Per-vertex chained index over the non-buffered window of the circular
 * edge log, replacing the O(window) full-log scan that getNebrsLog*
 * used to pay per queried vertex.
 *
 * Layout: a DRAM ring of Entry records, one slot per log position
 * (slot = pos % capacity), plus per-vertex newest-position heads for
 * each direction. Each entry chains, per direction, to the previous log
 * position of the same side vertex (sideVertex: the source, or the
 * destination), so a vertex's window records are reachable in
 * O(degree-in-window).
 *
 * The index is maintained incrementally and lazily: ensureCurrent()
 * extends it from the last indexed position to head() (reading only the
 * new log suffix, device-charged), and advancing bufferedUpTo() costs
 * nothing — traversals simply stop at the window's lower bound. Stale
 * heads/links below the lower bound are never dereferenced: a position
 * is validated against the window before its (possibly reused) ring
 * slot is read, and the slot's stored position is checked to match.
 *
 * Positions are stored as pos + 1, so a zero word means "none": the ring
 * and the heads are allocated zero-filled and untouched, and their pages
 * fault in only as the windows reach them (a fresh store's first view
 * touches a few MiB of a ring sized for the whole log).
 *
 * Concurrency: readers and the builder may overlap. Heads and slot
 * positions are the published words: plain memory accessed only through
 * std::atomic_ref, stored with release after the slot's payload is
 * written, so a reader that acquires a head (or validates a slot's
 * position) sees a fully written entry. Slot reuse is safe
 * because the log's reservation bound caps reservedHead at
 * reclaim-floor + capacity: a position that any reader may still treat
 * as in-window (>= its visit's lower bound >= the log's reclaim floor)
 * is never lapped, so its ring slot is never rewritten while readable.
 */

#ifndef XPG_CORE_LOG_WINDOW_INDEX_HPP
#define XPG_CORE_LOG_WINDOW_INDEX_HPP

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "graph/circular_edge_log.hpp"
#include "graph/types.hpp"
#include "pmem/dram_device.hpp"

namespace xpg {

/** Chained per-vertex index over the log's [bufferedUpTo, head) window. */
class LogWindowIndex
{
  public:
    /** Sentinel for "no bound": visit the window all the way up. */
    static constexpr uint64_t kNoBound = ~0ull;

    /**
     * @param log Log to index (outlives this object).
     * @param num_vertices Vertex-id space of the graph.
     */
    LogWindowIndex(const CircularEdgeLog &log, vid_t num_vertices);

    /**
     * Extend the index to cover every edge in [bufferedUpTo, head).
     * Thread-safe; the fast path is one atomic load when up to date.
     */
    void ensureCurrent();

    /**
     * Visit the @p out (else in) records (sideRecord) of @p v whose log
     * position lies in [low, high), newest first (callers wanting log
     * order reverse the collected result). Positions at or above
     * @p high (published after a view opened) are skipped by following
     * the chain through them; traversal stops below @p low. The index
     * must cover [low, high): live readers run ensureCurrent() and pass
     * the log's bufferedUpTo() with kNoBound; a view passes the bounds
     * indexed at open (openView does this under the archive lock) and
     * pins the log's reclaim floor at or below @p low for the lifetime
     * of the traversal.
     * @return records visited.
     */
    template <typename F>
    uint32_t
    visit(vid_t v, bool out, uint64_t low, uint64_t high, F &&fn) const
    {
        if (!built_.load(std::memory_order_acquire))
            return 0; // index never built: window was empty
        const unsigned d = out ? 0 : 1;
        chargeDramScattered(1); // head lookup
        uint32_t n = 0;
        // stored = pos + 1 >= low + 1 covers "none" (0) as well
        uint64_t stored = std::atomic_ref<uint64_t>(heads_[d][v]).load(
            std::memory_order_acquire);
        while (stored > low) {
            const uint64_t pos = stored - 1;
            Entry &e = ring_[pos % capacity_];
            if (std::atomic_ref<uint64_t>(e.pos).load(
                    std::memory_order_acquire) != stored)
                break; // slot reused by a lapped position: chain stale
            chargeDramScattered(1); // random ring-slot access
            if (pos < high) {
                fn(sideRecord(e.edge, out));
                ++n;
            }
            stored = e.prev[d];
        }
        return n;
    }

  private:
    /** Trivial, so a zero-filled ring is a ring of empty slots. */
    struct Entry
    {
        Edge edge;   ///< the logged edge (dst carries delete flag)
        uint64_t pos; ///< log position + 1 in this slot (published word)
        /// per direction (0 = out, 1 = in): previous window position + 1
        /// of the edge's side vertex
        uint64_t prev[2];
    };

    /** Frees what zeroedArray() allocated. */
    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };
    template <typename T> using ZeroedArray = std::unique_ptr<T[], FreeDeleter>;

    /** @p n zero-filled Ts, with no page touched until used. */
    template <typename T>
    static ZeroedArray<T>
    zeroedArray(uint64_t n)
    {
        auto *p = static_cast<T *>(std::calloc(n, sizeof(T)));
        if (!p && n != 0)
            throw std::bad_alloc();
        return ZeroedArray<T>(p);
    }

    const CircularEdgeLog *log_;
    vid_t numVertices_;
    uint64_t capacity_;

    /** Set (release) once ring_/heads are allocated; readers acquire. */
    std::atomic<bool> built_{false};
    ZeroedArray<Entry> ring_; ///< slot = pos % capacity_
    /// per direction: newest window position + 1 per side vertex
    /// (published words)
    ZeroedArray<uint64_t> heads_[2];
    std::atomic<uint64_t> indexedUpTo_{0};
    std::mutex buildMutex_;
    std::vector<Edge> buildScratch_;
};

} // namespace xpg

#endif // XPG_CORE_LOG_WINDOW_INDEX_HPP
