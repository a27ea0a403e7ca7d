/**
 * @file
 * Per-vertex chained index over the non-buffered window of the circular
 * edge log, replacing the O(window) full-log scan that getNebrsLog*
 * used to pay per queried vertex.
 *
 * Layout: a DRAM ring of Entry records, one slot per log position
 * (slot = pos % capacity), plus per-vertex newest-position heads for the
 * out and in directions. Each entry chains to the previous log position
 * of the same source (prevOut) and destination (prevIn), so a vertex's
 * window records are reachable in O(degree-in-window).
 *
 * The index is maintained incrementally and lazily: ensureCurrent()
 * extends it from the last indexed position to head() (reading only the
 * new log suffix, device-charged), and advancing bufferedUpTo() costs
 * nothing — traversals simply stop at the window's lower bound. Stale
 * heads/links below the lower bound are never dereferenced: a position
 * is validated against the window before its (possibly reused) ring
 * slot is read, and the slot's stored position is checked to match.
 *
 * Concurrency: readers and the builder may overlap. Heads and slot
 * positions are atomics published with release stores after the slot's
 * payload is written, so a reader that acquires a head (or validates a
 * slot's position) sees a fully written entry. Slot reuse is safe
 * because the log's reservation bound caps reservedHead at
 * reclaim-floor + capacity: a position that any reader may still treat
 * as in-window (>= its visit's lower bound >= the log's reclaim floor)
 * is never lapped, so its ring slot is never rewritten while readable.
 */

#ifndef XPG_CORE_LOG_WINDOW_INDEX_HPP
#define XPG_CORE_LOG_WINDOW_INDEX_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/circular_edge_log.hpp"
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
     * Visit the @p out (else in) records of @p v whose log position lies
     * in [low, high), newest first (callers wanting log order reverse
     * the collected result). An in-record is the stored source,
     * delete-flagged when the edge was a deletion. Positions at or above
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
        const std::atomic<uint64_t> *heads =
            out ? outHead_.get() : inHead_.get();
        chargeDramScattered(1); // head lookup
        uint32_t n = 0;
        uint64_t pos = heads[v].load(std::memory_order_acquire);
        while (pos != kNone && pos >= low) {
            const Entry &e = ring_[pos % capacity_];
            if (e.pos.load(std::memory_order_acquire) != pos)
                break; // slot reused by a lapped position: chain stale
            chargeDramScattered(1); // random ring-slot access
            if (pos < high) {
                if (out) {
                    fn(e.edge.dst);
                } else {
                    fn(isDelete(e.edge.dst) ? asDelete(e.edge.src)
                                            : e.edge.src);
                }
                ++n;
            }
            pos = out ? e.prevOut : e.prevIn;
        }
        return n;
    }

  private:
    static constexpr uint64_t kNone = ~0ull;

    struct Entry
    {
        Edge edge{};      ///< the logged edge (dst carries delete flag)
        std::atomic<uint64_t> pos{kNone}; ///< log position in this slot
        uint64_t prevOut = kNone; ///< previous window position of src
        uint64_t prevIn = kNone;  ///< previous window pos of rawVid(dst)
    };

    const CircularEdgeLog *log_;
    vid_t numVertices_;
    uint64_t capacity_;

    /** Set (release) once ring_/heads are allocated; readers acquire. */
    std::atomic<bool> built_{false};
    std::unique_ptr<Entry[]> ring_; ///< slot = pos % capacity_
    std::unique_ptr<std::atomic<uint64_t>[]> outHead_; ///< newest/src
    std::unique_ptr<std::atomic<uint64_t>[]> inHead_;  ///< newest/dst
    std::atomic<uint64_t> indexedUpTo_{0};
    std::mutex buildMutex_;
    std::vector<Edge> buildScratch_;
};

} // namespace xpg

#endif // XPG_CORE_LOG_WINDOW_INDEX_HPP
