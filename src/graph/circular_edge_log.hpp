/**
 * @file
 * The consistency-guaranteed circular edge log (paper S III-B, Fig.7),
 * now safe for concurrent appenders (the multi-session ingestion API).
 *
 * Incoming edges are appended at @e head. Three monotonic positions
 * partition the log (all counted in edges since the beginning of time;
 * the physical slot is the position modulo capacity):
 *
 *   flushedUpTo <= bufferedUpTo <= head
 *
 *  - [bufferedUpTo, head): logged, not yet moved to DRAM vertex buffers
 *    (the region between the paper's "marker" and "head").
 *  - [flushedUpTo, bufferedUpTo): buffered in volatile DRAM vertex
 *    buffers; must NOT be overwritten (would be lost on power failure) —
 *    unless the system is battery-backed (XPGraph-B).
 *  - [.., flushedUpTo): flushed to PMEM adjacency lists; reclaimable.
 *
 * Concurrency model (S III-D / Fig.20): append() first *reserves* a
 * contiguous run of slots with one atomic CAS on the reservation tail,
 * writes the edges into the reserved slots (disjoint device ranges, no
 * lock), then *publishes* in reservation order — the published head is
 * the longest contiguous prefix of fully written slots. The three steps
 * are private: append() is the only way in, so no reservation is ever
 * left unpublished. Readers (the archiver, queries, recovery) only ever
 * see the published prefix, so a read below head() is race-free by
 * construction. The tiny header lock is taken only to serialize header
 * persistence (publish/seal), never on the slot-write fast path.
 *
 * The header (head + both positions) lives in the same PMEM region, so
 * recovery can locate the replay window [flushedUpTo, bufferedUpTo).
 * A log built with durable = false (GraphOne on a volatile device or
 * without a backing file) never writes that header and never persists
 * its slots: it is the same ring, minus the durability traffic.
 */

#ifndef XPG_GRAPH_CIRCULAR_EDGE_LOG_HPP
#define XPG_GRAPH_CIRCULAR_EDGE_LOG_HPP

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "pmem/memory_device.hpp"
#include "util/spinlock.hpp"

namespace xpg {

/** PMEM-resident circular edge log with persistent pointers. */
class CircularEdgeLog
{
  public:
    /** Bytes a log of @p capacity_edges needs (header + slots). */
    static uint64_t regionBytes(uint64_t capacity_edges);

    /**
     * Create a fresh log in [region_off, region_off+regionBytes()).
     * @param battery_backed Reclaim slots at markBuffered() instead of
     *        markFlushed().
     * @param durable Persist slots and the header; false skips both in
     *        every method (nothing to recover from).
     */
    CircularEdgeLog(MemoryDevice &dev, uint64_t region_off,
                    uint64_t capacity_edges, bool battery_backed,
                    bool durable);

    /**
     * Re-attach to an existing (durable) log after a crash, validating
     * both header copies
     * (magic, checksum, pointer ordering) and adopting the valid copy
     * with the highest generation.
     * @param[out] error Diagnostic when both copies are invalid.
     * @param[out] copies_rejected Incremented per invalid (torn/garbage)
     *             header copy that had to be rejected in favor of the
     *             other one. Optional.
     * @return the log, or nullopt with @p error set.
     */
    static std::optional<CircularEdgeLog>
    tryRecover(MemoryDevice &dev, uint64_t region_off, bool battery_backed,
               std::string *error, uint64_t *copies_rejected = nullptr);

    CircularEdgeLog(CircularEdgeLog &&other) noexcept;

    uint64_t capacity() const { return capacityEdges_; }

    /** Published head: every position below it is fully written. */
    uint64_t
    head() const
    {
        return publishedHead_.load(std::memory_order_acquire);
    }

    uint64_t
    bufferedUpTo() const
    {
        return bufferedUpTo_.load(std::memory_order_acquire);
    }

    uint64_t
    flushedUpTo() const
    {
        return flushedUpTo_.load(std::memory_order_acquire);
    }

    /** Edges logged (published) but not yet buffered. */
    uint64_t nonBuffered() const { return head() - bufferedUpTo(); }

    /** Edges buffered but not yet flushed (volatile if not battery). */
    uint64_t unflushed() const { return bufferedUpTo() - flushedUpTo(); }

    /**
     * Free slots: appends beyond this would overwrite edges that are not
     * yet safe (flushed, or buffered when battery-backed) or that an
     * open read view still pins (the external reclaim floor). Counts
     * reserved-but-unpublished slots as taken, so the value is safe to
     * act on under concurrent reservation.
     */
    uint64_t
    freeSlots() const
    {
        return capacityEdges_ -
               (reservedHead_.load(std::memory_order_relaxed) -
                reclaimBound());
    }

    /**
     * Pin log reclamation: positions at or above @p floor must stay
     * readable (their ring slots are never reused) until the floor is
     * lifted with clearReclaimFloor(). Used by open read views, whose
     * frozen window [boundary, head) is served straight from the ring.
     * The caller (XPGraph's view registry) guarantees the effective
     * floor never decreases while the log is in use, so stale reads in
     * append() stay conservative.
     */
    void
    setReclaimFloor(uint64_t floor)
    {
        externalFloor_.store(floor, std::memory_order_release);
    }

    /** Lift the external reclaim floor (no views pin this log). */
    void
    clearReclaimFloor()
    {
        externalFloor_.store(kNoFloor, std::memory_order_release);
    }

    /**
     * Append up to @p n edges (bounded by freeSlots()): reserve + write
     * + publish in one call. Thread-safe. A full log reserves nothing
     * and charges no simulated time.
     * @return edges actually appended (0 when the log is full).
     */
    uint64_t append(const Edge *edges, uint64_t n);

    /** Read edges [from, to) (positions <= head()) into @p out. */
    void readRange(uint64_t from, uint64_t to,
                   std::vector<Edge> &out) const;

    /**
     * Read edges [from, to) into caller-provided storage (at least
     * to - from slots). Safe to call concurrently for disjoint ranges:
     * archive workers split a drain window into per-thread chunks.
     */
    void readRangeInto(uint64_t from, uint64_t to, Edge *out) const;

    /** Advance bufferedUpTo (persists the header). */
    void markBuffered(uint64_t up_to);

    /** Advance flushedUpTo (persists the header). */
    void markFlushed(uint64_t up_to);

    /**
     * Recovery-only repair: rewind the published head to @p new_head
     * (>= bufferedUpTo, <= head) and persist the header. Used when
     * recovery detects garbage in the published window and truncates to
     * the last consistent prefix. Not thread-safe — the store is
     * quiescent during recovery.
     */
    void truncateHead(uint64_t new_head);

    /**
     * Recovery-only repair: rewind bufferedUpTo to @p up_to (>=
     * flushedUpTo, <= bufferedUpTo, at most one capacity below head)
     * and persist the header, so the window [up_to, head) counts as
     * non-buffered again. Used when the buffered state was lost with
     * DRAM and must be rebuilt from the ring. Not thread-safe.
     */
    void rewindBuffered(uint64_t up_to);

  private:
    /**
     * On-device header, kept in two alternating copies (A at the region
     * base, B one XPLine above) so a torn header write can never destroy
     * the only valid copy: generation g goes to copy g & 1, and recovery
     * adopts the checksum-valid copy with the highest generation.
     */
    struct Header
    {
        uint64_t magic;
        uint64_t capacityEdges;
        uint64_t head;
        uint64_t bufferedUpTo;
        uint64_t flushedUpTo;
        uint64_t generation;
        uint64_t checksum; ///< FNV-1a over all preceding fields

        uint64_t computeChecksum() const;
        bool valid() const;
    };
    static constexpr uint64_t kMagic = 0x58504c4f47453132ull; // "XPLOGE12"

    struct RecoverTag {};
    CircularEdgeLog(RecoverTag, MemoryDevice &dev, uint64_t region_off,
                    bool battery_backed, const Header &header);

    /**
     * Reserve up to @p n contiguous slots (bounded by freeSlots()).
     * Thread-safe; the reservation must be completed with
     * writeReserved() + publish() or later readers deadlock on the
     * publish order.
     * @param[out] pos The first reserved position.
     * @return slots reserved (0 when the log is full).
     */
    uint64_t tryReserve(uint64_t n, uint64_t &pos);

    /** Write @p n edges into the reserved run starting at @p pos. */
    void writeReserved(uint64_t pos, const Edge *edges, uint64_t n);

    /**
     * Publish the reserved run [pos, pos+n): waits (spins) until every
     * earlier reservation is published, advances the published head, and
     * persists the header. After publish the run is visible to readers.
     */
    void publish(uint64_t pos, uint64_t n);

    uint64_t slotOff(uint64_t pos) const;
    /** Persist the header (under headerLock_) when the log is durable. */
    void persistHeader();
    /** Persist the published slot range [pos, pos+n) to the media. */
    void persistSlots(uint64_t pos, uint64_t n);

    MemoryDevice *dev_;
    uint64_t regionOff_;
    uint64_t capacityEdges_;
    bool batteryBacked_;
    bool durable_;

    // DRAM mirrors of the persistent header fields (atomic: appended and
    // advanced concurrently by sessions and the archiver).
    static constexpr uint64_t kNoFloor = ~0ull;

    /** Lowest position appends may overwrite, folding the external
     *  reclaim floor into the durability bound. */
    uint64_t
    reclaimBound() const
    {
        uint64_t bound = batteryBacked_ ? bufferedUpTo() : flushedUpTo();
        const uint64_t floor =
            externalFloor_.load(std::memory_order_acquire);
        if (floor < bound)
            bound = floor;
        return bound;
    }

    std::atomic<uint64_t> reservedHead_{0};  ///< reservation tail
    std::atomic<uint64_t> publishedHead_{0}; ///< contiguous written prefix
    std::atomic<uint64_t> bufferedUpTo_{0};
    std::atomic<uint64_t> flushedUpTo_{0};
    /** View-pinned reclaim floor; kNoFloor when no view is open. */
    std::atomic<uint64_t> externalFloor_{kNoFloor};

    /** Serializes header persistence only (never the slot fast path).
     *  Guards generation_. */
    mutable SpinLock headerLock_;
    uint64_t generation_ = 0; ///< of the last persisted header copy
};

} // namespace xpg

#endif // XPG_GRAPH_CIRCULAR_EDGE_LOG_HPP
