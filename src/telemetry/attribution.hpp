/**
 * @file
 * Media-traffic attribution: who caused each byte the device models move.
 *
 * The paper's diagnostic (Fig. 3b / Fig. 13) is read/write amplification
 * on the XPLine media; its design story is *which access pattern* causes
 * it — per-edge sub-line random stores (GraphOne's logging) vs. the
 * sequential vertex-centric buffering XPGraph substitutes. The device
 * models count exact app/media bytes but only device-wide; this layer
 * buckets every one of those increments by the engine activity that
 * issued the access.
 *
 * Mechanism (DESIGN.md §10):
 *  - AccessScope: a thread-local RAII category stack. Engine call sites
 *    open a scope ("this code path is an edge-log append"); device charge
 *    paths read AccessScope::current() and count each increment in that
 *    category's row of the device table.
 *  - AttributionTable: one per device (devices are per-NUMA-node, so the
 *    table is the per-(category × node × read/write) matrix after the
 *    device's node label is attached). It is the device's only counter
 *    store: counters() is its rows summed, so the per-category rows sum
 *    to counters() exactly, by construction. Cells live in per-thread
 *    shards, so concurrent accessors share no cache line.
 *  - Eviction blame: a dirty XPLine written back by a *later* access is
 *    charged to the category that last stored to that line (the XPBuffer
 *    entry carries the owner tag), not to the evicting category.
 *  - Sub-line RMW blame: a store that does not begin at the line base and
 *    misses the XPBuffer forces a full-line media read; that read's bytes
 *    land in the triggering category's row and its rmwReads count — the
 *    read-amplification detector.
 *  - LineHeatTable: bounded per-XPLine touch counts with the owning
 *    category (top-N hottest lines; overflow is counted, never resized).
 *
 * Nothing here ever charges SimClock.
 */

#ifndef XPG_TELEMETRY_ATTRIBUTION_HPP
#define XPG_TELEMETRY_ATTRIBUTION_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "pmem/pcm_counters.hpp"
#include "util/json_writer.hpp"
#include "util/spinlock.hpp"
#include "util/thread_shards.hpp"

namespace xpg::telemetry {

/**
 * What an access is doing, from the engine's point of view. Other is the
 * fallback for untagged call sites (and the value current() reports on a
 * thread with no open scope), so the category rows always partition the
 * device totals.
 */
enum class AccessCategory : uint8_t
{
    EdgeLogAppend = 0,   ///< circular/GraphOne edge-log slot writes
    AdjacencyArchive,    ///< copying buffered edges into adjacency blocks
    VertexMeta,          ///< per-vertex index/degree entry persistence
    AllocatorMeta,       ///< allocator tail-pointer bookkeeping
    Superblock,          ///< superblock + log-header metadata
    QueryRead,           ///< neighbor reads on behalf of queries
    RecoveryReplay,      ///< post-crash validation, replay, and repair
    AdjacencyCodec,      ///< compressed-chunk encode writes / decode reads
    Compaction,          ///< background COW chain rewrites + journal
    Other,               ///< untagged traffic (fallback)
};

inline constexpr unsigned kAccessCategoryCount = 10;

/** Stable snake_case name ("edge_log_append", ...) for JSON/metric keys. */
const char *accessCategoryName(AccessCategory c);

/** All categories, in enum order (iteration helper). */
const std::array<AccessCategory, kAccessCategoryCount> &allAccessCategories();

/**
 * RAII thread-local category tag. Constructing pushes (saves the previous
 * category, installs the new one); destruction restores — including via
 * exception unwind, which is the whole point of the RAII shape. Nesting
 * overrides: an archive phase that persists a vertex-index entry opens a
 * VertexMeta scope inside its AdjacencyArchive scope and the inner bytes
 * land under VertexMeta.
 *
 * Engine call sites open one through the XPG_ATTR_SCOPE macro.
 */
class AccessScope
{
  public:
    explicit AccessScope(AccessCategory cat) noexcept : prev_(tls_)
    {
        tls_ = cat;
    }
    ~AccessScope() { tls_ = prev_; }

    AccessScope(const AccessScope &) = delete;
    AccessScope &operator=(const AccessScope &) = delete;

    /** The calling thread's innermost open category (Other when none). */
    static AccessCategory current() noexcept { return tls_; }

  private:
    static constinit inline thread_local AccessCategory tls_ =
        AccessCategory::Other;
    AccessCategory prev_;
};

/**
 * The per-(category, field) counter fields. The first eight mirror
 * PcmCounters one-for-one — that is what makes "rows sum to the device
 * counters" a structural identity rather than an approximation. The last
 * two are attribution-only diagnostics.
 */
enum class AttrField : unsigned
{
    AppBytesRead = 0,
    AppBytesWritten,
    MediaBytesRead,
    MediaBytesWritten,
    MediaReadOps,
    MediaWriteOps,
    BufferHits,
    RemoteAccesses,
    RmwReads,      ///< full-line media reads forced by sub-line stores
    SubLineStores, ///< stores not beginning at a line base
    kCount,
};

inline constexpr unsigned kAttrFieldCount =
    static_cast<unsigned>(AttrField::kCount);

/** One category's share of a device's traffic (snapshot form). */
struct AttributionRow
{
    PcmCounters pcm;
    uint64_t rmwReads = 0;
    uint64_t subLineStores = 0;

    bool operator==(const AttributionRow &) const = default;

    AttributionRow &
    operator+=(const AttributionRow &o)
    {
        pcm += o.pcm;
        rmwReads += o.rmwReads;
        subLineStores += o.subLineStores;
        return *this;
    }

    /** Delta of two snapshots of the same (monotonic) row. */
    AttributionRow
    operator-(const AttributionRow &o) const
    {
        AttributionRow d;
        d.pcm = pcm - o.pcm;
        d.rmwReads = rmwReads - o.rmwReads;
        d.subLineStores = subLineStores - o.subLineStores;
        return d;
    }

    bool
    empty() const
    {
        return pcm.appBytesRead == 0 && pcm.appBytesWritten == 0 &&
               pcm.mediaBytesRead == 0 && pcm.mediaBytesWritten == 0 &&
               pcm.bufferHits == 0 && pcm.remoteAccesses == 0 &&
               rmwReads == 0 && subLineStores == 0;
    }

    json::JsonValue toJson() const;
};

/** Per-category snapshot of one device (or a sum of devices). */
struct AttributionSnapshot
{
    std::array<AttributionRow, kAccessCategoryCount> rows;

    bool operator==(const AttributionSnapshot &) const = default;

    AttributionRow &
    operator[](AccessCategory c)
    {
        return rows[static_cast<unsigned>(c)];
    }
    const AttributionRow &
    operator[](AccessCategory c) const
    {
        return rows[static_cast<unsigned>(c)];
    }

    AttributionSnapshot &
    operator+=(const AttributionSnapshot &o)
    {
        for (unsigned i = 0; i < kAccessCategoryCount; ++i)
            rows[i] += o.rows[i];
        return *this;
    }

    /** Per-row delta of two snapshots of the same cumulative table —
     *  what one bracketed operation contributed (see OpScope). */
    AttributionSnapshot
    operator-(const AttributionSnapshot &o) const
    {
        AttributionSnapshot d;
        for (unsigned i = 0; i < kAccessCategoryCount; ++i)
            d.rows[i] = rows[i] - o.rows[i];
        return d;
    }

    /** Sum over categories — equals the device's counters() exactly. */
    PcmCounters total() const;

    /** Object keyed by category name; empty categories are omitted. */
    json::JsonValue toJson() const;
};

/**
 * Per-device attribution matrix, mutated on the device charge paths: one
 * (category, field) cell per counted increment. The cells sit in
 * per-thread shards (ThreadShards) that snapshot() and total() sum, so an
 * add() is a thread-private store. total() is the device's PcmCounters.
 */
class AttributionTable
{
  public:
    void
    add(AccessCategory c, AttrField f, uint64_t n)
    {
        addToOwnCell(shards_.local().cells[static_cast<unsigned>(c)]
                                          [static_cast<unsigned>(f)],
                     n);
    }

    /** Every category's row, summed over shards. */
    AttributionSnapshot snapshot() const;

    /** The PcmCounters fields summed over every category. */
    PcmCounters total() const { return snapshot().total(); }

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> cells[kAccessCategoryCount][kAttrFieldCount] =
            {};
    };

    ThreadShards<Shard> shards_;
};

/**
 * Bounded per-XPLine heat map: touch counts per line with a per-category
 * split, so the hottest lines can name their owning category. Sixteen
 * spinlocked shards, each a fixed open-addressed slot array sized at
 * construction; once a shard tracks its share of the capacity, touches of
 * *new* lines are counted as untracked instead of growing the table,
 * which keeps the hot path allocation-free and the memory bound hard.
 *
 * Most touches of a busy device are to lines that found their shard full,
 * so those skip the shard: a read-mostly bit filter holds every admitted
 * line (a bit is set under the shard lock before the shard's full bit is
 * published), and a touch whose shard is full and whose filter bit is
 * clear counts itself in a per-thread cell, with no lock and no probe.
 * The admitted set and every count are those of the locked probe alone.
 */
class LineHeatTable
{
  public:
    struct HotLine
    {
        uint64_t line = 0;
        uint64_t reads = 0;
        uint64_t writes = 0;
        AccessCategory owner = AccessCategory::Other; ///< most touches
        /// NUMA node of the line's device (GraphStore::hotLines sets
        /// it; a table alone does not know its device).
        int node = 0;
    };

    static constexpr unsigned kDefaultCapacity = 4096;

    explicit LineHeatTable(unsigned capacity = kDefaultCapacity);

    void
    touch(uint64_t line, AccessCategory cat, bool is_write)
    {
        if (untrackable(line))
            untracked_.add(0, 1);
        else
            touchLocked(line, cat, is_write);
    }

    /**
     * Top @p n lines by total (read+write) touches, hottest first; ties
     * break toward the lower line index so the order is deterministic.
     */
    std::vector<HotLine> top(unsigned n) const;

    uint64_t trackedLines() const;
    uint64_t untrackedTouches() const;
    /** Forget every line; only while no thread touches. */
    void reset();

  private:
    /** Line index of an empty slot (real indices stay below 2^56). */
    static constexpr uint64_t kNoLine = ~uint64_t{0};

    /** One tracked line; exactly one cache line. */
    struct Slot
    {
        uint64_t line = kNoLine;
        uint64_t reads = 0;
        uint64_t writes = 0;
        std::array<uint32_t, kAccessCategoryCount> byCat = {};
    };
    static_assert(sizeof(Slot) == 64);

    struct alignas(64) Shard
    {
        mutable SpinLock lock;
        unsigned used = 0; ///< tracked lines
        std::unique_ptr<Slot[]> slots;
    };

    static constexpr unsigned kShards = 16;

    /** True when @p line's shard is full and the filter proves the line
     *  was never admitted: the locked probe would count it untracked. */
    bool
    untrackable(uint64_t line) const
    {
        const unsigned full = fullShards_.load(std::memory_order_acquire);
        if (!(full >> (line % kShards) & 1u))
            return false;
        const uint64_t bit = filterBit(line);
        return !(filter_[bit / 64].load(std::memory_order_relaxed) >>
                     (bit % 64) &
                 1u);
    }

    uint64_t
    filterBit(uint64_t line) const
    {
        return (line * 0x9E3779B97F4A7C15ull) >> filterShift_;
    }

    size_t
    filterWords() const
    {
        return (size_t{1} << (64 - filterShift_)) / 64;
    }

    void touchLocked(uint64_t line, AccessCategory cat, bool is_write);
    /** The slot tracking @p line, else the empty slot it would take. */
    Slot &probe(Shard &shard, uint64_t line) const;

    unsigned perShardCapacity_;
    /** Slots per shard: a power of two at least twice the capacity, so
     *  a probe always reaches an empty slot. */
    unsigned slotsPerShard_;

    // Read on every touch, written only while shards fill: kept off the
    // shards' lock lines.
    /** Bit s set: shard s tracks its full share (release-published after
     *  the filter bits of all its lines). */
    alignas(64) std::atomic<unsigned> fullShards_{0};
    /** Admission filter: 16 bits per tracked line, Fibonacci-hashed. */
    unsigned filterShift_;
    std::unique_ptr<std::atomic<uint64_t>[]> filter_;

    std::array<Shard, kShards> shards_;
    /** Touches that found their shard full, per thread. */
    ShardedCounters<1> untracked_;
};

} // namespace xpg::telemetry

// ---------------------------------------------------------------------------
// Call-site macro: the only attribution surface engine code uses.
// ---------------------------------------------------------------------------

/** Open a category scope for the rest of the enclosing block. */
#define XPG_ATTR_SCOPE(varName, category)                                    \
    ::xpg::telemetry::AccessScope varName(                                   \
        ::xpg::telemetry::AccessCategory::category)
/** Same, for a category chosen at runtime (an AccessCategory expression)
 *  — shared helpers blamed on their caller, e.g. the adjacency block
 *  writers under AdjacencyArchive vs Compaction. */
#define XPG_ATTR_SCOPE_DYN(varName, categoryExpr)                            \
    ::xpg::telemetry::AccessScope varName(categoryExpr)

#endif // XPG_TELEMETRY_ATTRIBUTION_HPP
