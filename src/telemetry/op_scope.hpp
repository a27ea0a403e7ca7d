/**
 * @file
 * Per-operation records: "what did *this* operation cost?"
 *
 * The metrics registry, attribution profiler, and ops plane all answer
 * global questions — cumulative media traffic per device, aggregate
 * latency histograms, store health. An OpScope is the one record of ONE
 * logical operation (a query kernel, an archive phase, a recovery step,
 * a compaction pass). It yields the exact deltas of the store's
 * PcmCounters, its per-category AttributionSnapshot, and the adjacency
 * codec's decode counters between open and close. Because every one of
 * those counters is cumulative and monotonic, a delta over a quiescent
 * store is exact, not sampled.
 *
 * The operation's simulated time is not read off a clock: a phase that
 * fans out over executor workers lasts the maximum over its workers
 * (DESIGN.md §1), which no single thread's SimClock sees. The call site
 * adds the phase's segments instead — each serial SimScope's elapsed()
 * and each executor run's maxNanos() — and close() feeds that one
 * total to every consumer: the stat the record names (an IngestStats
 * field's counter; the kernels report it as AnalyticsResult::simNs),
 * the phase histogram, the trace span, and classTotals(). Records do
 * not nest at the engine's call sites, so each simulated ns and each
 * media byte lands in a roll-up exactly once.
 *
 * Each record stamps a process-monotonic opId (ids start at 1; 0 means
 * "no operation"). The innermost open record's id is published
 * thread-locally via currentOpId(), which the trace ring reads at emit
 * time for every span and event instant — so `xpgraph_cli watch`
 * output and flight-recorder dumps correlate back to the operation that
 * caused them. Opening saves the previous innermost id and closing (or
 * unwinding) restores it.
 *
 * The cost source is the small OpCostSource interface rather than
 * GraphStore itself so this layer keeps telemetry's dependency
 * direction (GraphStore implements the interface; telemetry never
 * includes graph headers).
 */

#ifndef XPG_TELEMETRY_OP_SCOPE_HPP
#define XPG_TELEMETRY_OP_SCOPE_HPP

#include <atomic>
#include <cstdint>

#include "pmem/pcm_counters.hpp"
#include "telemetry/attribution.hpp"
#include "util/json_writer.hpp"

namespace xpg::telemetry {

class ShardedHistogram;

/** What kind of operation a scope brackets (JSON/event taxonomy). */
enum class OpClass : uint8_t
{
    Query = 0,  ///< one analytics kernel / query run
    Archive,    ///< one buffering, flushing or GraphOne archive phase
    Compaction, ///< one compaction pass
    Recovery,   ///< one step of XPGraph's post-crash recover()
    Ingest,     ///< a bracketed ingest region (tests, benches)
    Other,      ///< anything else
};

inline constexpr unsigned kOpClassCount = 6;

/** Stable snake_case name ("query", "archive", ...) for JSON keys. */
const char *opClassName(OpClass cls);

/** Decode-side codec counters an OpScope snapshots (a subset of
 *  CompressionStats, kept as plain integers so telemetry does not
 *  depend on core headers). */
struct OpDecodeStats
{
    uint64_t decodedBytes = 0; ///< raw bytes produced by chunk decode
    uint64_t decodeCalls = 0;  ///< chunk decode invocations
};

/**
 * The cost surface an OpScope snapshots. GraphStore implements this by
 * delegating to pmemCounters() / pmemAttribution() /
 * compressionStats(); a null source is legal and yields zero deltas
 * (the scope still stamps an opId).
 */
class OpCostSource
{
  public:
    virtual ~OpCostSource() = default;

    /** Cumulative device traffic, summed over the store's devices. */
    virtual PcmCounters opPcmCounters() const = 0;

    /** Cumulative per-category attribution, summed over devices. */
    virtual AttributionSnapshot opAttribution() const = 0;

    /** Cumulative codec decode counters. */
    virtual OpDecodeStats opDecodeStats() const = 0;
};

/**
 * Process-wide roll-up of every closed record of one class — the cheap
 * aggregate view serving benches read around a run ("how many archive
 * phases fired during this mix, and what media traffic did they
 * cause?") without holding the individual OpCosts.
 */
struct OpClassTotals
{
    uint64_t ops = 0;             ///< records of this class closed
    uint64_t mediaReadBytes = 0;  ///< summed pcm.mediaBytesRead deltas
    uint64_t mediaWriteBytes = 0; ///< summed pcm.mediaBytesWritten deltas
    uint64_t simNs = 0;           ///< summed simulated totals
};

/** Exact cost deltas of one closed operation. */
struct OpCost
{
    uint64_t opId = 0;            ///< process-monotonic id (0 = none)
    const char *name = "";        ///< operation label (literal lifetime)
    OpClass cls = OpClass::Other; ///< taxonomy bucket
    PcmCounters pcm;              ///< device-counter delta
    AttributionSnapshot attribution; ///< per-category delta
    uint64_t decodedBytes = 0;    ///< codec decode output delta
    uint64_t decodeCalls = 0;     ///< codec decode call delta
    uint64_t hostNs = 0;          ///< host wall time open -> close
    uint64_t simNs = 0;           ///< sum of the segments add()ed

    /** {"op_id":..,"name":..,"class":..,"pcm":{..},"attribution":{..},
     *  "decoded_bytes":..,"decode_calls":..,"host_ns":..,"sim_ns":..} */
    json::JsonValue toJson() const;
};

/**
 * RAII record of one operation. Constructing snapshots the source's
 * cumulative counters and publishes this record's opId as the calling
 * thread's innermost; add() accumulates the simulated total; close()
 * (idempotent, also run by the destructor, including via exception
 * unwind) computes the deltas, feeds the total to the stat, histogram,
 * span and class roll-up, and restores the previous innermost id.
 *
 * A record must be closed on the thread that opened it (the
 * thread-local id stack is per-thread, like AccessScope's category
 * stack). The counters it diffs are store-global, so an op's delta is
 * exact when no other operation touches the same store concurrently —
 * the explain path quiesces the store first for exactly this reason.
 * Engine phases close their record inside their phaseEnterLocked /
 * phaseExitLocked bracket, so snapshotStats() never sees half a phase.
 */
class OpScope
{
  public:
    /**
     * @param stat Counter close() adds the simulated total to (null:
     *             none).
     * @param hist Histogram close() records the total into (null:
     *             none).
     * The trace span is named @p name, with opClassName(@p cls) as its
     * category.
     */
    OpScope(const OpCostSource *source, const char *name,
            OpClass cls = OpClass::Other,
            std::atomic<uint64_t> *stat = nullptr,
            ShardedHistogram *hist = nullptr) noexcept;
    ~OpScope();

    OpScope(const OpScope &) = delete;
    OpScope &operator=(const OpScope &) = delete;

    /** Add one segment of the operation's simulated time: a serial
     *  SimScope's elapsed() or an executor run's maxNanos(). */
    void add(uint64_t sim_ns) noexcept { cost_.simNs += sim_ns; }

    /** The two arguments close() attaches to the span (what the phase
     *  did: edges buffered, chains rewritten and bytes reclaimed). */
    void args(uint64_t a0, uint64_t a1 = 0) noexcept
    {
        a0_ = a0;
        a1_ = a1;
    }

    /**
     * Close the record: compute deltas, feed the simulated total to the
     * stat, histogram, span and classTotals(), restore the previous
     * innermost opId, and return this op's cost. Idempotent — later
     * calls (and the destructor) return the same OpCost.
     */
    const OpCost &close() noexcept;

    /** This record's id. Valid from construction. */
    uint64_t opId() const noexcept { return cost_.opId; }

    bool closed() const noexcept { return closed_; }

    /** The calling thread's innermost open op (0 when none). */
    static uint64_t currentOpId() noexcept;

    /** Total records ever opened process-wide. */
    static uint64_t opsOpened() noexcept;

    /** Cumulative roll-up of closed records of @p cls (see
     *  OpClassTotals). Deltas around a run are exact because every
     *  field is monotonic. */
    static OpClassTotals classTotals(OpClass cls) noexcept;

  private:
    const OpCostSource *source_;
    std::atomic<uint64_t> *stat_;
    ShardedHistogram *hist_;
    OpCost cost_;
    PcmCounters pcm0_;
    AttributionSnapshot attr0_;
    OpDecodeStats decode0_;
    uint64_t host0_ = 0;
    uint64_t a0_ = 0;
    uint64_t a1_ = 0;
    uint64_t prevOpId_ = 0;
    bool closed_ = false;

    static std::atomic<uint64_t> nextOpId_;
    static thread_local uint64_t tlsCurrent_;
};

} // namespace xpg::telemetry

#endif // XPG_TELEMETRY_OP_SCOPE_HPP
