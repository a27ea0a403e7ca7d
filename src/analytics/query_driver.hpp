/**
 * @file
 * NUMA-friendly query driver (paper S III-D, "CPU-binding based graph
 * querying"): at the start of each computing iteration the vertex set is
 * classified by the NUMA node holding each vertex's adjacency, and
 * querying threads are bound to the matching node's cores — avoiding both
 * remote PMEM reads and per-vertex thread migration.
 *
 * Two work-distribution policies:
 *  - Strided: deal vertices round-robin across workers. Spreads power-law
 *    hubs, but a worker that draws several hubs straggles the round, and
 *    the stride destroys storage-order locality.
 *  - Balanced: weight each vertex by the store's O(1) degree cache
 *    (GraphView::vertexWeight) and cut the id-ordered vertex list into
 *    contiguous equal-weight chunks. Rounds finish together AND adjacent
 *    vertices' adjacencies — which the stores pack into the same XPLines —
 *    are read by the same worker, so the XPBuffer line a read warms is
 *    reused by the very next vertex.
 */

#ifndef XPG_ANALYTICS_QUERY_DRIVER_HPP
#define XPG_ANALYTICS_QUERY_DRIVER_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph_view.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json_writer.hpp"
#include "util/parallel.hpp"

namespace xpg {

/**
 * Exact cost record of one computing round (DESIGN.md §15): what the
 * store's query-path counters and device counters moved between the
 * samples taken at the end of the previous round and the end of this
 * one. Continuous coverage — each round's delta starts where the last
 * round's ended (the first at driver construction) — so the per-round
 * numbers sum to the bracketing OpScope's deltas exactly on a
 * quiescent store.
 *
 * Only round, activeVertices and simNs are measured on every view.
 * The rest come from the view's query probe: on a view without one
 * (GraphOne, synthetic views) the record is not probed, those fields
 * are not measured, and toJson() leaves them out rather than report
 * them as zero.
 *
 * pushCostNs/pullCostNs are cost-model estimates of running this round
 * frontier-directed (touch activeVertices, random-read their
 * adjacency) vs. pull-directed (sweep every vertex, stream the whole
 * edge set sequentially). directionSwitchGain > 0 marks rounds where
 * the model says a pull sweep would have been cheaper — the
 * direction-switch opportunity signal the future frontier engine
 * consumes (ROADMAP).
 */
struct RoundStats
{
    uint32_t round = 0;            ///< 1-based index within the driver
    uint64_t activeVertices = 0;   ///< vertices processed this round
    uint64_t simNs = 0;            ///< simulated ns of the round
    bool probed = false;           ///< the fields below were measured
    uint64_t edgesScanned = 0;     ///< adjacency records streamed
    uint64_t sealedRecords = 0;    ///< ... from archived chain blocks
    uint64_t bufferRecords = 0;    ///< ... from DRAM vertex buffers
    uint64_t logWindowRecords = 0; ///< ... from the frozen log window
    uint64_t decodedBytes = 0;     ///< codec decode output bytes
    uint64_t mediaReadOps = 0;     ///< XPLine fetches, all devices
    uint64_t mediaReadBytes = 0;   ///< XPLine bytes fetched
    std::vector<uint64_t> mediaReadOpsPerDevice; ///< per NUMA device
    double pushCostNs = 0.0;       ///< modeled frontier-directed cost
    double pullCostNs = 0.0;       ///< modeled full-sweep pull cost
    double directionSwitchGain = 0.0; ///< (push-pull)/push; >0: pull wins

    json::JsonValue toJson() const;
};

/** How query threads relate to NUMA nodes. */
enum class QueryBinding
{
    Auto,      ///< follow view.queryBindingEnabled()
    None,      ///< threads stay unbound (GraphOne behaviour)
    PerRound,  ///< classify per iteration, bind per round (paper default)
    PerVertex, ///< rebind on every vertex (the anti-pattern of S III-D)
};

/** How a round's vertices are distributed over workers. */
enum class SchedulePolicy
{
    Auto,     ///< Balanced when the view has O(1) degrees, else Strided
    Strided,  ///< round-robin deal (one-hop's random queries)
    Balanced, ///< degree-weighted contiguous chunks in id order
};

/**
 * Executes per-vertex work over vertex sets with the chosen binding
 * strategy, accumulating simulated time.
 *
 * The balanced policy caches the forAllVertices() schedule after the
 * first round, so the weight gather is paid once per driver, not once
 * per iteration. The cache stays valid for the driver's lifetime
 * because its view never changes underneath it: either the store is
 * quiescent while the driver queries it, or the driver runs over an
 * immutable point-in-time ReadView (openView()) while sessions keep
 * ingesting into the store behind it.
 */
class QueryDriver
{
  public:
    /**
     * @param view Graph under query (used for node classification).
     * @param num_threads Simulated query thread count.
     * @param binding Binding strategy.
     * @param schedule Work-distribution policy.
     */
    QueryDriver(GraphView &view, unsigned num_threads,
                QueryBinding binding = QueryBinding::Auto,
                SchedulePolicy schedule = SchedulePolicy::Auto);

    unsigned numThreads() const { return executor_.numWorkers(); }

    /**
     * Run @p fn(v, worker) over @p vertices (one computing iteration).
     * Out-adjacency node classification is used for binding.
     * @return simulated nanoseconds of the round (slowest worker).
     */
    uint64_t forEach(std::span<const vid_t> vertices,
                     const std::function<void(vid_t, unsigned)> &fn);

    /** forEach over the whole vertex space [0, numVertices). */
    uint64_t forAllVertices(const std::function<void(vid_t, unsigned)> &fn);

    /** Total simulated nanoseconds across all rounds so far. */
    uint64_t totalNs() const { return totalNs_; }

    /**
     * Per-round cost records, one per forEach/forAllVertices call so
     * far. When the view has no query probe (GraphOne, synthetic
     * views) a record is not probed: only round, activeVertices and
     * simNs are measured, and toJson() leaves the rest out.
     */
    const std::vector<RoundStats> &rounds() const { return rounds_; }

    /** Move the round records out (kernels hand them to their
     *  AnalyticsResult); the driver's list is left empty. */
    std::vector<RoundStats> takeRounds() { return std::move(rounds_); }

  private:
    /** A balanced schedule: id-ordered lists cut into weighted chunks. */
    struct Plan
    {
        bool built = false;
        bool bound = false;
        /// Per node (a single entry when unbound): id-ordered vertices.
        std::vector<std::vector<vid_t>> lists;
        /// Per node: chunk boundaries, one chunk per virtual slot.
        std::vector<std::vector<uint64_t>> bounds;
    };

    bool bindingActive() const;
    bool balancedActive() const;
    /** @return simulated ns spent building (serial classify + parallel
     *  weight gather). */
    uint64_t buildPlan(std::span<const vid_t> vertices, Plan &plan);
    std::vector<uint64_t> chunkBoundaries(std::span<const uint64_t> weight,
                                          uint64_t list_size,
                                          unsigned parts) const;
    uint64_t runPlan(const Plan &plan,
                     const std::function<void(vid_t, unsigned)> &fn);
    /** Per-round telemetry: record the round's simulated ns in the
     *  round histogram and as a `query_round` span that began at host
     *  time @p host_start_ns, then append this round's RoundStats
     *  (probe deltas against the previous sample + the push/pull cost
     *  estimate). */
    void noteRound(uint64_t round_ns, uint64_t active_vertices,
                   uint64_t host_start_ns);

    GraphView &view_;
    QueryBinding binding_;
    SchedulePolicy schedule_;
    ParallelExecutor executor_;
    std::vector<std::vector<vid_t>> perNode_;
    std::vector<vid_t> allVertices_;
    Plan allPlan_; ///< cached balanced plan for forAllVertices
    Plan tmpPlan_; ///< per-call plan for frontier-style forEach
    uint64_t totalNs_ = 0;
    telemetry::ShardedHistogram *telRoundHist_ = nullptr;

    // --- round observability (DESIGN.md §15) ---
    bool probeActive_ = false; ///< view answered sampleQueryProbe
    QueryProbe probeLast_;     ///< sample at end of previous round
    std::vector<RoundStats> rounds_;
};

} // namespace xpg

#endif // XPG_ANALYTICS_QUERY_DRIVER_HPP
