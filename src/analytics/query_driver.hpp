/**
 * @file
 * NUMA-friendly query driver (paper S III-D, "CPU-binding based graph
 * querying"): at the start of each computing iteration the vertex set is
 * classified by the NUMA node holding each vertex's adjacency, and
 * querying threads are bound to the matching node's cores — avoiding both
 * remote PMEM reads and per-vertex thread migration.
 *
 * Every round is one plan run in one executor call. The plan holds the
 * round's vertices (one list per node when the round binds, one list
 * otherwise) and how workers are dealt them:
 *  - Strided: round-robin within each list, in input order. Spreads
 *    power-law hubs, but a worker that draws several hubs straggles the
 *    round, and the stride destroys storage-order locality.
 *  - Balanced (SchedulePolicy::Auto on a view with O(1) degrees): weight
 *    each vertex by the store's degree cache (GraphView::vertexWeight)
 *    and cut each id-sorted list into
 *    contiguous equal-weight chunks. Rounds finish together AND adjacent
 *    vertices' adjacencies — which the stores pack into the same XPLines —
 *    are read by the same worker, so the XPBuffer line a read warms is
 *    reused by the very next vertex.
 *  - Per-vertex (the S III-D anti-pattern): equal-count contiguous chunks
 *    of the input, rebinding to each vertex's node before visiting it.
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

class GraphStore;

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
 * The rest come from the backing store's query probe: on a view
 * without one (GraphOne and its views, synthetic views) the record is
 * not probed, those fields are not measured, and toJson() leaves them
 * out rather than report them as zero.
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
    Auto,      ///< when the backing store's queryBindingEnabled():
               ///< classify per round, bind per slot (paper default);
               ///< else unbound
    None,      ///< threads stay unbound (GraphOne behaviour)
    PerVertex, ///< rebind on every vertex (the anti-pattern of S III-D)
};

/** How a round's vertices are distributed over workers. */
enum class SchedulePolicy
{
    Auto,    ///< degree-weighted contiguous chunks in id order when the
             ///< view has O(1) degrees (not per-vertex), else Strided
    Strided, ///< round-robin deal (one-hop's random queries)
};

/**
 * Executes per-vertex work over vertex sets with the chosen binding
 * strategy, accumulating simulated time. Each round builds one plan
 * and runs it in one executor call.
 *
 * The balanced policy caches the forAllVertices() plan after the
 * first round, so the weight gather is paid once per driver, not once
 * per iteration. The cache stays valid for the driver's lifetime
 * because its view never changes underneath it: either the store is
 * quiescent while the driver queries it, or the driver runs over an
 * immutable point-in-time ReadView (openView()) while sessions keep
 * ingesting into the store behind it.
 *
 * The machine questions (NUMA node of a vertex, node count, binding,
 * declared readers, the query probe) go to view.backingStore(), taken
 * once at construction. A view without a store runs on one node,
 * unbound, with nothing declared and no probe.
 */
class QueryDriver
{
  public:
    /**
     * @param view Graph under query.
     * @param num_threads Simulated query thread count, declared to the
     *        backing store.
     * @param binding Binding strategy.
     * @param schedule Work-distribution policy.
     */
    QueryDriver(const GraphView &view, unsigned num_threads,
                QueryBinding binding = QueryBinding::Auto,
                SchedulePolicy schedule = SchedulePolicy::Auto);

    unsigned numThreads() const { return executor_.numWorkers(); }

    /**
     * Run @p fn(v, worker) over @p vertices (one computing iteration).
     * Out-adjacency node classification is used for binding. A round
     * of fewer than 4 x numThreads() vertices is dealt strided.
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
     * far. Without a query probe (GraphOne, views without a store) a
     * record is not probed: only round, activeVertices and simNs are
     * measured, and toJson() leaves the rest out.
     */
    const std::vector<RoundStats> &rounds() const { return rounds_; }

    /** Move the round records out (kernels hand them to their
     *  AnalyticsResult); the driver's list is left empty. */
    std::vector<RoundStats> takeRounds() { return std::move(rounds_); }

  private:
    /** One round's schedule: the vertices per virtual-slot node and how
     *  each slot is dealt its share. */
    struct Plan
    {
        bool built = false;
        bool bound = false;     ///< bind each slot to its list's node
        bool perVertex = false; ///< rebind to each vertex's node first
        /// Per node when bound, else one entry: the round's vertices
        /// (id-sorted when balanced, in input order otherwise).
        std::vector<std::vector<vid_t>> lists;
        /// Empty: strided dealing. Otherwise per list: chunk
        /// boundaries, one contiguous chunk per virtual slot.
        std::vector<std::vector<uint64_t>> bounds;
    };

    /** The backing store's node for v's out-adjacency (0 without one). */
    int nodeOfOut(vid_t v) const;
    bool balancedActive() const;
    /**
     * Schedule @p vertices into @p plan. Classifying (when the round
     * binds or balances) is one serial DRAM stream; a balanced plan
     * also gathers weights in parallel and scans them into chunks.
     * @return simulated ns spent building.
     */
    uint64_t buildPlan(std::span<const vid_t> vertices, bool balanced,
                       Plan &plan);
    std::vector<uint64_t> chunkBoundaries(std::span<const uint64_t> weight,
                                          uint64_t list_size,
                                          unsigned parts) const;
    /** The one round loop. @return simulated ns (slowest worker). */
    uint64_t runPlan(const Plan &plan,
                     const std::function<void(vid_t, unsigned)> &fn);
    /** Per-round accounting: add @p round_ns to totalNs(), record it
     *  in the round histogram and as a `query_round` span that began at
     *  host time @p host_start_ns, then append this round's RoundStats
     *  (probe deltas against the previous sample + the push/pull cost
     *  estimate). @return @p round_ns. */
    uint64_t noteRound(uint64_t round_ns, uint64_t active_vertices,
                       uint64_t host_start_ns);

    const GraphView &view_;
    const GraphStore *store_; ///< view_.backingStore(), may be null
    QueryBinding binding_;
    SchedulePolicy schedule_;
    ParallelExecutor executor_;
    std::vector<vid_t> allVertices_;
    Plan allPlan_; ///< forAllVertices' plan (kept when balanced)
    Plan tmpPlan_; ///< per-call plan for frontier-style forEach
    uint64_t totalNs_ = 0;
    telemetry::ShardedHistogram *telRoundHist_ = nullptr;

    // --- round observability (DESIGN.md §15) ---
    bool probeActive_ = false; ///< store answered sampleQueryProbe
    QueryProbe probeLast_;     ///< sample at end of previous round
    std::vector<RoundStats> rounds_;
};

} // namespace xpg

#endif // XPG_ANALYTICS_QUERY_DRIVER_HPP
