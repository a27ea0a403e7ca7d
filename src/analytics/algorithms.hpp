/**
 * @file
 * The graph-analytics workloads of the paper's query evaluation (S V-C,
 * Fig.14): one-hop neighbor queries, BFS, PageRank, and Connected
 * Components, all running over the GraphView interface so they exercise
 * XPGraph and the GraphOne baselines identically.
 *
 * Every kernel streams adjacencies through the zero-copy forEachNebr
 * visitor API and reads degrees from the O(1) degree cache; the
 * whole-graph sweeps use the driver's degree-balanced schedule.
 */

#ifndef XPG_ANALYTICS_ALGORITHMS_HPP
#define XPG_ANALYTICS_ALGORITHMS_HPP

#include <cstdint>
#include <span>

#include <vector>

#include "analytics/query_driver.hpp"
#include "graph/graph_view.hpp"
#include "telemetry/op_scope.hpp"

namespace xpg {

/** Outcome of one analytics run. */
struct AnalyticsResult
{
    uint64_t simNs = 0;      ///< simulated completion time (= op.simNs)
    uint64_t checksum = 0;   ///< digest for equivalence checks
    uint64_t iterations = 0; ///< rounds executed
    uint64_t touched = 0;    ///< vertices visited / queries answered

    /**
     * Per-round cost records from the kernel's QueryDriver, in
     * execution order (a kernel's setup sweep — e.g. PageRank's degree
     * pass — counts as a round). Rounds on views without a query
     * probe are not probed (RoundStats::probed).
     */
    std::vector<RoundStats> rounds;

    /**
     * The run's OpScope record over view.backingStore(): its simNs is
     * the kernel's simulated total; its cost deltas are 0 on
     * store-less synthetic views. On a quiescent store the per-round
     * media reads in `rounds` sum to op.pcm.mediaReadOps exactly — the
     * invariant `xpgraph_cli explain` checks.
     */
    telemetry::OpCost op;
};

/**
 * One-hop neighbor queries: fetch the out-neighbors of each vertex in
 * @p queries (the paper queries 2^24 random non-zero-degree vertices).
 * Each query streams its vertex's neighbors; the checksum is the total
 * neighbor count.
 */
AnalyticsResult runOneHop(GraphView &view, std::span<const vid_t> queries,
                          unsigned num_threads,
                          QueryBinding binding = QueryBinding::Auto);

/** Level-synchronous BFS over out-edges from @p root. */
AnalyticsResult runBfs(GraphView &view, vid_t root, unsigned num_threads,
                       QueryBinding binding = QueryBinding::Auto);

/** Pull-based PageRank for @p iterations rounds (paper: ten). */
AnalyticsResult runPageRank(GraphView &view, unsigned iterations,
                            unsigned num_threads,
                            QueryBinding binding = QueryBinding::Auto);

/**
 * Connected components via min-label propagation over out- and in-edges
 * (treating the graph as undirected, as CC benchmarks do).
 */
AnalyticsResult runConnectedComponents(
    GraphView &view, unsigned num_threads,
    QueryBinding binding = QueryBinding::Auto, unsigned max_iterations = 64);

} // namespace xpg

#endif // XPG_ANALYTICS_ALGORITHMS_HPP
