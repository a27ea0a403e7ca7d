/**
 * @file
 * Graph partitioning for NUMA-aware segregated storing (paper S III-D).
 * The default is the hash strategy the paper defaults to: vertex v goes to
 * sub-graph v % P, balancing vertices and edges across nodes.
 */

#ifndef XPG_GRAPH_PARTITION_HPP
#define XPG_GRAPH_PARTITION_HPP

namespace xpg {

/** How graph data is spread across NUMA nodes. */
enum class NumaPlacement
{
    /** Everything on node 0 equivalents; threads unbound (baseline). */
    None,
    /** Out-graph on node 0, in-graph on node 1 ("NUMA-bind-OIG"). */
    OutInGraph,
    /** Hash-partitioned sub-graph per node ("NUMA-bind-SG", default). */
    SubGraph,
};

} // namespace xpg

#endif // XPG_GRAPH_PARTITION_HPP
