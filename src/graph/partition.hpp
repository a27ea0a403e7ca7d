/**
 * @file
 * Graph partitioning for NUMA-aware segregated storing (paper S III-D).
 * The default is the hash strategy the paper defaults to: vertex v goes to
 * sub-graph v % P, balancing vertices and edges across nodes.
 */

#ifndef XPG_GRAPH_PARTITION_HPP
#define XPG_GRAPH_PARTITION_HPP

namespace xpg {

/**
 * How graph data is spread across NUMA nodes. Whether threads bind to
 * the data's node is a separate choice (XPGraphConfig::bindThreads):
 * the paper's "no binding" baseline is SubGraph without binding. The
 * values are persisted in the superblock and the geometry fingerprint.
 */
enum class NumaPlacement
{
    /** Out-graph on node 0, in-graph on node 1 ("NUMA-bind-OIG"). */
    OutInGraph = 1,
    /** Hash-partitioned sub-graph per node ("NUMA-bind-SG", default). */
    SubGraph = 2,
};

} // namespace xpg

#endif // XPG_GRAPH_PARTITION_HPP
