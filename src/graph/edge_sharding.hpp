/**
 * @file
 * Edge-sharding for load-balanced multi-threaded buffering/archiving
 * (paper S IV-A, inherited from GraphOne): a batch of edges is split into
 * ranged edge lists by vertex range; contiguous runs of shards are
 * assigned to threads so each gets an approximately equal edge count, and
 * no two threads ever touch the same vertex — so no atomics are needed in
 * the per-vertex structures.
 */

#ifndef XPG_GRAPH_EDGE_SHARDING_HPP
#define XPG_GRAPH_EDGE_SHARDING_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace xpg {

/** A contiguous run of shards assigned to one worker. */
struct ShardAssignment
{
    unsigned firstShard;
    unsigned lastShard; ///< exclusive
};

/** Ranged shard of @p index in [0, @p range) split into @p shards. */
constexpr unsigned
shardOf(uint64_t index, uint64_t range, uint64_t shards)
{
    return static_cast<unsigned>((index * shards) /
                                 std::max<uint64_t>(1, range));
}

/** Shards per archive worker (or per virtual slot): enough that
 *  assignShards() can balance skewed vertex ranges. */
inline constexpr unsigned kShardsPerThread = 16;

/**
 * Assign contiguous shard runs to @p num_workers workers such that
 * each run holds roughly equal edges. Shard count should exceed the
 * worker count (kShardsPerThread times it) so that skewed ranges can
 * be balanced.
 */
std::vector<ShardAssignment>
assignShards(const std::vector<std::vector<Edge>> &shards,
             unsigned num_workers);

} // namespace xpg

#endif // XPG_GRAPH_EDGE_SHARDING_HPP
