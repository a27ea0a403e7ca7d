/**
 * @file
 * Reference model the benchmark checks the store's outputs against: the
 * live edge multiset the benchmark itself generated and wrote, with
 * out-degrees, a BFS and a union-find component count computed directly
 * from it (never through the store).
 */

#ifndef XPG_PERFBENCH_REFERENCE_HPP
#define XPG_PERFBENCH_REFERENCE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "util/rng.hpp"

namespace perfbench {

using xpg::Edge;
using xpg::vid_t;

/**
 * The live edge multiset as the benchmark wrote it, kept as per-vertex
 * out-neighbor lists. Inserts append; a delete removes one copy of one
 * of a vertex's live out-edges, which is exactly the store's
 * one-delete-cancels-one-insert rule.
 */
class ReferenceGraph
{
  public:
    ReferenceGraph(vid_t num_vertices, std::span<const Edge> initial);

    vid_t numVertices() const { return static_cast<vid_t>(adj_.size()); }
    uint64_t liveEdges() const { return liveEdges_; }
    uint32_t
    degree(vid_t v) const
    {
        return static_cast<uint32_t>(adj_[v].size());
    }

    void insert(const Edge &e);

    /** Remove a uniformly chosen live out-edge of @p v (degree(v) > 0)
     *  and return it. */
    Edge removeRandomOf(vid_t v, xpg::Rng &rng);

    /** Live out-degrees as of the last markViewOpened() call. */
    uint32_t degreeAtView(vid_t v) const { return viewDegree_[v]; }

    /** Freeze the current degrees as the ones an opened view must show. */
    void markViewOpened();

    /** The vertex with the largest live out-degree (lowest id on ties). */
    vid_t maxDegreeVertex() const;

    /** Vertices reached by a BFS over live out-edges from @p root. */
    uint64_t bfsReached(vid_t root) const;

    /** Connected components of the undirected live graph, isolated
     *  vertices included. */
    uint64_t components() const;

  private:
    void touch(vid_t v);

    std::vector<std::vector<vid_t>> adj_;
    uint64_t liveEdges_ = 0;
    std::vector<uint32_t> viewDegree_;
    std::vector<vid_t> touchedSinceView_;
    std::vector<uint8_t> touchedFlag_;
};

} // namespace perfbench

#endif // XPG_PERFBENCH_REFERENCE_HPP
