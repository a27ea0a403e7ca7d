/**
 * @file
 * The materialized point-in-time view.
 *
 * GraphStore::openView() is the one point-in-time read. Engines with
 * epoch-tracked internals (XPGraph) answer it with zero-copy views;
 * engines without them (the GraphOne baselines) copy their query
 * surface into a Snapshot while they keep it from changing. The copy
 * pays the store's modeled read costs once; the Snapshot then answers
 * queries from compact CSR arrays at DRAM cost.
 */

#ifndef XPG_GRAPH_SNAPSHOT_HPP
#define XPG_GRAPH_SNAPSHOT_HPP

#include <cstdint>
#include <vector>

#include "graph/read_view.hpp"
#include "graph/types.hpp"

namespace xpg {

/** Immutable CSR copy of a query surface; a ReadView with no store. */
class Snapshot final : public ReadView
{
  public:
    /**
     * Copy @p source in one sequential pass on the calling thread:
     * out-neighbors then in-neighbors of each vertex, in id order, then
     * one DRAM stream over the arrays. The source's modeled reads and
     * the stream are charged to the caller's SimClock. The caller keeps
     * @p source from changing during the copy (GraphOne holds its
     * archive lock) and names the @p epoch the copy is pinned to.
     */
    Snapshot(const GraphView &source, uint64_t epoch);

    vid_t
    numVertices() const override
    {
        return static_cast<vid_t>(outOffsets_.size() - 1);
    }

    uint32_t forEachNebrOut(vid_t v, NebrVisitor fn) const override;
    uint32_t forEachNebrIn(vid_t v, NebrVisitor fn) const override;

    uint64_t epoch() const override { return epoch_; }

    /** Live out-records in the snapshot (tombstones already folded). */
    uint64_t visibleEdges() const override { return outAdj_.size(); }

  private:
    std::vector<uint64_t> outOffsets_;
    std::vector<vid_t> outAdj_;
    std::vector<uint64_t> inOffsets_;
    std::vector<vid_t> inAdj_;
    uint64_t epoch_;
};

} // namespace xpg

#endif // XPG_GRAPH_SNAPSHOT_HPP
