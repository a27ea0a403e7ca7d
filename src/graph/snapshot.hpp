/**
 * @file
 * Static snapshots of a live graph store.
 *
 * Evolving-graph systems (GraphOne, and XPGraph inheriting its view
 * interfaces) serve long-running analytics from an immutable snapshot
 * while updates continue against the live store. takeSnapshot() pulls
 * every vertex's live adjacency through the GraphView interface (paying
 * the store's modeled read costs once) into compact CSR arrays; the
 * returned Snapshot then answers queries at DRAM cost.
 *
 * The GraphStore overload consumes GraphStore::openView(): it snapshots
 * a consistent point-in-time ReadView, so it is safe to call while
 * sessions keep ingesting and the result inherits the view's epoch.
 * The GraphView overload snapshots whatever the view exposes and
 * requires the caller to keep it quiescent for the duration.
 */

#ifndef XPG_GRAPH_SNAPSHOT_HPP
#define XPG_GRAPH_SNAPSHOT_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/read_view.hpp"
#include "graph/types.hpp"

namespace xpg {

class GraphStore;

/** Immutable CSR snapshot; itself a ReadView for the analytics stack. */
class Snapshot : public ReadView
{
  public:
    vid_t
    numVertices() const override
    {
        // Guard the empty-view case: outOffsets_ has numVertices()+1
        // entries for a populated snapshot but size 0 when built from
        // a view with no vertices, where size()-1 would underflow.
        return outOffsets_.empty()
                   ? 0
                   : static_cast<vid_t>(outOffsets_.size() - 1);
    }

    uint32_t forEachNebrOut(vid_t v, NebrVisitor fn) const override;
    uint32_t forEachNebrIn(vid_t v, NebrVisitor fn) const override;

    /** Epoch of the view this snapshot was taken from (0 if none). */
    uint64_t epoch() const override { return epoch_; }

    /** Live out-records in the snapshot (tombstones already folded). */
    uint64_t visibleEdges() const override { return outAdj_.size(); }

    uint64_t numEdges() const { return outAdj_.size(); }

    /** Bytes held by the snapshot's arrays. */
    uint64_t sizeBytes() const;

    /** Simulated nanoseconds it took to materialize this snapshot. */
    uint64_t buildNs() const { return buildNs_; }

  private:
    friend std::unique_ptr<Snapshot> takeSnapshot(GraphView &,
                                                  unsigned);
    friend std::unique_ptr<Snapshot> takeSnapshot(GraphStore &,
                                                  unsigned);
    friend std::unique_ptr<Snapshot> materializeView(GraphView &,
                                                     unsigned, uint64_t);

    std::vector<uint64_t> outOffsets_;
    std::vector<vid_t> outAdj_;
    std::vector<uint64_t> inOffsets_;
    std::vector<vid_t> inAdj_;
    uint64_t buildNs_ = 0;
    uint64_t epoch_ = 0;
};

/**
 * Materialize a consistent snapshot of @p view using @p num_threads
 * readers (charged to simulated time like any other query workload).
 * The caller must not mutate the view's contents concurrently (a
 * ReadView is immutable by construction; a live store must be
 * quiescent — prefer the GraphStore overload there).
 */
std::unique_ptr<Snapshot> takeSnapshot(GraphView &view,
                                       unsigned num_threads);

/**
 * Snapshot a live store through a point-in-time view: opens
 * store.openView(), materializes it, and stamps the view's epoch on
 * the result. Safe to call while sessions keep ingesting: XPGraph's
 * views are concurrent, and GraphOne materializes its view under its
 * archive lock.
 */
std::unique_ptr<Snapshot> takeSnapshot(GraphStore &store,
                                       unsigned num_threads);

/**
 * Engine helper behind a materializing openView() (GraphOne's): pull
 * @p view through takeSnapshot(GraphView&) and stamp @p epoch on the
 * result. The caller provides whatever exclusion its query surface
 * needs during the copy (e.g. GraphOne holds its archive lock).
 */
std::unique_ptr<Snapshot> materializeView(GraphView &view,
                                          unsigned num_threads,
                                          uint64_t epoch);

} // namespace xpg

#endif // XPG_GRAPH_SNAPSHOT_HPP
