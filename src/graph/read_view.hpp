/**
 * @file
 * Consistent point-in-time read views over a live, mutating store.
 *
 * A ReadView is a GraphView pinned to an epoch boundary: the set of
 * edges visible through it is exactly the set published before the view
 * was opened — archived adjacency chains plus a frozen per-node
 * log-window high-water mark — and never changes for the lifetime of
 * the view, no matter how many IngestSession writers keep appending.
 * Readers on a view are lock-free: they never block writers and never
 * observe a half-published edge.
 *
 * Views are obtained from GraphStore::openView(), the one point-in-time
 * read. Engines with epoch-tracked internals (XPGraph) return zero-copy
 * views that read the live structures directly and pin their
 * reclamation; engines without (the GraphOne baselines) copy their
 * query surface into a Snapshot (snapshot.hpp) instead. Like every
 * GraphView, a view answers adjacency questions only; a zero-copy
 * view's backingStore() answers the questions about the machine. See
 * DESIGN.md §12 for the epoch, reclamation, and freshness semantics.
 */

#ifndef XPG_GRAPH_READ_VIEW_HPP
#define XPG_GRAPH_READ_VIEW_HPP

#include <cstdint>

#include "graph/graph_view.hpp"

namespace xpg {

/**
 * An immutable point-in-time query surface over a (possibly still
 * ingesting) store. Safe for concurrent read-only use from any number
 * of threads; results are frozen at open time. Destroying the view
 * unpins whatever store resources (chain blocks, vertex buffers, log
 * slots) it was holding live.
 */
class ReadView : public GraphView
{
  public:
    /**
     * Archive generation this view is pinned to: two views with equal
     * epoch() on the same store expose identical edge sets over the
     * archived structures. Monotonically increasing per store.
     */
    virtual uint64_t epoch() const = 0;

    /**
     * Frozen published high-water mark of @p node's edge log at open
     * time (exclusive). Log records in [frozenBoundary(node),
     * frozenHead(node)) are served from the log window; records at or
     * past frozenHead() were published after the view opened and are
     * invisible. 0 for views without per-node logs (materialized
     * views, single-log baselines).
     */
    virtual uint64_t frozenHead(unsigned node) const
    {
        (void)node;
        return 0;
    }

    /**
     * First log position of @p node served from the frozen log window;
     * everything below it was already archived into chains/buffers at
     * open time. 0 for views without per-node logs.
     */
    virtual uint64_t frozenBoundary(unsigned node) const
    {
        (void)node;
        return 0;
    }

    /**
     * Total edge records visible through this view (inserts plus
     * tombstones, out-direction). Constant for the view's lifetime —
     * the consistency anchor stress tests assert on while writers run.
     */
    virtual uint64_t visibleEdges() const = 0;
};

} // namespace xpg

#endif // XPG_GRAPH_READ_VIEW_HPP
