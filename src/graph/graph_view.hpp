/**
 * @file
 * Read interface shared by all graph stores (XPGraph and the GraphOne
 * baselines) and their point-in-time views, consumed by the analytics
 * algorithms and benches. A GraphView is the adjacency surface only:
 * what the machine behind it looks like (NUMA placement, query-thread
 * binding, declared readers, the query probe) is asked of its
 * backingStore().
 *
 * The visitor interface (forEachNebrOut/In + degreeOut/In) is the one
 * primitive stores implement: it streams neighbors in place without
 * materialization, charging the store's modeled device reads as it goes.
 * The Table-I vector interface (getNebrsOut/In) is a final adapter over
 * the visitor path — it appends the visited neighbors into a caller
 * vector and can never diverge from forEachNebrOut/In, so the two
 * surfaces charge identical modeled costs by construction.
 */

#ifndef XPG_GRAPH_GRAPH_VIEW_HPP
#define XPG_GRAPH_GRAPH_VIEW_HPP

#include <type_traits>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace xpg {

class GraphStore;

/**
 * Cumulative query-path counters a store exposes (through
 * GraphStore::sampleQueryProbe) for round-level observability
 * (DESIGN.md §15). All fields except storedEdges are monotonic
 * counters; consumers (QueryDriver) sample before and after each
 * computing round and report the deltas, so the per-round numbers sum
 * to the per-operation OpScope deltas exactly on a quiescent store.
 * storedEdges is a level (the store's current live edge-record
 * estimate), read for the pull-direction cost estimate.
 */
struct QueryProbe
{
    uint64_t sealedRecords = 0;    ///< records streamed from archived chains
    uint64_t bufferRecords = 0;    ///< records streamed from DRAM vbufs
    uint64_t logWindowRecords = 0; ///< records served from the log window
    uint64_t decodedBytes = 0;     ///< codec decode output bytes
    uint64_t mediaReadOps = 0;     ///< XPLine fetches, summed over devices
    uint64_t mediaReadBytes = 0;   ///< XPLine bytes fetched, summed
    std::vector<uint64_t> mediaReadOpsPerDevice; ///< per NUMA device
    uint64_t storedEdges = 0;      ///< live edge records (level, not delta)
};

/**
 * Non-owning, non-allocating callable reference used by the visitor
 * query API (a function_ref for `void(vid_t)`). Callers pass lambdas;
 * stores invoke without any std::function heap allocation.
 */
class NebrVisitor
{
  public:
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, NebrVisitor> &&
                  std::is_invocable_v<F &, vid_t>>>
    NebrVisitor(F &&fn) // NOLINT(google-explicit-constructor)
        : ctx_(const_cast<void *>(
              static_cast<const void *>(std::addressof(fn)))),
          call_([](void *ctx, vid_t v) {
              (*static_cast<std::remove_reference_t<F> *>(ctx))(v);
          })
    {
    }

    void operator()(vid_t v) const { call_(ctx_, v); }

  private:
    void *ctx_;
    void (*call_)(void *, vid_t);
};

/**
 * A queryable directed graph. Implementations must support concurrent
 * read-only queries from multiple threads (no concurrent updates).
 */
class GraphView
{
  public:
    virtual ~GraphView() = default;

    /** Size of the vertex-id space. */
    virtual vid_t numVertices() const = 0;

    /**
     * Invoke @p fn for each live out-neighbor of @p v without
     * materializing a neighbor vector, charging the store's modeled
     * device reads. The one query primitive stores implement. @p fn
     * must not query the view itself: stores may stream the records
     * from per-thread scratch.
     * @return the number of neighbors visited.
     */
    virtual uint32_t forEachNebrOut(vid_t v, NebrVisitor fn) const = 0;

    /** In-neighbor variant of forEachNebrOut(). */
    virtual uint32_t forEachNebrIn(vid_t v, NebrVisitor fn) const = 0;

    /**
     * Collect the live out-neighbors of @p v into @p out (appended).
     * Final adapter over forEachNebrOut() — stores implement only the
     * visitor path, so both surfaces charge identical modeled costs.
     * @return the number of neighbors appended.
     */
    virtual uint32_t
    getNebrsOut(vid_t v, std::vector<vid_t> &out) const final
    {
        return forEachNebrOut(v,
                              [&out](vid_t nebr) { out.push_back(nebr); });
    }

    /** In-neighbor variant of getNebrsOut(); final visitor adapter. */
    virtual uint32_t
    getNebrsIn(vid_t v, std::vector<vid_t> &out) const final
    {
        return forEachNebrIn(v,
                             [&out](vid_t nebr) { out.push_back(nebr); });
    }

    /**
     * Live out-degree of @p v. Stores with a degree cache answer in
     * O(1); the default counts via forEachNebrOut (full charge).
     */
    virtual uint32_t
    degreeOut(vid_t v) const
    {
        return forEachNebrOut(v, [](vid_t) {});
    }

    /** Live in-degree of @p v (see degreeOut()). */
    virtual uint32_t
    degreeIn(vid_t v) const
    {
        return forEachNebrIn(v, [](vid_t) {});
    }

    /** Whether degreeOut/In are O(1) (degree cache / CSR offsets). */
    virtual bool hasFastDegrees() const { return false; }

    /**
     * Cheap per-vertex work estimate used for load-balanced query
     * scheduling (gathered in ascending-id bulk sweeps). Stores charge
     * their own modeled cost for the lookup. Default: uniform.
     *
     * Implementations should return kVertexFixedWeight + stored records:
     * visiting a vertex pays a fixed metadata/header cost worth roughly
     * that many record-reads, so pure-degree weights would pack thousands
     * of low-degree vertices into one "light" chunk and recreate the
     * stragglers the balance exists to remove.
     */
    virtual uint64_t vertexWeight(vid_t) const { return kVertexFixedWeight; }

    /** Fixed per-vertex visit cost, in units of one adjacency record. */
    static constexpr uint64_t kVertexFixedWeight = 64;

    /**
     * The GraphStore whose devices this view reads, or null when the
     * view is not backed by one (CSR, materialized and synthetic
     * views). Kernels bracket a run in an OpScope over it, and the
     * query driver asks it the machine questions; without one a run
     * has zero cost deltas, one node, no binding and no probe.
     */
    virtual const GraphStore *backingStore() const { return nullptr; }
};

} // namespace xpg

#endif // XPG_GRAPH_GRAPH_VIEW_HPP
