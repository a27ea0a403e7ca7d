/**
 * @file
 * The stable ingest + query interface implemented by every engine
 * (XPGraph and the GraphOne baselines): the paper's Table I update
 * methods, the thread-safe session surface, the arranging entry point,
 * and the GraphView query surface. Benches and tests drive all engines
 * through this one polymorphic harness instead of engine-specific call
 * sites.
 *
 * Threading contract:
 *  - session(threadHint) opens an independent ingestion session; any
 *    number of sessions may update concurrently from distinct threads.
 *    A session must not be shared between threads without external
 *    synchronization (it is a lightweight per-thread handle).
 *  - openView() returns a consistent point-in-time ReadView that may
 *    be queried while sessions keep ingesting (see read_view.hpp).
 *  - archiveAll() (and the store-specific flush entry points) are the
 *    sync points: after they return on a quiescent store, queries see
 *    every previously published update (the consistent frontier).
 */

#ifndef XPG_GRAPH_GRAPH_STORE_HPP
#define XPG_GRAPH_GRAPH_STORE_HPP

#include <algorithm>
#include <memory>

#include <vector>

#include "core/stats.hpp"
#include "graph/graph_view.hpp"
#include "graph/read_view.hpp"
#include "graph/types.hpp"
#include "pmem/pcm_counters.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/op_scope.hpp"
#include "telemetry/watchdog.hpp"

namespace xpg {

/**
 * A lightweight, single-threaded handle for one client thread's updates.
 * Different sessions may be used from different threads concurrently;
 * the store serializes internally (NUMA-sharded logs in XPGraph, atomic
 * log reservation in GraphOne). Closing (destroying) the session folds
 * its per-thread statistics into the store.
 */
class IngestSession
{
  public:
    virtual ~IngestSession() = default;

    /** Log one edge insertion. */
    virtual void
    addEdge(vid_t src, vid_t dst)
    {
        const Edge e{src, dst};
        addEdges(&e, 1);
    }

    /** Log a batch of edges. @return edges accepted (always n). */
    virtual uint64_t addEdges(const Edge *edges, uint64_t n) = 0;

    /** Log one edge deletion (tombstone record). */
    virtual void
    delEdge(vid_t src, vid_t dst)
    {
        const Edge e{src, asDelete(dst)};
        addEdges(&e, 1);
    }

    /**
     * Log a batch of edge deletions: each (src, dst) becomes a
     * delete-flagged record that cancels ONE earlier insert of the same
     * edge (multi-edges need one delete per copy). The records ride the
     * same CAS-reserve/ordered-publish log path as inserts, so deletes
     * and inserts from one session stay ordered. @p edges carries the
     * edges to delete with *plain* dst vids; the flagging happens here.
     * @return deletions accepted (always n).
     */
    virtual uint64_t
    delEdges(const Edge *edges, uint64_t n)
    {
        // Flag in bounded chunks so arbitrarily large batches never
        // allocate proportionally.
        Edge chunk[256];
        uint64_t done = 0;
        while (done < n) {
            const uint64_t take = std::min<uint64_t>(256, n - done);
            for (uint64_t i = 0; i < take; ++i)
                chunk[i] = Edge{edges[done + i].src,
                                asDelete(edges[done + i].dst)};
            addEdges(chunk, take);
            done += take;
        }
        return n;
    }

    /** NUMA node this session's edge log lives on (0 if unsharded). */
    virtual unsigned node() const { return 0; }

    /** Edges this session has logged so far. */
    virtual uint64_t edgesLogged() const = 0;

    /** Simulated nanoseconds this session spent logging. */
    virtual uint64_t loggingNs() const = 0;

    /**
     * Simulated nanoseconds of this session's full ingest wall:
     * loggingNs() plus any archive phases the session coordinated
     * inline (a client cannot log while it runs a phase itself). The
     * serving bench derives client-observed write latency from deltas
     * of this. Defaults to loggingNs() for engines without inline
     * archiving.
     */
    virtual uint64_t streamNs() const { return loggingNs(); }
};

/**
 * The engine-independent ingest + query interface (Table I). Also the
 * telemetry OpCostSource: an OpScope bracketing one operation on this
 * store diffs pmemCounters()/pmemAttribution()/compressionStats()
 * through the narrow interface below, keeping telemetry independent of
 * graph headers.
 */
class GraphStore : public GraphView, public telemetry::OpCostSource
{
  public:
    // --- Graph updating interfaces ---

    /**
     * Open a concurrent ingestion session. @p thread_hint selects the
     * NUMA partition the session binds to (hint % numNodes); pass the
     * client thread's index for round-robin spreading.
     */
    virtual std::unique_ptr<IngestSession>
    session(unsigned thread_hint = 0) = 0;

    // --- Consistent read views ---

    /**
     * Open a consistent point-in-time ReadView pinned to the store's
     * current epoch: it exposes exactly the edges published before the
     * call and may be queried from any number of threads while
     * sessions keep ingesting. Engines with epoch-tracked internals
     * (XPGraph) return zero-copy views whose readers never block
     * writers; the default materializes the view through the query
     * surface and therefore requires the store to be quiescent for the
     * duration of this call (not for the view's lifetime).
     */
    virtual std::unique_ptr<ReadView> openView();

    // --- Graph arranging interfaces ---

    /**
     * Drain the edge log(s) into the adjacency structures completely:
     * buffer + flush for XPGraph, archive for GraphOne. A sync point:
     * afterwards queries see every published update.
     */
    virtual void archiveAll() = 0;

    // --- Introspection ---

    virtual IngestStats ingestStats() const = 0;

    /**
     * Phase-consistent ingestStats(): safe to call while sessions and
     * the archiver are live. ingestStats() reads the relaxed stat
     * fields one by one, so a concurrent archive phase can leave the
     * copy mixing instants (e.g. bufferingPhases incremented but the
     * phase's bufferingNs not yet added); implementations override
     * this to read outside any in-flight phase (epoch validation in
     * XPGraph, the archive lock in GraphOne). Single-threaded callers
     * can keep using ingestStats().
     */
    virtual IngestStats snapshotStats() const { return ingestStats(); }

    virtual PcmCounters pmemCounters() const = 0;
    virtual MemoryUsage memoryUsage() const = 0;

    /**
     * Per-cause breakdown of the same traffic pmemCounters() reports:
     * one row per AccessCategory, summed across this store's devices.
     * The attribution increments live at the same code sites as the
     * PcmCounters increments, so snapshot().total() matches
     * pmemCounters() exactly on a quiescent store. Empty (all-zero)
     * when built with -DXPG_TELEMETRY=OFF.
     */
    virtual telemetry::AttributionSnapshot
    pmemAttribution() const
    {
        return {};
    }

    /**
     * Cumulative compressed-adjacency-chunk activity (DESIGN.md §11):
     * chunks/records written compressed, encoded vs raw bytes, decode
     * calls. All-zero for stores without the codec (the GraphOne
     * baselines) or with compression disabled.
     */
    virtual CompressionStats compressionStats() const { return {}; }

    /**
     * The hottest XPLines across this store's devices: top @p n by
     * total touches, merged from the per-device heat tables. Empty for
     * stores without an XPBuffer model (DRAM) or with telemetry OFF.
     */
    virtual std::vector<telemetry::LineHeatTable::HotLine>
    hotLines(unsigned n) const
    {
        (void)n;
        return {};
    }

    /**
     * Publish this store's cumulative stats and per-device counters
     * into the telemetry registry as gauges (no-op by default and with
     * -DXPG_TELEMETRY=OFF). Exporters call this right before taking a
     * metrics snapshot so gauges reflect the moment of export.
     */
    virtual void publishTelemetry() const {}

    /**
     * Current liveness verdict per background component (archiver,
     * compactor, ingest path, backpressure, epoch pins), evaluated on
     * demand — the watchdog monitor thread does not need to be
     * running. The default (engines without a watchdog) reports no
     * components, which reads as overall Ok.
     */
    virtual telemetry::HealthReport health() const { return {}; }

    // --- OpCostSource (per-operation cost scopes, DESIGN.md §15) ---

    /** This store is its own query backing store. */
    const GraphStore *backingStore() const override { return this; }

    PcmCounters opPcmCounters() const final { return pmemCounters(); }

    telemetry::AttributionSnapshot
    opAttribution() const final
    {
        return pmemAttribution();
    }

    telemetry::OpDecodeStats
    opDecodeStats() const final
    {
        const CompressionStats cs = compressionStats();
        return {cs.decodedRecords * sizeof(vid_t), cs.decodeCalls};
    }
};

} // namespace xpg

#endif // XPG_GRAPH_GRAPH_STORE_HPP
