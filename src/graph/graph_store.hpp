/**
 * @file
 * The stable ingest + query interface implemented by every engine
 * (XPGraph and the GraphOne baselines): the paper's Table I update
 * methods, the thread-safe session surface, the arranging entry point,
 * the GraphView query surface, and what query scheduling asks about the
 * machine behind it. Benches and tests drive all engines through this
 * one polymorphic harness instead of engine-specific call sites.
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
#include <atomic>
#include <memory>
#include <vector>

#include "core/stats.hpp"
#include "graph/graph_view.hpp"
#include "graph/read_view.hpp"
#include "graph/types.hpp"
#include "pmem/fault_plan.hpp"
#include "pmem/pcm_counters.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/op_scope.hpp"
#include "telemetry/watchdog.hpp"

namespace xpg {

class CircularEdgeLog;
class GraphStore;
class MemoryDevice;

/** Trace spans only for appends of at least this many edges:
 *  single-edge addEdge loops would flood the ring with sub-noise
 *  events. */
inline constexpr uint64_t kTraceAppendMinEdges = 64;

/**
 * A lightweight, single-threaded handle for one client thread's updates.
 * Different sessions may be used from different threads concurrently;
 * they append to the store's registered edge logs with an atomic
 * reservation (one log per NUMA node in XPGraph, one shared log in
 * GraphOne). The session runs the append loop for every engine; the
 * engine supplies only what happens at the archive threshold and on a
 * full log (GraphStore's session hooks). The session keeps the
 * per-stream statistics and folds them into the store on close
 * (destruction).
 */
class IngestSession
{
  public:
    ~IngestSession();

    IngestSession(const IngestSession &) = delete;
    IngestSession &operator=(const IngestSession &) = delete;

    /** Log one edge insertion. */
    void
    addEdge(vid_t src, vid_t dst)
    {
        const Edge e{src, dst};
        addEdges(&e, 1);
    }

    /** Log a batch of edges. @return edges accepted (always n). */
    uint64_t addEdges(const Edge *edges, uint64_t n);

    /** Log one edge deletion (tombstone record). */
    void
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
    uint64_t
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
    unsigned node() const { return node_; }

    /** Edges this session has logged so far. */
    uint64_t edgesLogged() const { return edgesLogged_; }

    /** Simulated nanoseconds this session spent logging. */
    uint64_t loggingNs() const { return loggingNs_; }

    /**
     * Simulated nanoseconds of this session's full ingest wall:
     * loggingNs() plus any archive phases the session coordinated
     * inline (a client cannot log while it runs a phase itself). The
     * serving bench derives client-observed write latency from deltas
     * of this.
     */
    uint64_t streamNs() const { return streamNs_; }

  private:
    friend class GraphStore;
    IngestSession(GraphStore &store, unsigned node);

    GraphStore &store_;
    unsigned node_;
    unsigned id_ = 0; ///< 1-based open order (stable telemetry label)
    bool threadNamed_ = false;
    telemetry::ShardedHistogram *telAppendHist_ = nullptr;
    uint64_t edgesLogged_ = 0;
    uint64_t loggingNs_ = 0;
    uint64_t streamNs_ = 0; ///< loggingNs_ + inline archive phases
};

/**
 * The engine-independent ingest + query interface (Table I). Also the
 * telemetry OpCostSource: an OpScope bracketing one operation on this
 * store diffs pmemAttribution()/compressionStats() through the narrow
 * interface below, keeping telemetry independent of graph headers.
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
     * writers; GraphOne materializes the view through its query
     * surface under its archive lock.
     */
    virtual std::unique_ptr<ReadView> openView() = 0;

    // --- The machine behind the query surface ---
    // The query driver asks these of view.backingStore(), so a kernel
    // on a view and one on its store schedule and probe alike.

    /** NUMA node whose memory holds v's out-adjacency (query binding). */
    virtual int nodeOfOut(vid_t) const { return 0; }

    /** Number of NUMA nodes data is spread over. */
    virtual unsigned numNodes() const { return 1; }

    /** Whether query threads should bind to nodeOfOut(). */
    virtual bool queryBindingEnabled() const { return false; }

    /** Declare the number of concurrent query threads (read contention). */
    virtual void declareQueryThreads(unsigned) const {}

    /**
     * Sample the store's cumulative query-path counters into the
     * argument. Stores without the instrumentation return false and
     * leave it untouched; consumers then skip media-level round stats.
     * The counters are store-global: reads through the store's views
     * move them too.
     */
    virtual bool sampleQueryProbe(QueryProbe &) const { return false; }

    // --- Graph arranging interfaces ---

    /**
     * Drain the edge log(s) into the adjacency structures completely:
     * buffer + flush for XPGraph, archive for GraphOne. A sync point:
     * afterwards queries see every published update.
     */
    virtual void archiveAll() = 0;

    // --- Introspection ---

    /**
     * Cumulative ingest statistics, safe to read while sessions and
     * the archiver are live: the engines keep them in relaxed atomics
     * that a concurrent archive phase updates one by one, so they read
     * outside any in-flight phase (epoch validation in XPGraph, the
     * archive lock in GraphOne) and never mix a phase's instants.
     */
    virtual IngestStats snapshotStats() const = 0;

    /** Device counters (PCM-equivalent, Fig.13) summed over every
     *  registered device. */
    PcmCounters pmemCounters() const;
    virtual MemoryUsage memoryUsage() const = 0;

    /**
     * Per-cause breakdown of the same traffic pmemCounters() reports:
     * one row per AccessCategory, summed across the same devices. The
     * attribution increments live at the same code sites as the
     * PcmCounters increments, so snapshot().total() matches
     * pmemCounters() exactly on a quiescent store.
     */
    telemetry::AttributionSnapshot pmemAttribution() const;

    /**
     * Cumulative compressed-adjacency-chunk activity (DESIGN.md §11):
     * chunks/records written compressed, encoded vs raw bytes, decode
     * calls. All-zero for stores without the codec (the GraphOne
     * baselines) or with compression disabled.
     */
    virtual CompressionStats compressionStats() const { return {}; }

    /**
     * The hottest XPLines across this store's devices: top @p n by
     * total touches, merged from the per-device heat tables. Line
     * indices are device-local, so each entry names its device's NUMA
     * node, and (node, line) identifies a line. Empty for stores
     * without an XPBuffer model (DRAM).
     */
    std::vector<telemetry::LineHeatTable::HotLine>
    hotLines(unsigned n) const;

    // --- fault injection (crash-sweep tests; see pmem/fault_plan.hpp) ---

    /**
     * Arm every device with one shared FaultInjector built from
     * @p plan: a single machine-wide power loss, triggered by the Nth
     * media write on any device. Returns the injector so the caller can
     * poll crashed(). Volatile device kinds ignore the injection.
     */
    std::shared_ptr<FaultInjector> injectFaults(const FaultPlan &plan);

    /**
     * Simulate the power loss: every device discards its unflushed
     * XPBuffer lines and reverts in-flight (post-crash) stores to the
     * last media-durable image. The in-DRAM engine state is garbage
     * afterwards — destroy the store and recover the engine.
     */
    void powerCycle();

    /**
     * Publish this store's cumulative stats and per-device counters
     * into the telemetry registry as gauges (no-op by default).
     * Exporters call this right before taking a metrics snapshot so
     * gauges reflect the moment of export.
     */
    virtual void publishTelemetry() const {}

    /**
     * Current liveness verdict per background component (archiver,
     * compactor, ingest path, backpressure, epoch pins), evaluated on
     * demand; an engine with a watchdog reacts here to a change of the
     * overall verdict. The default (engines without a watchdog)
     * reports no components, which reads as overall Ok.
     */
    virtual telemetry::HealthReport health() const { return {}; }

    // --- OpCostSource (per-operation cost scopes, DESIGN.md §15) ---

    /** This store is its own query backing store. */
    const GraphStore *backingStore() const override { return this; }

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

  protected:
    /** @param store_label The store's telemetry label ("xpgraph"). */
    explicit GraphStore(const char *store_label) : storeLabel_(store_label)
    {
    }

    /** Add @p dev to the devices the counters, attribution, heat and
     *  fault surfaces above span. Engines register each device once,
     *  at construction; the engine owns it and keeps it alive. */
    void registerDevice(MemoryDevice &dev) { devices_.push_back(&dev); }

    /** Add @p log as the edge log of node logs_.size(): sessions bound
     *  to that node append to it, and the archive threshold counts its
     *  non-buffered edges. Engines register each log once, at
     *  construction, in node order; the engine owns it. */
    void registerEdgeLog(CircularEdgeLog &log) { logs_.push_back(&log); }

    /** A liveness cell every session beats once per append call. */
    void
    registerIngestHeartbeat(telemetry::Heartbeat &hb)
    {
        ingestHeartbeat_ = &hb;
    }

    /** A session bound to @p node: what session() hands out. */
    std::unique_ptr<IngestSession> openSession(unsigned node);

    // --- session hooks: the engine's half of an IngestSession ---

    /** A session bound to @p node opened (already counted open). */
    virtual void sessionOpened(unsigned node) = 0;

    /** Non-buffered edges, summed over the registered logs, at which a
     *  session calls requestArchive() before appending more. */
    virtual uint64_t archiveThreshold() const = 0;

    /**
     * The logs reached archiveThreshold(). Either archive inline on the
     * calling session's thread, add the phases' simulated ns to
     * @p inline_ns and return true (the session re-tests the
     * threshold), or leave the draining to someone else and return
     * false (the session keeps logging).
     */
    virtual bool requestArchive(uint64_t &inline_ns) = 0;

    /** @p node's log is full: return once a slot may be free, adding
     *  the simulated ns of any phases run inline to @p inline_ns. */
    virtual void waitForLogSpace(unsigned node, uint64_t &inline_ns) = 0;

    /** A session bound to @p node closed (no longer counted open). */
    virtual void sessionClosed(unsigned node) = 0;

    /** Sessions currently open on this store. */
    unsigned
    openSessions() const
    {
        return openSessions_.load(std::memory_order_relaxed);
    }

    /** The session-fed IngestStats fields (logging totals, slowest
     *  stream, sessions opened); the engine fills in the rest. */
    IngestStats sessionStats() const;

  private:
    friend class IngestSession;

    const char *storeLabel_;
    std::vector<MemoryDevice *> devices_;
    std::vector<CircularEdgeLog *> logs_; ///< indexed by session node
    telemetry::Heartbeat *ingestHeartbeat_ = nullptr;

    // Session bookkeeping (relaxed atomics: sessions open, append and
    // close concurrently).
    std::atomic<uint64_t> loggingNs_{0}; ///< sum over all streams
    std::atomic<uint64_t> edgesLogged_{0};
    std::atomic<uint64_t> sessionNsMax_{0}; ///< slowest session: logging
    std::atomic<uint64_t> streamNsMax_{0};  ///< + inline archiving
    std::atomic<uint64_t> sessionsOpened_{0};
    std::atomic<unsigned> openSessions_{0};
};

} // namespace xpg

#endif // XPG_GRAPH_GRAPH_STORE_HPP
