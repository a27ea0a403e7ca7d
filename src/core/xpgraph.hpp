/**
 * @file
 * The XPGraph engine: an XPLine-friendly persistent-memory graph store
 * for large-scale evolving graphs (the paper's primary contribution).
 *
 * Data flows through three phases (S IV-A):
 *  - logging: edges are appended to a PMEM circular edge log — one log
 *    per modeled NUMA node, appended concurrently by the sessions bound
 *    to that node (atomic tail reservation + ordered publish);
 *  - buffering: batches of logged edges move into per-vertex DRAM
 *    buffers (hierarchical, pool-managed);
 *  - flushing: full vertex buffers (or, on thresholds, all of them) are
 *    written to PMEM adjacency chains as whole-XPLine streams.
 *
 * The engine is partitioned across modeled NUMA nodes (S III-D) and all
 * public interfaces of the paper's Table I are provided through the
 * engine-independent GraphStore surface.
 *
 * Threading (Fig.18/20): any number of IngestSessions — obtained from
 * session(threadHint) — may update concurrently from distinct threads;
 * each session appends to its NUMA-local partition's log. Archiving
 * (buffering + flushing) runs either inline at the thresholds on the
 * triggering session's thread (deterministic; the default) or pipelined
 * on a dedicated background archiver (config.pipelinedArchiving). The
 * sync points — bufferAllEdges()/flushAllVbufs()/archiveAll() and
 * declareQueryThreads() — establish the consistent frontier *live*
 * queries observe; live queries must not run concurrently with
 * archiving. To query while sessions keep ingesting, open a
 * point-in-time ReadView with openView(): views are pinned to an
 * archive-epoch boundary, never block writers, and never observe
 * half-published edges (DESIGN.md §12).
 */

#ifndef XPG_CORE_XPGRAPH_HPP
#define XPG_CORE_XPGRAPH_HPP

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/adjacency_store.hpp"
#include "core/log_window_index.hpp"
#include "core/config.hpp"
#include "core/recovery.hpp"
#include "core/stats.hpp"
#include "graph/circular_edge_log.hpp"
#include "graph/edge_sharding.hpp"
#include "graph/graph_store.hpp"
#include "graph/types.hpp"
#include "mempool/vertex_buffer_pool.hpp"
#include "pmem/pcm_counters.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"
#include "util/thread_shards.hpp"

namespace xpg {

/** Per-vertex DRAM state: the vertex buffer and the cached chain. */
struct VertexState
{
    std::byte *buf = nullptr; ///< pool-allocated vertex buffer
    uint32_t bufBytes = 0;    ///< current buffer layer size (0 = none)
    /// set when an epoch capture took buf (it held records then), so a
    /// retire while views are open must park it; cleared whenever the
    /// vertex's buffer is reset or replaced
    bool captured = false;
    VertexChain chain;        ///< DRAM mirror of the PMEM chain

    /**
     * Degree cache (invariant maintained at insert/flush/compact/
     * recovery): `records` counts every stored record of the vertex
     * (chain + buffer, including delete records); `tombstones` counts
     * the delete records among them. When tombstones == 0 the live
     * degree is exactly `records` — an O(1) answer; otherwise queries
     * fall back to a fully-charged visiting count.
     */
    uint32_t records = 0;
    uint32_t tombstones = 0;
};

// One cache line per vertex: memoryUsage().metaBytes counts these.
static_assert(sizeof(VertexState) == 64, "VertexState is one cache line");

/** Device capacity per node that comfortably fits the given workload. */
uint64_t recommendedBytesPerNode(const XPGraphConfig &config,
                                 uint64_t expected_edges);

/**
 * XPGraph / XPGraph-B / XPGraph-D (selected by XPGraphConfig).
 *
 * Updates come from any number of IngestSessions on distinct threads.
 * Queries may run from many threads once updates are quiescent (after
 * a sync point).
 */
class XPGraph : public GraphStore
{
  public:
    explicit XPGraph(const XPGraphConfig &config);

    /**
     * Re-open a crashed, file-backed instance: rebuilds DRAM indexes from
     * the persistent vertex index (validating every adjacency block and
     * truncating chains at the first torn/garbage block) and replays the
     * un-flushed windows of the per-node edge logs into fresh vertex
     * buffers (S III-B recovery). @p config must match the crashed
     * instance's geometry (superblock fingerprint check).
     *
     * With @p report == nullptr any inconsistency recovery cannot repair
     * (missing backing, corrupt superblock, config mismatch, corrupt
     * allocator tail or log header) is fatal. With a report, those return
     * nullptr with report->status/error set, and a successful recovery
     * fills the repair counters (ok() == true).
     */
    static std::unique_ptr<XPGraph> recover(const XPGraphConfig &config,
                                            RecoveryReport *report
                                            = nullptr);

    ~XPGraph() override;

    // --- Graph updating interfaces (Table I; sessions) ---

    /**
     * Open a concurrent ingestion session bound to NUMA partition
     * (thread_hint % numNodes): its appends go to that node's log, and
     * (when thread binding is on) the session binds its client thread to
     * the node on first use. Sessions are independent; close (destroy)
     * them before destroying the store.
     */
    std::unique_ptr<IngestSession>
    session(unsigned thread_hint = 0) override;

    // --- Graph querying interfaces (Table I) ---

    vid_t numVertices() const override { return config_.maxVertices; }

    /** Zero-copy visit of the live out-neighbors (flushed + buffered,
     *  tombstones applied); getNebrs* materialize through this. */
    uint32_t forEachNebrOut(vid_t v, NebrVisitor fn) const override;
    uint32_t forEachNebrIn(vid_t v, NebrVisitor fn) const override;

    /**
     * Open a snapshot-isolated point-in-time view (DESIGN.md §12).
     *
     * The view is pinned to the current archive epoch: it serves the
     * adjacency chains and vertex buffers as captured at the epoch
     * boundary plus the frozen log window [bufferedUpTo, head) at open
     * time, so it observes exactly the edges published before the call
     * — a consistent prefix per session. Opening takes the archive
     * lock briefly (capture is O(maxVertices), amortized by an epoch
     * cache across views of the same epoch); afterwards readers are
     * lock-free and never block IngestSessions. While any view is
     * open, log reclamation is floored at the oldest view's boundary
     * (a full log makes writers wait for a view to close — size the
     * log for the ingest burst, see waitForLogSpace) and retired
     * vertex buffers a capture holds park in a limbo list tagged with
     * the phase epoch that retired them; each close returns to the
     * pool every buffer retired before the oldest still-open view's
     * capture. Views must be destroyed before the store.
     */
    std::unique_ptr<ReadView> openView() override;

    /** O(1) when v has no pending tombstones (the common case). */
    uint32_t degreeOut(vid_t v) const override;
    uint32_t degreeIn(vid_t v) const override;
    bool hasFastDegrees() const override { return true; }
    uint64_t vertexWeight(vid_t v) const override;

    /** Raw records currently in v's DRAM vertex buffer. */
    uint32_t
    getNebrsBufOut(vid_t v, std::vector<vid_t> &out) const
    {
        return readLayer(Layer::Buffer, v, true, out);
    }
    uint32_t
    getNebrsBufIn(vid_t v, std::vector<vid_t> &out) const
    {
        return readLayer(Layer::Buffer, v, false, out);
    }

    /** Raw records in v's PMEM adjacency chain. */
    uint32_t
    getNebrsFlushOut(vid_t v, std::vector<vid_t> &out) const
    {
        return readLayer(Layer::Chain, v, true, out);
    }
    uint32_t
    getNebrsFlushIn(vid_t v, std::vector<vid_t> &out) const
    {
        return readLayer(Layer::Chain, v, false, out);
    }

    /** Out/in records of v among the non-buffered edges of the logs. */
    uint32_t
    getNebrsLogOut(vid_t v, std::vector<vid_t> &out) const
    {
        return readLayer(Layer::LogWindow, v, true, out);
    }
    uint32_t
    getNebrsLogIn(vid_t v, std::vector<vid_t> &out) const
    {
        return readLayer(Layer::LogWindow, v, false, out);
    }

    /** All non-buffered edges of the circular edge logs. */
    uint64_t getLoggedEdges(std::vector<Edge> &out) const;

    // --- Graph arranging interfaces (Table I) ---

    /** Buffer every non-buffered edge of the logs (sync point). */
    void bufferAllEdges();

    /** Flush every DRAM vertex buffer to PMEM (sync point). */
    void flushAllVbufs();

    /** bufferAllEdges() + flushAllVbufs(): the GraphStore sync point. */
    void archiveAll() override;

    // Each compaction entry point is one compaction pass on the calling
    // thread, recorded as one `compaction_pass` op (DESIGN.md §13).

    /** Merge v's adjacency chains into one block each, applying
     *  tombstones. */
    void compactAdjs(vid_t v);

    /** compactAdjs for every vertex holding records. */
    void compactAllAdjs();

    /**
     * Rewrite every chain whose tombstone share crossed the config
     * thresholds (compactTombstoneRatio / compactMinRecords), exactly
     * as the background compactor would. Deterministic entry point for
     * tests, the CLI, and benches; works with backgroundCompaction off.
     * Delete-free chains are never touched. @return chains rewritten.
     */
    uint64_t runCompactionPass();

    // --- NUMA / GraphStore machine questions ---

    int nodeOfOut(vid_t v) const override;
    /** NUMA node whose memory holds v's in-adjacency. */
    int nodeOfIn(vid_t v) const;
    unsigned numNodes() const override { return config_.numNodes; }
    bool queryBindingEnabled() const override { return config_.bindThreads; }

    /** Declare the number of concurrent query threads (read contention).
     *  Also a sync point: waits out any in-flight archive phase. */
    void declareQueryThreads(unsigned n) const override;

    // --- Introspection ---

    IngestStats stats() const;

    /**
     * Phase-consistent stats(): validates the archive-phase epoch
     * around the field reads, so the copy never mixes a phase's
     * partial updates (counter bumped, ns not yet added). Lock-free
     * unless phases run back-to-back, then falls back to the archive
     * lock.
     */
    IngestStats snapshotStats() const override;

    /**
     * Push the cumulative stats and every partition device's traffic
     * counters into the telemetry registry as labeled gauges. Call
     * before exporting a snapshot.
     */
    void publishTelemetry() const override;

    /**
     * Liveness verdict for the background components (archiver,
     * compactor, ingest path) plus the backpressure and view-pin
     * probes (DESIGN.md §14), evaluated against the host clock. A
     * change of the overall verdict since the previous call emits a
     * health_transition instant, and entering Stalled dumps a flight
     * record, once per transition: the caller's polling period is the
     * watchdog's.
     */
    telemetry::HealthReport health() const override;

    MemoryUsage memoryUsage() const override;
    /** Codec activity summed over every partition's out/in store. */
    CompressionStats compressionStats() const override;
    /**
     * Cumulative query-path counters (sealed-chain vs vertex-buffer vs
     * log-window records streamed, decode output, per-device media
     * reads) for round-level observability (DESIGN.md §15). Lock-free.
     */
    bool sampleQueryProbe(QueryProbe &out) const override;
    const XPGraphConfig &config() const { return config_; }
    VertexBufferPool &pool() { return *pool_; }

    /** msync all file backings (called before a simulated crash). */
    void syncBackings();

  private:
    class EpochView;
    friend class EpochView;
    struct EpochState;

    /** One direction's storage on one partition. */
    struct Side
    {
        std::unique_ptr<AdjacencyStore> store;
        std::vector<VertexState> states;
        /// one bit per slot that holds a tombstone and gained a record
        /// since the last compaction pass (the only slots whose
        /// candidacy can have changed); the pass clears what it visits.
        /// Concurrent buffer workers share words: relaxed atomics
        std::vector<std::atomic<uint64_t>> dirty;

        void
        markDirty(uint64_t slot)
        {
            const uint64_t bit = uint64_t{1} << (slot % 64);
            std::atomic<uint64_t> &word = dirty[slot / 64];
            if ((word.load(std::memory_order_relaxed) & bit) == 0)
                word.fetch_or(bit, std::memory_order_relaxed);
        }
    };

    /**
     * One NUMA partition: device, allocator, log, and its sides. Every
     * per-direction member is indexed 0 = out, 1 = in (the compaction
     * journal's side encoding).
     */
    struct Partition
    {
        std::unique_ptr<MemoryDevice> dev;
        std::unique_ptr<PmemAllocator> alloc;
        std::unique_ptr<CircularEdgeLog> log;
        std::unique_ptr<Side> sides[2]; ///< null where the side is absent
        uint64_t indexOff[2] = {0, 0};  ///< persistent vertex index
        uint64_t slots[2] = {0, 0};     ///< vertex slots per side
        uint64_t indexBytes = 0;        ///< both indexes, aligned
        /// Sessions currently bound to this partition (write contention).
        std::atomic<unsigned> sessions{0};
    };

    XPGraph(const XPGraphConfig &config, bool recovering,
            RecoveryReport *report);

    // layout / construction
    std::string backingPath(unsigned node) const;
    void computeLayout(unsigned node, Partition &part) const;
    /** @return false on a typed recovery failure (report filled). */
    bool initPartitions(bool recovering);
    /** Fill recoveryReport_ and return false, or fatal without one. */
    bool recoveryFail(RecoveryStatus status, const std::string &msg);
    void rebuildFromDevices(RecoveryReport *report);
    /** Successful recovery: bump + re-persist every superblock's
     *  generation stamp. */
    void bumpSuperblockGenerations();

    // placement: the partition holding v's out (else in) side, and v's
    // slot there (the same on both sides)
    unsigned owner(vid_t v, bool out) const;
    uint64_t slotOf(vid_t v) const;

    // --- session hooks (the session runs the append loop) ---

    uint64_t
    archiveThreshold() const override
    {
        return config_.bufferingThresholdEdges;
    }

    /**
     * Threshold crossing: inline mode runs a buffering phase if no other
     * session is archiving (returns true if it ran, adding the phase
     * cost to @p inline_ns); pipelined mode wakes the background
     * archiver (returns false — keep logging).
     */
    bool requestArchive(uint64_t &inline_ns) override;

    /** Block until @p node's log has a free slot (archive/flush runs);
     *  inline mode adds the phases this client ran to @p inline_ns. */
    void waitForLogSpace(unsigned node, uint64_t &inline_ns) override;

    /** Sessions count as writers on their partition's device. */
    void sessionOpened(unsigned node) override;
    void sessionClosed(unsigned node) override;

    // --- archiving phases (caller holds archiveMutex_) ---

    /** One buffering phase over a published-prefix snapshot. @p capped
     *  bounds the drain at bufferingThresholdEdges per node so
     *  threshold-triggered phases stay small and read the log hot;
     *  sync points pass false and drain to the snapshot head. */
    void runBufferingPhaseLocked(bool capped = false);
    /** Archive-phase ns charged so far (caller holds archiveMutex_). */
    uint64_t
    archivePhaseNsLocked() const
    {
        return bufferingNs_.load(std::memory_order_relaxed) +
               flushingNs_.load(std::memory_order_relaxed);
    }
    void runFlushAllLocked(bool release_buffers);
    void shardBatch();
    void bufferWorker(unsigned w);
    void flushWorker(unsigned w, bool release_buffers);
    void declareArchiveConcurrency();
    /** Writers per device between phases: the bound session count. */
    void declareIdleWriters();

    // --- background passes: the pipelined archiver and the compactor ---

    /**
     * A background thread that parks on @c cv under its own @c park
     * mutex until a pass is requested or it is stopped, then runs one
     * pass with archiveMutex_ held. A request takes only @c park, so it
     * is never lost between the thread's predicate check and its sleep,
     * and a logging session never waits for a running pass. The
     * heartbeat is null when the thread is off.
     */
    struct Background
    {
        std::thread thread;
        std::mutex park;
        std::condition_variable cv;
        bool stop = false;      ///< written under archiveMutex_ and park
        bool requested = false; ///< guarded by park
        telemetry::Heartbeat *hb = nullptr;

        /** Ask for a pass (no effect while the thread is off). */
        void
        request()
        {
            {
                std::lock_guard<std::mutex> lock(park);
                requested = true;
            }
            cv.notify_one();
        }
    };
    /** One pass, run with archiveMutex_ held through @p lock. */
    using Pass = std::function<void(std::unique_lock<std::mutex> &lock)>;

    void startBackground(Background &bg, const char *name, Pass pass);
    void stopBackground(Background &bg);
    /** One archiver pass (caller holds archiveMutex_). */
    void archivePassLocked();
    /**
     * The one compaction pass (caller holds archiveMutex_), serial on
     * the calling thread: one `compaction_pass` record, every access
     * blamed on Compaction. For each partition's side,
     * @p visit(node, d, side, rewrite) names the slots to rewrite, in
     * order, by calling rewrite(slot); the phase is entered at the
     * first. @return chains rewritten.
     */
    template <typename Visit>
    uint64_t compactPassLocked(Visit &&visit);
    /** The pass over the dirty-bit candidates: runCompactionPass() and
     *  the compactor thread (caller holds archiveMutex_). */
    uint64_t compactCandidatesLocked();
    /** Journaled COW rewrite of the chain in @p slot of @p part's side
     *  @p d (caller holds archiveMutex_ inside a phase), armed in
     *  compaction-journal entry 0. @return whether a chain was
     *  rewritten (false for a slot that holds none). */
    bool compactSlotJournaled(Partition &part, unsigned d, uint64_t slot);
    /** Resolve armed compaction-journal entries after a crash: count
     *  them into @p report (CompactionTorn), classify committed vs
     *  in-flight by the persisted index head, and scrub the entries. */
    void scanCompactionJournals(RecoveryReport *report);

    /** Archive work's virtual slots: archiveThreads over the nodes. */
    using Slot = VirtualSlots::Slot;
    VirtualSlots
    archiveSlots() const
    {
        return {config_.archiveThreads, config_.numNodes};
    }

    /** Run @p fn(slot) for each archive slot worker @p w executes
     *  (w, w + archiveThreads, ...), the worker bound to the slot's
     *  node when queryBindingEnabled(); otherwise the executor's
     *  workers stay unbound, as they start. */
    template <typename F>
    void forWorkerSlots(unsigned w, F &&fn);

    // per-edge work
    void insertBuffered(Side &side, uint64_t slot, vid_t nebr);
    /**
     * Fold the pool's live bytes into vbufPeakBytes_. Only
     * insertBuffered() allocates buffers, in buffering phases and in
     * recovery's replay, and live bytes only fall between those; so a
     * sample at the end of each, before a pressure flush or a view
     * close can free, is the high-water mark (short of the old block a
     * concurrent growBuffer() briefly holds twice), taken on the
     * coordinating thread whatever order the workers ran in.
     */
    void
    noteVbufPeakLocked()
    {
        vbufPeakBytes_ = std::max(vbufPeakBytes_, pool_->bytesLive());
    }
    void growBuffer(VertexState &st);
    void flushVertex(Side &side, uint64_t slot, VertexState &st);
    /**
     * Retire @p st's buffer, at a flush (@p keep: the vertex goes on
     * using it) or on replacement. A buffer an open view's capture
     * holds parks in the limbo and leaves the vertex without one
     * (st.bufBytes kept, so it restarts on the same layer); any other
     * is reset in place when kept and returned to the pool otherwise.
     * Phase workers call this concurrently: limbo_ has its own lock.
     */
    void retireBuffer(VertexState &st, bool keep);

    // --- telemetry / snapshot consistency ---

    /** Resolve the cached metric/histogram handles (constructor). */
    void initTelemetry();
    /** Outermost-phase epoch bump; caller holds archiveMutex_. */
    void phaseEnterLocked();
    void phaseExitLocked();

    // --- ops plane (watchdog / events; DESIGN.md §14) ---

    /** Register the heartbeats and probes with watchdog_ (constructor,
     *  before the background threads start). */
    void initWatchdog();
    /** Writer entered/left a log-full wait in waitForLogSpace: track
     *  the sustained-backpressure window and emit entry/exit events. */
    void enterBackpressure(unsigned node);
    void exitBackpressure(unsigned node);
    /** Sustained log-full backpressure: Degraded past the configured
     *  window, Stalled past 4x (writers blocked that long usually mean
     *  a wedged archiver or a view pinning reclamation). */
    telemetry::ComponentHealth backpressureProbe(uint64_t now_ns) const;
    /** Age of the oldest open ReadView (epoch pin). Capped at
     *  Degraded: a long-open view is legal, but it floors log
     *  reclamation and deserves an operator's attention. */
    telemetry::ComponentHealth viewPinProbe(uint64_t now_ns) const;

    // --- query helpers: one stream per layer (DESIGN.md §6) ---

    /** Where v's out (else in) records live: the side (null when its
     *  partition has none) and the slot in it. */
    std::pair<const Side *, uint64_t> locate(vid_t v, bool out) const;
    /** Live records of v (chain + buffer) through visitLiveRecords. */
    template <typename F>
    uint32_t forEachLive(vid_t v, bool out, F &&fn) const;
    uint32_t degreeOf(vid_t v, bool out) const;
    /**
     * The stored records of one vertex, delete records included: its
     * chain (a captured mirror for a view: @p frozen) then the first
     * @p buffered records of @p buf. Bumps the query record counters.
     */
    template <typename F>
    uint32_t streamStored(const Side &side, const VertexChain &chain,
                          bool frozen, const std::byte *buf,
                          uint32_t buffered, F &&emit) const;
    /**
     * Append v's out (else in) records in every node's log window to
     * @p recs, in log order per node. @p window(node, low, high) sets
     * the node's bounds and returns its index, or null to skip it.
     * @return records appended.
     */
    template <typename Window>
    uint32_t gatherLogWindow(vid_t v, bool out, Window &&window,
                             std::vector<vid_t> &recs) const;
    /** The Table I per-layer getters' raw records of one layer. */
    enum class Layer { Buffer, Chain, LogWindow };
    uint32_t readLayer(Layer layer, vid_t v, bool out,
                       std::vector<vid_t> &recs) const;
    /** Bump the query-path record counters. One thread-private add
     *  per non-zero layer per vertex visit — counts are batched per
     *  visit, never per neighbor. */
    void
    noteQueryRecords(uint64_t sealed, uint64_t buffered) const
    {
        if (sealed != 0)
            queryRecords_.add(kSealedRecords, sealed);
        if (buffered != 0)
            queryRecords_.add(kBufferRecords, buffered);
    }
    /** Same, for records served from the frozen log window. */
    void
    noteQueryWindowRecords(uint64_t n) const
    {
        if (n != 0)
            queryRecords_.add(kLogWindowRecords, n);
    }
    /** Lazily create + extend node's log-window index (first query). */
    LogWindowIndex &logIndex(unsigned node) const;

    // --- read views (openView; guarded by archiveMutex_) ---

    /** Capture (or reuse from epochCache_) the per-vertex state at the
     *  current epoch; caller holds archiveMutex_, no phase running. */
    std::shared_ptr<const EpochState> captureEpochLocked();
    /** Unregister view @p id, recompute log floors, and free every
     *  parked buffer no open view can reference (at the last close:
     *  all of them, and the epoch cache is dropped). */
    void closeView(uint64_t id);
    /** Re-derive every log's reclaim floor from the oldest open view. */
    void recomputeReclaimFloorsLocked();

    XPGraphConfig config_;
    /** recover()'s report while the recovering constructor runs; null on
     *  plain construction (typed failures become fatal). */
    RecoveryReport *recoveryReport_ = nullptr;
    std::vector<Partition> parts_;
    mutable std::vector<std::unique_ptr<LogWindowIndex>> logIndexes_;
    mutable std::mutex logIndexMutex_;
    std::unique_ptr<VertexBufferPool> pool_;
    std::unique_ptr<ParallelExecutor> executor_;

    /**
     * Serializes archive phases (buffering/flushing/compaction) and the
     * scratch below; sessions take it only at the thresholds (try_lock)
     * or when their log is full. The logging fast path is lock-free.
     */
    mutable std::mutex archiveMutex_;
    std::condition_variable spaceCv_; ///< wakes log-full sessions
    Background archiver_;  ///< config.pipelinedArchiving
    Background compactor_; ///< config.backgroundCompaction (§13)
    uint64_t archivePasses_ = 0; ///< archiver passes run (archiveMutex_)
    uint64_t viewCloses_ = 0;    ///< views closed (archiveMutex_)

    // buffering-phase scratch (guarded by archiveMutex_)
    std::vector<Edge> batch_;
    std::vector<uint64_t> phaseUpTo_; ///< per-node markBuffered target
    /// per (side, node): the shard lists of the side's inserts, and
    /// their assignment to the node's virtual slots
    std::vector<std::vector<std::vector<Edge>>> shards_[2];
    std::vector<std::vector<ShardAssignment>> assign_[2];

    // stats (relaxed atomics: sessions + archiver update concurrently)
    // Phase totals, each fed only by its phases' OpScope records.
    std::atomic<uint64_t> bufferingNs_{0};
    std::atomic<uint64_t> flushingNs_{0};
    std::atomic<uint64_t> recoveryNs_{0};
    std::atomic<uint64_t> edgesBuffered_{0};
    std::atomic<uint64_t> bufferingPhases_{0};
    std::atomic<uint64_t> flushAllPhases_{0};
    std::atomic<uint64_t> vbufFlushes_{0};
    std::atomic<uint64_t> compactionPasses_{0};
    std::atomic<uint64_t> compactionSlots_{0};
    std::atomic<uint64_t> compactionBytesReclaimed_{0};
    std::atomic<uint64_t> compactionRecordsDropped_{0};
    /// high-water vertex-buffer bytes (guarded by archiveMutex_)
    uint64_t vbufPeakBytes_ = 0;

    // --- query-path counters (round observability, DESIGN.md §15) ---
    // Mutable: bumped on the const query paths (forEachLive, the view
    // visit paths), in per-thread cells summed on read.
    enum : unsigned
    {
        kSealedRecords,
        kBufferRecords,
        kLogWindowRecords,
    };
    mutable ShardedCounters<3> queryRecords_;

    /**
     * Archive-phase epoch for snapshotStats(): odd while an archive
     * phase (buffering/flush, possibly nested) is running, even when
     * quiescent. phaseDepth_ tracks the nesting and is guarded by
     * archiveMutex_ like the phases themselves.
     */
    std::atomic<uint64_t> phaseEpoch_{0};
    unsigned phaseDepth_ = 0;

    // --- read-view registry (guarded by archiveMutex_ unless noted) ---

    /** Last captured epoch state, reused while phaseEpoch_ is unchanged
     *  (many views of one quiescent epoch share a single capture). */
    std::shared_ptr<const EpochState> epochCache_;
    /** An open view's pin: its per-node log boundaries, its capture's
     *  phase epoch and its host open time. */
    struct ViewPin
    {
        std::vector<uint64_t> boundary;
        uint64_t epoch = 0;
        uint64_t openedNs = 0;
    };
    /**
     * Open views by id. A later view opens at a later (or the same)
     * epoch and host time, so begin() is the oldest: it sets the
     * reclaim floors, the limbo's reclaim epoch and oldestViewNs_.
     * Phase workers test empty() while the coordinator holds
     * archiveMutex_, which every writer needs, so those reads race
     * with nothing.
     */
    std::map<uint64_t, ViewPin> views_;
    uint64_t nextViewId_ = 1;
    /** A vertex buffer retired while an open view's capture held it,
     *  and the (odd) phase epoch that retired it. */
    struct Parked
    {
        std::byte *buf;
        uint32_t bytes;
        uint64_t epoch;
    };
    /** Parked buffers in retirement order, so in epoch order: phases
     *  run one at a time. Pushed concurrently by a phase's workers
     *  under limboMutex_; closeView frees a prefix under
     *  archiveMutex_. */
    mutable std::mutex limboMutex_;
    std::deque<Parked> limbo_;

    // --- ops plane (DESIGN.md §14) ---

    /** Per-store health registry; heartbeats registered in
     *  initWatchdog(). Mutable: health() reacts to transitions. */
    mutable telemetry::Watchdog watchdog_;
    /** Host ns when the current log-full backpressure window opened
     *  (0 = no writer blocked). Maintained by enter/exitBackpressure. */
    std::atomic<uint64_t> backpressureSinceNs_{0};
    std::atomic<unsigned> backpressureWaiters_{0};
    std::atomic<uint64_t> backpressureEpisodes_{0};
    /** Host ns when the oldest currently-open view was opened (0 =
     *  none). Written under archiveMutex_ at open/close; the view-pin
     *  probe reads it lock-free so health() never blocks on the
     *  archive lock. */
    std::atomic<uint64_t> oldestViewNs_{0};

    // cached telemetry handles
    telemetry::ShardedHistogram *telBufferPhaseHist_ = nullptr;
    telemetry::ShardedHistogram *telFlushPhaseHist_ = nullptr;
    telemetry::ShardedHistogram *telRecoveryRebuildHist_ = nullptr;
    telemetry::ShardedHistogram *telRecoveryReplayHist_ = nullptr;
};

} // namespace xpg

#endif // XPG_CORE_XPGRAPH_HPP
