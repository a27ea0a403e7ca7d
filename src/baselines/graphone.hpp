/**
 * @file
 * Reimplementation of the GraphOne hybrid graph store (Kumar & Huang,
 * FAST'19), the paper's comparison baseline (S II-B, S V-A).
 *
 * GraphOne keeps the newest edges in a circular edge log and periodically
 * *archives* them into per-vertex adjacency chunk chains with a global
 * batched edge-centric pass: count per-vertex degree increments, allocate
 * chunk space, then append each edge's neighbor id individually — a 4-byte
 * random write per edge per direction. On DRAM that pattern is harmless;
 * on PMEM it is the read/write-amplification disaster the paper measures
 * (Fig.3), which XPGraph's vertex-centric buffering removes.
 *
 * Three variants (selected by GraphOneConfig::variant):
 *  - Dram ("GraphOne-D"): everything on the DRAM model.
 *  - Pmem ("GraphOne-P"): edge log + adjacency on the PMEM model
 *    (pmem_map_file-style mmap; metadata stays in DRAM), threads unbound.
 *  - Nova ("GraphOne-N"): adjacency accessed through file I/O on a NOVA-
 *    style PMEM file system — every access additionally pays the VFS and
 *    per-block file-system cost.
 */

#ifndef XPG_BASELINES_GRAPHONE_HPP
#define XPG_BASELINES_GRAPHONE_HPP

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "graph/circular_edge_log.hpp"
#include "graph/edge_sharding.hpp"
#include "graph/graph_store.hpp"
#include "graph/types.hpp"
#include "pmem/memory_device.hpp"
#include "pmem/pmem_allocator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace xpg {

/** Which hardware the baseline runs on. */
enum class GraphOneVariant
{
    Dram,      ///< GraphOne-D: DRAM-resident (volatile)
    Pmem,      ///< GraphOne-P: PMEM via mmap (Ext4-DAX)
    Nova,      ///< GraphOne-N: PMEM via file I/O on NOVA
    MemoryMode ///< GraphOne-D on an Optane Memory-Mode system (Fig.12)
};

/** Baseline configuration. */
struct GraphOneConfig
{
    vid_t maxVertices = 0;
    GraphOneVariant variant = GraphOneVariant::Pmem;
    /** Devices the (interleaved) memory spans; threads are unbound. */
    unsigned numNodes = 2;
    uint64_t bytesPerNode = 0;
    uint64_t memoryModeCacheBytes = 32ull << 20;
    uint64_t elogCapacityEdges = 1ull << 20;
    /** Non-archived edges that trigger an archive phase (paper: 2^16;
     *  2^27 reproduces GraphOne's recovery-style bulk archiving). */
    uint64_t archiveThresholdEdges = 1ull << 16;
    unsigned archiveThreads = 16;
    /**
     * Directory for the Pmem variant's backing file; empty = volatile.
     * A file-backed GraphOne logs durably (the edge log persists its
     * slots and dual checksummed header) so recover() can re-archive the
     * log — GraphOne's adjacency metadata is DRAM-resident, so its
     * recovery story IS re-archiving (FAST'19 S 3.4).
     */
    std::string backingDir;
};

/** Device bytes per node that comfortably fit the workload. */
uint64_t graphoneRecommendedBytesPerNode(const GraphOneConfig &config,
                                         uint64_t expected_edges);

/**
 * The GraphOne baseline store.
 *
 * Threading: GraphOne keeps ONE shared edge log (on device 0 for the
 * PMEM variants), so concurrent sessions all reserve slots in the same
 * log with an atomic tail CAS and contend on the same device from
 * unbound threads — the NUMA-oblivious design the paper's Fig.20
 * scaling comparison punishes. Archiving runs inline (under the archive
 * mutex) on whichever client crosses the threshold.
 */
class GraphOne : public GraphStore
{
  public:
    explicit GraphOne(const GraphOneConfig &config);

    /**
     * Re-open a crashed, file-backed Pmem-variant instance: re-attaches
     * the edge log (CircularEdgeLog::tryRecover), rewinds its buffered
     * marker to the oldest edge still in the ring, and re-archives that
     * window into fresh (DRAM) adjacency chains. Requires the log not
     * to have wrapped past un-archivable edges (size elogCapacityEdges
     * to the workload). Fatal on a corrupt header or missing backing
     * file; @p config must match the crashed instance's.
     */
    static std::unique_ptr<GraphOne> recover(const GraphOneConfig &config);

    // --- updates (sessions) ---

    /** Open a concurrent ingestion session (shared log; unbound). */
    std::unique_ptr<IngestSession>
    session(unsigned thread_hint = 0) override;

    /** Archive every non-archived edge of the log (in threshold-sized
     *  batches, as normal operation would). A sync point. */
    void archiveAll() override;

    /** Adjust the archive threshold/batch size at runtime (used by the
     *  phase-separation and recovery experiments). */
    void
    setArchiveThreshold(uint64_t edges)
    {
        config_.archiveThresholdEdges = edges;
    }

    // --- GraphView ---
    vid_t numVertices() const override { return config_.maxVertices; }
    uint32_t forEachNebrOut(vid_t v, NebrVisitor fn) const override;
    uint32_t forEachNebrIn(vid_t v, NebrVisitor fn) const override;
    uint32_t degreeOut(vid_t v) const override;
    uint32_t degreeIn(vid_t v) const override;
    bool hasFastDegrees() const override { return true; }
    uint64_t vertexWeight(vid_t v) const override;
    void declareQueryThreads(unsigned n) override;

    /**
     * Point-in-time view: materialized through the query surface under
     * the archive lock, so archive phases are excluded while the copy
     * is taken and the result is a consistent archived-state snapshot
     * stamped with the archive generation. Freshness caveat (documented
     * divergence from XPGraph): GraphOne's query surface — and hence
     * its views — exposes archived edges only; logged-but-unarchived
     * edges become visible after the next archive phase. Sessions keep
     * logging while the view materializes, but one that fills the log
     * blocks until the copy completes (the archiver needs the lock).
     */
    std::unique_ptr<ReadView> openView() override;

    // --- introspection ---
    IngestStats stats() const;
    IngestStats ingestStats() const override { return stats(); }

    /**
     * Phase-consistent stats(): archive phases run under archiveMutex_
     * and mutate several stat atomics mid-phase, so a concurrent
     * stats() can mix instants; this serializes against them.
     */
    IngestStats snapshotStats() const override;

    /** Push stats + per-device counters into the telemetry registry as
     *  store="graphone" gauges. */
    void publishTelemetry() const override;

    MemoryUsage memoryUsage() const override;
    const GraphOneConfig &config() const { return config_; }

  private:
    /** One chunk of a vertex's adjacency (metadata in DRAM). */
    struct Chunk
    {
        uint64_t off;      ///< device offset of the records
        uint32_t capacity; ///< record capacity
        uint32_t count;    ///< records stored
        unsigned device;   ///< owning device index
    };

    /** Per-vertex adjacency metadata (DRAM, like GraphOne's). */
    struct VertexMeta
    {
        std::vector<Chunk> chunks;
        uint32_t records = 0;    ///< stored records (incl. deletes)
        uint32_t tombstones = 0; ///< delete records among them
    };

    GraphOne(const GraphOneConfig &config, bool recovering);

    /** Resolve cached telemetry handles. */
    void initTelemetry();

    std::string backingPath(unsigned node) const;
    void chargeFileIo(uint64_t bytes) const;
    void ensureCapacity(VertexMeta &meta, uint32_t increment);
    void appendRecord(VertexMeta &meta, vid_t record);

    // --- session hooks (the session runs the append loop) ---

    uint64_t
    archiveThreshold() const override
    {
        return config_.archiveThresholdEdges;
    }

    /** Threshold crossing: run an archive phase inline unless another
     *  session is archiving (then keep logging). */
    bool requestArchive(uint64_t &inline_ns) override;

    /** Shared log full: archive, waiting for whoever already is. */
    void waitForLogSpace(unsigned node, uint64_t &inline_ns) override;

    void sessionOpened(unsigned node) override;
    void sessionClosed(unsigned node) override;
    void declareLogWriters();

    void runArchivePhaseLocked();
    void archiveWorker(unsigned w);
    template <typename F>
    uint32_t visitVertex(const VertexMeta &meta, F &&fn) const;
    uint32_t degreeOf(const VertexMeta &meta) const;

    GraphOneConfig config_;
    std::vector<std::unique_ptr<MemoryDevice>> devices_;
    std::vector<std::unique_ptr<PmemAllocator>> allocators_;
    /** GraphOne-N keeps its log in DRAM, away from the file system. */
    std::unique_ptr<MemoryDevice> novaLogDevice_;
    MemoryDevice *logDevice_ = nullptr;
    std::unique_ptr<ParallelExecutor> executor_;

    /// per direction (0 = out, 1 = in): per-vertex adjacency metadata
    std::vector<VertexMeta> meta_[2];

    /**
     * The one shared edge log, XPGraph's CircularEdgeLog: sessions
     * reserve with a CAS on the tail and publish in order, exactly like
     * XPGraph's per-node logs — but every thread contends on this one
     * region. Battery-backed semantics: an archive phase's markBuffered
     * frees its slots.
     */
    std::unique_ptr<CircularEdgeLog> log_;
    std::atomic<uint64_t> chunkCounter_{0};

    /** Serializes archive phases and the scratch below. */
    mutable std::mutex archiveMutex_;

    // archive-phase scratch (guarded by archiveMutex_); the shard lists
    // and their worker assignment are per direction, like meta_
    std::vector<Edge> batch_;
    std::vector<std::vector<Edge>> shards_[2];
    std::vector<ShardAssignment> assign_[2];

    // stats (relaxed atomics: updated from concurrent sessions)
    std::atomic<uint64_t> archivingNs_{0};
    std::atomic<uint64_t> edgesArchived_{0};
    std::atomic<uint64_t> archivePhases_{0};

    // telemetry handles
    telemetry::ShardedHistogram *telArchivePhaseHist_ = nullptr;
    telemetry::ShardedHistogram *telRecoveryHist_ = nullptr;
};

} // namespace xpg

#endif // XPG_BASELINES_GRAPHONE_HPP
