#include "core/xpgraph.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "core/vertex_buffer.hpp"
#include "util/checksum.hpp"
#include "graph/tombstones.hpp"
#include "pmem/dram_device.hpp"
#include "pmem/numa_topology.hpp"
#include "pmem/ssd_device.hpp"
#include "pmem/xpline.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/logging.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

namespace {

/** Persistent per-device superblock (offset 0). */
struct Superblock
{
    uint64_t magic;
    uint32_t version;
    uint32_t node;
    uint32_t numNodes;
    uint32_t placement;
    uint64_t maxVertices;
    uint64_t logOff; ///< this node's edge-log region
    uint64_t logCapacityEdges;
    uint64_t outIndexOff;
    uint64_t outSlots;
    uint64_t inIndexOff;
    uint64_t inSlots;
    uint64_t allocStart;
    /** Fingerprint of the creating config's layout-shaping fields
     *  (XPGraphConfig::geometryFingerprint). */
    uint64_t configFingerprint;
    /** Monotonic instance generation: bumped (and re-persisted) on every
     *  successful recovery, so lineage is visible in the report/tools. */
    uint64_t generation;
    uint64_t checksum; ///< FNV-1a over all preceding fields

    uint64_t
    computeChecksum() const
    {
        return fnv1a64(this, offsetof(Superblock, checksum));
    }
};

constexpr uint64_t kSuperMagic = 0x5850475250483033ull; // "XPGRPH03"
/** v3: checksummed superblock with config fingerprint + generation. */
constexpr uint32_t kSuperVersion = 3;
constexpr uint64_t kSuperblockBytes = 4096;
/** Device offset of the allocator's persistent tail pointer. */
constexpr uint64_t kAllocTailOff = 512;

/** How many records ahead a buffering worker prefetches the VertexState
 *  and, once that has arrived, the vertex buffer's header. */
constexpr size_t kPrefetchStateAhead = 16;
constexpr size_t kPrefetchBufAhead = 8;

// --- compaction journal (DESIGN.md §13) ---
//
// Lives in the spare superblock tail [kCompactionJournalOff,
// kSuperblockBytes): 48 entries of 64 B, of which the serial pass arms
// entry 0 (recovery scans all 48). Protocol per chain rewrite
// (AdjacencyStore::compact drives 1/3/4 via the CompactHooks, the
// engine drives 2/5):
//   1. new chain fully written + persisted
//   2. arm: entry {side, slot, oldHead, newHead} written + persisted
//   3. index head swung to newHead
//   4. index entry persisted
//   5. clear: entry zeroed + persisted
// A crash before 2 leaves the old chain authoritative and the new
// blocks as leaked space (recovery's bytesLeaked accounting absorbs
// them). A crash between 2 and 5 is resolved by comparing the persisted
// index head with newHead: equal means the swing committed and the OLD
// chain is the reclaimed garbage; different means the swing never
// landed and the NEW chain is. A torn entry write fails the checksum
// and is ignored — ordering (2 before 3) guarantees the swing cannot
// have happened yet. Fresh devices are zero-filled, and magic 0 never
// validates, so an empty journal needs no initialization.
constexpr uint64_t kCompactionJournalOff = 1024;
constexpr unsigned kCompactionJournalSlots = 48;
constexpr uint64_t kCompactionJournalMagic =
    0x314e524a43475058ull; // "XPGCJRN1"

struct CompactionJournalEntry
{
    uint64_t magic = 0;
    uint64_t side = 0; ///< 0 = out, 1 = in
    uint64_t slot = 0; ///< store-local vertex slot
    uint64_t oldHead = 0;
    uint64_t newHead = 0;
    uint64_t reserved[2] = {0, 0};
    uint64_t checksum = 0; ///< FNV-1a over all preceding fields

    uint64_t
    computeChecksum() const
    {
        return fnv1a64(this, offsetof(CompactionJournalEntry, checksum));
    }
};
static_assert(sizeof(CompactionJournalEntry) == 64,
              "journal entries are fixed 64 B records");
static_assert(kCompactionJournalOff > kAllocTailOff &&
                  kCompactionJournalOff +
                          kCompactionJournalSlots *
                              sizeof(CompactionJournalEntry) <=
                      kSuperblockBytes,
              "journal must fit in the spare superblock tail");

uint64_t
compactionJournalOff(unsigned jslot)
{
    return kCompactionJournalOff +
           uint64_t{jslot} * sizeof(CompactionJournalEntry);
}

void
armCompactionJournal(MemoryDevice &dev, uint64_t side, uint64_t slot,
                     uint64_t old_head, uint64_t new_head)
{
    CompactionJournalEntry e;
    e.magic = kCompactionJournalMagic;
    e.side = side;
    e.slot = slot;
    e.oldHead = old_head;
    e.newHead = new_head;
    e.checksum = e.computeChecksum();
    dev.writePod<CompactionJournalEntry>(compactionJournalOff(0), e);
    dev.persist(compactionJournalOff(0), sizeof(e));
}

void
clearCompactionJournal(MemoryDevice &dev, unsigned jslot)
{
    const CompactionJournalEntry zero{};
    dev.writePod<CompactionJournalEntry>(compactionJournalOff(jslot),
                                         zero);
    dev.persist(compactionJournalOff(jslot), sizeof(zero));
}

/** Per-thread scratch for a view's frozen log-window records. */
thread_local std::vector<vid_t> t_viewWindow;

} // namespace

const char *
recoveryStatusName(RecoveryStatus status)
{
    switch (status) {
      case RecoveryStatus::Ok:
        return "Ok";
      case RecoveryStatus::MissingBacking:
        return "MissingBacking";
      case RecoveryStatus::SuperblockCorrupt:
        return "SuperblockCorrupt";
      case RecoveryStatus::ConfigMismatch:
        return "ConfigMismatch";
      case RecoveryStatus::AllocatorCorrupt:
        return "AllocatorCorrupt";
      case RecoveryStatus::LogCorrupt:
        return "LogCorrupt";
      case RecoveryStatus::CompactionTorn:
        return "CompactionTorn";
    }
    return "Unknown";
}

json::JsonValue
RecoveryReport::toJson() const
{
    json::JsonValue doc = json::JsonValue::object();
    doc.set("schema", "xpgraph-recovery-v1");
    doc.set("status", recoveryStatusName(status));
    doc.set("ok", ok());
    doc.set("repaired", repaired());
    if (!error.empty())
        doc.set("error", error);
    doc.set("edges_replayed", edgesReplayed);
    doc.set("edges_deduped", edgesDeduped);
    doc.set("log_edges_truncated", logEdgesTruncated);
    doc.set("log_edges_skipped", logEdgesSkipped);
    doc.set("log_header_copies_rejected", logHeaderCopiesRejected);
    doc.set("blocks_dropped", blocksDropped);
    doc.set("records_truncated", recordsTruncated);
    doc.set("invalid_index_entries", invalidIndexEntries);
    doc.set("bytes_leaked", bytesLeaked);
    doc.set("compactions_in_flight", compactionsInFlight);
    doc.set("chunks_reclaimed", chunksReclaimed);
    doc.set("recovery_ns", recoveryNs);
    return doc;
}

uint64_t
recommendedBytesPerNode(const XPGraphConfig &config, uint64_t expected_edges)
{
    const unsigned p = std::max(1u, config.numNodes);
    const uint64_t slots_per_node =
        config.placement == NumaPlacement::OutInGraph
            ? config.maxVertices
            : (config.maxVertices + p - 1) / p;
    const uint64_t log_bytes =
        CircularEdgeLog::regionBytes(config.elogCapacityEdges);
    const uint64_t index_bytes = 2 * slots_per_node * 16;
    // Records land twice (out + in); block growth, headers, and one full
    // compaction need generous slack.
    const uint64_t block_bytes =
        (expected_edges * 2 * sizeof(vid_t) * 5) / p +
        slots_per_node * 2 * kXPLineSize;
    return kSuperblockBytes + log_bytes + index_bytes + block_bytes +
           (32ull << 20);
}

// --- construction -----------------------------------------------------------

XPGraph::XPGraph(const XPGraphConfig &config)
    : XPGraph(config, false, nullptr)
{
}

XPGraph::XPGraph(const XPGraphConfig &config, bool recovering,
                 RecoveryReport *report)
    : GraphStore("xpgraph"), config_(config.validated(recovering)),
      recoveryReport_(report), parts_(config_.numNodes)
{
    PoolConfig pool_config;
    pool_config.bulkSize = config_.poolBulkBytes;
    pool_config.poolLimit = config_.poolLimitBytes;
    pool_config.minBlock = 8;
    pool_ = std::make_unique<VertexBufferPool>(pool_config);

    executor_ = std::make_unique<ParallelExecutor>(config_.archiveThreads);

    initTelemetry();

    if (!initPartitions(recovering))
        return; // typed recovery failure: recover() reports and discards

    const unsigned p = config_.numNodes;
    logIndexes_.resize(p);
    phaseUpTo_.resize(p, 0);
    for (unsigned d = 0; d < 2; ++d) {
        shards_[d].resize(p);
        assign_[d].resize(p);
        for (unsigned node = 0; node < p; ++node)
            shards_[d][node].resize(kShardsPerThread *
                                    archiveSlots().onNode(node));
    }

    initWatchdog();
    if (config_.pipelinedArchiving)
        startBackground(archiver_, "archiver",
                        [this](std::unique_lock<std::mutex> &) {
                            archivePassLocked();
                        });
    if (config_.backgroundCompaction) {
        // debugWedgeCompactor (watchdog tests, `xpgraph_cli watch
        // --wedge-compactor`): the first pass, requested at once, stays
        // busy without beating until stop — exactly what a wedged loop
        // looks like from the outside. Still stoppable, so teardown
        // stays clean.
        compactor_.requested = config_.debugWedgeCompactor;
        startBackground(compactor_, "compactor",
                        [this](std::unique_lock<std::mutex> &lock) {
                            if (!config_.debugWedgeCompactor) {
                                compactCandidatesLocked();
                                return;
                            }
                            XPG_EVENT(Warn, "compaction", "compactor_wedged",
                                      0, 0);
                            compactor_.cv.wait(
                                lock, [&] { return compactor_.stop; });
                        });
    }
}

void
XPGraph::initWatchdog()
{
    const uint64_t stall_ns = uint64_t{config_.watchdogStallMs} * 1'000'000;
    if (config_.pipelinedArchiving)
        archiver_.hb = watchdog_.registerHeartbeat("archiver", stall_ns);
    if (config_.backgroundCompaction)
        compactor_.hb = watchdog_.registerHeartbeat("compactor", stall_ns);
    // One shared cell for every ingest session: beat-only (sessions
    // never toggle busy — a shared flag would flap across threads), so
    // it can never read as Stalled by itself; blocked writers surface
    // through the backpressure probe instead.
    registerIngestHeartbeat(*watchdog_.registerHeartbeat("ingest", 0));
    watchdog_.registerProbe(
        [this](uint64_t now_ns) { return backpressureProbe(now_ns); });
    watchdog_.registerProbe(
        [this](uint64_t now_ns) { return viewPinProbe(now_ns); });
    // health()'s reaction to a Stalled transition: freeze a flight
    // record naming the wedged component. Safe from any reader thread:
    // dump() takes only telemetry-internal locks, never archiveMutex_.
    watchdog_.onStalled([](const telemetry::HealthReport &report) {
        telemetry::FlightRecorder::instance().dump(
            "watchdog_stalled", "health", report.toJson());
    });
}

telemetry::ComponentHealth
XPGraph::backpressureProbe(uint64_t now_ns) const
{
    telemetry::ComponentHealth c;
    c.name = "backpressure";
    c.beats = backpressureEpisodes_.load(std::memory_order_relaxed);
    const uint64_t since =
        backpressureSinceNs_.load(std::memory_order_relaxed);
    if (since == 0 || now_ns <= since)
        return c; // no writer currently blocked on a full log
    c.busy = true;
    c.sinceBeatNs = now_ns - since;
    const uint64_t window =
        uint64_t{config_.watchdogBackpressureMs} * 1'000'000;
    if (window == 0)
        return c;
    if (c.sinceBeatNs > 4 * window) {
        c.status = telemetry::HealthStatus::Stalled;
        c.note = "writers blocked on a full log far past the window";
    } else if (c.sinceBeatNs > window) {
        c.status = telemetry::HealthStatus::Degraded;
        c.note = "sustained log-full backpressure";
    }
    return c;
}

telemetry::ComponentHealth
XPGraph::viewPinProbe(uint64_t now_ns) const
{
    telemetry::ComponentHealth c;
    c.name = "view_pins";
    const uint64_t oldest = oldestViewNs_.load(std::memory_order_relaxed);
    if (oldest == 0 || now_ns <= oldest)
        return c; // no view open
    c.busy = true;
    c.sinceBeatNs = now_ns - oldest;
    const uint64_t window =
        uint64_t{config_.watchdogViewPinMs} * 1'000'000;
    // Capped at Degraded: a long-open view is legal, but it floors log
    // reclamation (and can wedge writers — the backpressure probe
    // escalates that side to Stalled).
    if (window != 0 && c.sinceBeatNs > window) {
        c.status = telemetry::HealthStatus::Degraded;
        c.note = "long-open read view pins the archive epoch";
    }
    return c;
}

telemetry::HealthReport
XPGraph::health() const
{
    return watchdog_.react(telemetry::hostNowNs());
}

void
XPGraph::enterBackpressure(unsigned node)
{
    if (backpressureWaiters_.fetch_add(1, std::memory_order_acq_rel) ==
        0) {
        backpressureSinceNs_.store(telemetry::hostNowNs(),
                                   std::memory_order_relaxed);
        backpressureEpisodes_.fetch_add(1, std::memory_order_relaxed);
        XPG_EVENT(Warn, "backpressure", "log_full_enter", node,
                  parts_[node].log->freeSlots());
    }
}

void
XPGraph::exitBackpressure(unsigned node)
{
    if (backpressureWaiters_.fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
        backpressureSinceNs_.store(0, std::memory_order_relaxed);
        XPG_EVENT(Info, "backpressure", "log_full_exit", node,
                  backpressureEpisodes_.load(std::memory_order_relaxed));
    }
}

void
XPGraph::initTelemetry()
{
    telBufferPhaseHist_ = XPG_TEL_HISTOGRAM(
        "archive.buffering_phase_ns",
        (telemetry::Labels{.store = "xpgraph", .phase = "buffering"}));
    telFlushPhaseHist_ = XPG_TEL_HISTOGRAM(
        "archive.flush_phase_ns",
        (telemetry::Labels{.store = "xpgraph", .phase = "flushing"}));
    telRecoveryRebuildHist_ = XPG_TEL_HISTOGRAM(
        "recovery.step_ns",
        (telemetry::Labels{.store = "xpgraph", .phase = "rebuild"}));
    telRecoveryReplayHist_ = XPG_TEL_HISTOGRAM(
        "recovery.step_ns",
        (telemetry::Labels{.store = "xpgraph", .phase = "replay"}));
}

template <typename F>
void
XPGraph::forWorkerSlots(unsigned w, F &&fn)
{
    archiveSlots().forEach(w, config_.archiveThreads, [&](const Slot &slot) {
        if (queryBindingEnabled())
            NumaBinding::bindThread(static_cast<int>(slot.node), false);
        fn(slot);
    });
}

void
XPGraph::phaseEnterLocked()
{
    // Odd epoch = an archive phase is mutating the phase aggregates.
    // Only the outermost phase flips it (buffering can nest a flush).
    if (phaseDepth_++ == 0)
        phaseEpoch_.fetch_add(1, std::memory_order_release);
}

void
XPGraph::phaseExitLocked()
{
    XPG_ASSERT(phaseDepth_ > 0, "phase exit without enter");
    if (--phaseDepth_ == 0)
        phaseEpoch_.fetch_add(1, std::memory_order_release);
}

XPGraph::~XPGraph()
{
    XPG_ASSERT(openSessions() == 0,
               "destroying XPGraph with open ingestion sessions");
    XPG_ASSERT(views_.empty(), "destroying XPGraph with open read views");
    stopBackground(compactor_);
    stopBackground(archiver_);
}

std::string
XPGraph::backingPath(unsigned node) const
{
    return config_.backingDir + "/xpgraph_node" + std::to_string(node) +
           ".pmem";
}

void
XPGraph::computeLayout(unsigned node, Partition &part) const
{
    // OutInGraph keeps each side whole on its owner node (one node holds
    // both); the other placements give every node its share of both.
    const unsigned p = config_.numNodes;
    const bool out_in = config_.placement == NumaPlacement::OutInGraph;
    const uint64_t per =
        out_in ? config_.maxVertices : (config_.maxVertices + p - 1) / p;

    // Every node hosts its own edge log (S III-D): the sessions bound to
    // the node append locally, so remote log traffic disappears.
    uint64_t cursor = kSuperblockBytes;
    cursor += alignUp(
        CircularEdgeLog::regionBytes(config_.elogCapacityEdges),
        kXPLineSize);
    const uint64_t index_start = cursor;
    for (unsigned d = 0; d < 2; ++d) {
        part.slots[d] = out_in && owner(0, d == 0) != node ? 0 : per;
        part.indexOff[d] = cursor;
        cursor += alignUp(AdjacencyStore::indexBytes(part.slots[d]),
                          kXPLineSize);
    }
    part.indexBytes = cursor - index_start;

    if (cursor >= config_.pmemBytesPerNode) {
        XPG_FATAL("pmemBytesPerNode too small for metadata; use "
                  "recommendedBytesPerNode()");
    }
}

bool
XPGraph::recoveryFail(RecoveryStatus status, const std::string &msg)
{
    if (!recoveryReport_)
        XPG_FATAL(msg);
    recoveryReport_->status = status;
    recoveryReport_->error = msg;
    return false;
}

bool
XPGraph::initPartitions(bool recovering)
{
    for (unsigned node = 0; node < config_.numNodes; ++node) {
        Partition &part = parts_[node];
        if (recovering && !config_.backingDir.empty()) {
            // Recovery requires the backing file to exist.
            std::FILE *probe =
                std::fopen(backingPath(node).c_str(), "rb");
            if (!probe) {
                return recoveryFail(RecoveryStatus::MissingBacking,
                                    "recovery: missing backing file " +
                                        backingPath(node));
            }
            std::fclose(probe);
        }
        std::string path;
        if (!config_.backingDir.empty()) {
            path = backingPath(node);
            if (!recovering)
                std::remove(path.c_str()); // fresh instance: discard stale file
        }
        part.dev = makeDevice(
            config_.memKind, "pmem-node" + std::to_string(node),
            config_.pmemBytesPerNode, static_cast<int>(node),
            config_.numNodes, path,
            config_.memKind == MemKind::Ssd
                ? config_.ssdCacheBlocks * kSsdBlockSize
                : config_.memoryModeCacheBytes);
        registerDevice(*part.dev);
        computeLayout(node, part);

        const uint64_t log_region_off = kSuperblockBytes;
        const uint64_t alloc_start = part.indexOff[0] + part.indexBytes;

        if (recovering) {
            XPG_ATTR_SCOPE(attrScope, RecoveryReplay);
            const auto sb = part.dev->readPod<Superblock>(0);
            if (sb.magic != kSuperMagic || sb.version != kSuperVersion) {
                return recoveryFail(RecoveryStatus::SuperblockCorrupt,
                                    "superblock mismatch on node " +
                                        std::to_string(node));
            }
            if (sb.checksum != sb.computeChecksum()) {
                return recoveryFail(RecoveryStatus::SuperblockCorrupt,
                                    "superblock mismatch on node " +
                                        std::to_string(node) +
                                        ": bad checksum");
            }
            if (sb.maxVertices != config_.maxVertices ||
                sb.numNodes != config_.numNodes ||
                sb.placement != static_cast<uint32_t>(config_.placement) ||
                sb.logCapacityEdges != config_.elogCapacityEdges ||
                sb.configFingerprint != config_.geometryFingerprint()) {
                return recoveryFail(
                    RecoveryStatus::ConfigMismatch,
                    "recovery configuration does not match the "
                    "persisted instance (geometry fingerprint)");
            }
            std::string err;
            part.alloc = PmemAllocator::recover(*part.dev, alloc_start,
                                                config_.pmemBytesPerNode,
                                                kAllocTailOff, &err);
            if (!part.alloc)
                return recoveryFail(RecoveryStatus::AllocatorCorrupt,
                                    err);
            auto log = CircularEdgeLog::tryRecover(
                *part.dev, sb.logOff, config_.batteryBacked, &err,
                recoveryReport_
                    ? &recoveryReport_->logHeaderCopiesRejected
                    : nullptr);
            if (!log)
                return recoveryFail(RecoveryStatus::LogCorrupt, err);
            part.log =
                std::make_unique<CircularEdgeLog>(std::move(*log));
        } else {
            Superblock sb{};
            sb.magic = kSuperMagic;
            sb.version = kSuperVersion;
            sb.node = node;
            sb.numNodes = config_.numNodes;
            sb.placement = static_cast<uint32_t>(config_.placement);
            sb.maxVertices = config_.maxVertices;
            sb.logOff = log_region_off;
            sb.logCapacityEdges = config_.elogCapacityEdges;
            sb.outIndexOff = part.indexOff[0];
            sb.outSlots = part.slots[0];
            sb.inIndexOff = part.indexOff[1];
            sb.inSlots = part.slots[1];
            sb.allocStart = alloc_start;
            sb.configFingerprint = config_.geometryFingerprint();
            sb.generation = 1;
            sb.checksum = sb.computeChecksum();
            XPG_ATTR_SCOPE(attrScope, Superblock);
            part.dev->writePod<Superblock>(0, sb);
            // The superblock must reach the media now: a crash before the
            // first flush would otherwise lose it to the XPBuffer.
            part.dev->persist(0, sizeof(Superblock));

            part.alloc = std::make_unique<PmemAllocator>(
                *part.dev, alloc_start, config_.pmemBytesPerNode,
                kAllocTailOff);
            part.log = std::make_unique<CircularEdgeLog>(
                *part.dev, log_region_off, config_.elogCapacityEdges,
                config_.batteryBacked, /*durable=*/true);
        }
        registerEdgeLog(*part.log);

        const CompressionPolicy compression{config_.compressMinDegree};
        for (unsigned d = 0; d < 2; ++d) {
            if (part.slots[d] == 0)
                continue;
            auto &side = part.sides[d];
            side = std::make_unique<Side>();
            side->store = std::make_unique<AdjacencyStore>(
                *part.dev, *part.alloc, part.indexOff[d], part.slots[d],
                config_.proactiveFlush && config_.memKind == MemKind::Pmem,
                compression);
            side->states.resize(part.slots[d]);
            side->dirty =
                std::vector<std::atomic<uint64_t>>((part.slots[d] + 63) / 64);
        }
    }
    return true;
}

std::unique_ptr<XPGraph>
XPGraph::recover(const XPGraphConfig &config, RecoveryReport *report)
{
    if (report)
        *report = RecoveryReport{};
    auto graph = std::unique_ptr<XPGraph>(
        new XPGraph(config.validated(/*for_recovery=*/true),
                    /*recovering=*/true, report));
    if (report && !report->ok())
        return nullptr;
    graph->recoveryReport_ = nullptr; // report outlives only recover()
    {
        // Each rebuild step is its own Recovery record; the bracket
        // keeps snapshotStats() from seeing one step's stats half done.
        std::lock_guard<std::mutex> lock(graph->archiveMutex_);
        graph->phaseEnterLocked();
        graph->rebuildFromDevices(report);
        graph->phaseExitLocked();
    }
    graph->bumpSuperblockGenerations();
    if (report) {
        report->recoveryNs =
            graph->recoveryNs_.load(std::memory_order_relaxed);
        if (report->repaired()) {
            // A crash left damage recovery had to cut away: note it in
            // the event stream and freeze a postmortem flight record
            // carrying the full report (no-op unless a recorder
            // directory is configured).
            XPG_EVENT(Warn, "recovery", "recovery_repairs",
                      report->edgesReplayed, report->logEdgesTruncated +
                                                 report->blocksDropped);
            telemetry::FlightRecorder::instance().dump(
                "recovery_repairs", "recovery", report->toJson());
        } else {
            XPG_EVENT(Info, "recovery", "recovery_clean",
                      report->edgesReplayed, report->recoveryNs);
        }
    }
    return graph;
}

void
XPGraph::bumpSuperblockGenerations()
{
    XPG_ATTR_SCOPE(attrScope, Superblock);
    for (auto &part : parts_) {
        auto sb = part.dev->readPod<Superblock>(0);
        ++sb.generation;
        sb.checksum = sb.computeChecksum();
        part.dev->writePod<Superblock>(0, sb);
        part.dev->persist(0, sizeof(Superblock));
    }
}

void
XPGraph::scanCompactionJournals(RecoveryReport *report)
{
    XPG_ATTR_SCOPE(attrScope, RecoveryReplay);
    uint64_t in_flight = 0;
    for (auto &part : parts_) {
        for (unsigned j = 0; j < kCompactionJournalSlots; ++j) {
            const auto e = part.dev->readPod<CompactionJournalEntry>(
                compactionJournalOff(j));
            if (e.magic == 0)
                continue;
            if (e.magic != kCompactionJournalMagic ||
                e.checksum != e.computeChecksum()) {
                // Torn arm write. The index swing is ordered after the
                // entry persist, so it cannot have happened: the old
                // chain is untouched and authoritative. Scrub the
                // garbage so it can't confuse a later recovery.
                clearCompactionJournal(*part.dev, j);
                continue;
            }
            ++in_flight;
            Side *side = e.side < 2 ? part.sides[e.side].get() : nullptr;
            if (report && side && e.slot < side->states.size()) {
                // Committed iff the persisted index head reached the
                // new chain; the old chain is then unreachable garbage
                // (counted, never reused). Otherwise the swing never
                // landed: the old chain is still live and the new
                // blocks are leaked space, which the bytesLeaked
                // accounting below absorbs.
                if (side->store->indexHead(e.slot) == e.newHead)
                    report->chunksReclaimed +=
                        side->store->countChainBlocks(e.oldHead);
            }
            clearCompactionJournal(*part.dev, j);
        }
    }
    if (report) {
        report->compactionsInFlight += in_flight;
        if (in_flight > 0 && report->status == RecoveryStatus::Ok)
            report->status = RecoveryStatus::CompactionTorn;
    }
}

void
XPGraph::rebuildFromDevices(RecoveryReport *report)
{
    // Phase 0 (serial, cheap): resolve any compaction caught mid-commit
    // by the crash. Either side of the torn window is fully intact on
    // media (COW discipline); the journal says which one the index
    // reached, and the entry is scrubbed once accounted.
    scanCompactionJournals(report);

    // Phase 1 (parallel): rebuild the DRAM chain mirrors from the
    // persistent vertex index, validating every block (magic, bounds,
    // commit words, record checksum) and truncating each chain at the
    // first torn/garbage block. Scans accumulate per (worker, node) to
    // stay race-free and are merged below.
    const unsigned p = config_.numNodes;
    std::vector<ChainScan> scans(
        static_cast<size_t>(config_.archiveThreads) * p);
    {
        telemetry::OpScope op(this, "recovery.rebuild_chains",
                              telemetry::OpClass::Recovery, &recoveryNs_,
                              telRecoveryRebuildHist_);
        const ParallelResult result = executor_->run([&](unsigned w) {
        // Scopes are thread-local, so the tag must be planted in each
        // worker body, not around the executor_->run() call.
        XPG_ATTR_SCOPE(attrScope, RecoveryReplay);
        forWorkerSlots(w, [&](const Slot &ws) {
            ChainScan &scan = scans[static_cast<size_t>(w) * p + ws.node];
            for (const auto &side : parts_[ws.node].sides) {
                if (!side)
                    continue;
                const auto [begin, end] = ws.slice(side->states.size());
                for (uint64_t slot = begin; slot < end; ++slot) {
                    VertexState &st = side->states[slot];
                    st.chain = side->store->loadChainValidated(slot, scan);
                    // "Loading the graph data from PMEM" (S V-D): the
                    // block contents are read back and the DRAM
                    // per-vertex state is rebuilt.
                    if (!st.chain.empty()) {
                        // Rebuild the degree cache from the same scan.
                        st.tombstones = 0;
                        side->store->forEachRaw(st.chain, [&st](vid_t rec) {
                            st.tombstones += isDelete(rec) ? 1 : 0;
                        });
                        chargeDramScattered(2);
                        st.records = st.chain.records;
                        if (st.tombstones != 0)
                            side->markDirty(slot);
                    }
                }
            }
        });
        });
        op.add(result.maxNanos());
    }

    // Merge the scans: repair the allocator tail wherever a durable
    // linked block sits past the persisted tail (its tail persist was
    // still buffered at the crash), and account the abandoned space.
    for (unsigned node = 0; node < p; ++node) {
        ChainScan merged;
        for (unsigned w = 0; w < config_.archiveThreads; ++w) {
            const ChainScan &s = scans[static_cast<size_t>(w) * p + node];
            merged.blocksDropped += s.blocksDropped;
            merged.recordsTruncated += s.recordsTruncated;
            merged.invalidIndexEntries += s.invalidIndexEntries;
            merged.referencedBytes += s.referencedBytes;
            merged.maxReferencedEnd =
                std::max(merged.maxReferencedEnd, s.maxReferencedEnd);
        }
        Partition &part = parts_[node];
        if (merged.maxReferencedEnd > 0)
            part.alloc->ensureTailAtLeast(merged.maxReferencedEnd);
        if (report) {
            report->blocksDropped += merged.blocksDropped;
            report->recordsTruncated += merged.recordsTruncated;
            report->invalidIndexEntries += merged.invalidIndexEntries;
            const uint64_t used = part.alloc->used();
            if (used > merged.referencedBytes)
                report->bytesLeaked += used - merged.referencedBytes;
        }
    }

    // Phase 2 (serial): replay every node's buffered-but-unflushed log
    // window into fresh vertex buffers, skipping records already in PMEM
    // (S III-B). Per-log order is the sessions' publish order, so
    // same-vertex records replay in their original relative order.
    //
    // The fenced publish (slots persist before the head CAS, header
    // persists after) guarantees every position below the recovered head
    // is a fully durable edge — but recovery double-checks: a garbage
    // edge in the published-but-unbuffered window truncates the head to
    // the last consistent prefix, and one in the replay window (already
    // consumed by a buffering phase; cannot be truncated) is skipped.
    telemetry::OpScope op(this, "recovery.replay_log",
                          telemetry::OpClass::Recovery, &recoveryNs_,
                          telRecoveryReplayHist_);
    SimScope replay_scope;
    XPG_ATTR_SCOPE(attrScope, RecoveryReplay);
    const auto edge_ok = [&](const Edge &e) {
        return !isDelete(e.src) && rawVid(e.src) < config_.maxVertices &&
               rawVid(e.dst) < config_.maxVertices;
    };
    std::vector<Edge> window;
    for (auto &part : parts_) {
        const uint64_t buffered = part.log->bufferedUpTo();
        window.clear();
        part.log->readRange(buffered, part.log->head(), window);
        uint64_t valid = 0;
        while (valid < window.size() && edge_ok(window[valid]))
            ++valid;
        if (valid < window.size()) {
            if (report)
                report->logEdgesTruncated += window.size() - valid;
            part.log->truncateHead(buffered + valid);
        }

        window.clear();
        part.log->readRange(part.log->flushedUpTo(), buffered, window);
        for (const Edge &e : window) {
            if (!edge_ok(e)) {
                if (report)
                    ++report->logEdgesSkipped;
                continue;
            }
            // The out-side record decides the replay counters.
            for (unsigned d = 0; d < 2; ++d) {
                const bool out = d == 0;
                const vid_t v = sideVertex(e, out);
                const vid_t rec = sideRecord(e, out);
                Side &side = *parts_[owner(v, out)].sides[d];
                const uint64_t slot = slotOf(v);
                if (!side.store->contains(side.states[slot].chain, rec)) {
                    insertBuffered(side, slot, rec);
                    if (out && report)
                        ++report->edgesReplayed;
                } else if (out && report) {
                    ++report->edgesDeduped;
                }
            }
        }
    }
    noteVbufPeakLocked();
    op.add(replay_scope.elapsed());
}

// --- placement -----------------------------------------------------------

unsigned
XPGraph::owner(vid_t v, bool out) const
{
    if (config_.placement == NumaPlacement::OutInGraph)
        return out || config_.numNodes < 2 ? 0 : 1;
    return rawVid(v) % config_.numNodes;
}

uint64_t
XPGraph::slotOf(vid_t v) const
{
    if (config_.placement == NumaPlacement::OutInGraph)
        return rawVid(v);
    return rawVid(v) / config_.numNodes;
}

int
XPGraph::nodeOfOut(vid_t v) const
{
    return static_cast<int>(owner(v, true));
}

int
XPGraph::nodeOfIn(vid_t v) const
{
    return static_cast<int>(owner(v, false));
}

// --- updating ------------------------------------------------------------

std::unique_ptr<IngestSession>
XPGraph::session(unsigned thread_hint)
{
    return openSession(thread_hint % config_.numNodes);
}

void
XPGraph::sessionOpened(unsigned node)
{
    parts_[node].sessions.fetch_add(1, std::memory_order_relaxed);
    declareIdleWriters();
}

void
XPGraph::sessionClosed(unsigned node)
{
    parts_[node].sessions.fetch_sub(1, std::memory_order_relaxed);
    declareIdleWriters();
}

bool
XPGraph::requestArchive(uint64_t &inline_ns)
{
    if (config_.pipelinedArchiving) {
        archiver_.request();
        return false;
    }
    std::unique_lock<std::mutex> lock(archiveMutex_, std::try_to_lock);
    if (!lock.owns_lock())
        return false; // another session is archiving right now
    const uint64_t before = archivePhaseNsLocked();
    runBufferingPhaseLocked(/*capped=*/true);
    inline_ns += archivePhaseNsLocked() - before;
    return true;
}

void
XPGraph::waitForLogSpace(unsigned node, uint64_t &inline_ns)
{
    CircularEdgeLog &log = *parts_[node].log;
    std::unique_lock<std::mutex> lock(archiveMutex_);
    if (!config_.pipelinedArchiving) {
        // Inline: this session archives for itself. A flush-all that
        // reclaims nothing means an open read view pins the log's
        // reclaim floor below the flushed frontier: wait for a view to
        // close (the wait releases archiveMutex_, so closing is never
        // blocked by this stall), then archive again — another session
        // may have taken the slots that close freed.
        while (log.freeSlots() == 0) {
            const uint64_t before = archivePhaseNsLocked();
            runBufferingPhaseLocked();
            if (log.freeSlots() == 0) {
                // Everything is buffered but the log is still full: flush.
                runFlushAllLocked(/*release_buffers=*/false);
            }
            inline_ns += archivePhaseNsLocked() - before;
            if (log.freeSlots() > 0)
                break;
            XPG_ASSERT(!views_.empty(), "flush-all failed to reclaim log");
            const uint64_t wait_start = telemetry::hostNowNs();
            const uint64_t closes = viewCloses_;
            enterBackpressure(node);
            spaceCv_.wait(lock, [&] {
                return log.freeSlots() > 0 || viewCloses_ != closes;
            });
            exitBackpressure(node);
            XPG_TRACE_EMIT("log_view_pin_wait", "ingest", wait_start,
                           telemetry::hostNowNs() - wait_start, 0);
        }
        return;
    }
    // Pipelined: the background archiver frees the space (while anyone
    // waits, a pass flushes every log it leaves full); the client stalls
    // — the backpressure the trace timeline and the watchdog's probe
    // show — until a pass ran or a view closed. tryReserve takes no
    // lock, so another session may take the freed slots before this one
    // re-reads them: then ask again, as long as a pass can still free
    // slots of this log. Once everything up to its head is reclaimable
    // only a view close frees space, and asking again would spin passes.
    const uint64_t wait_start = telemetry::hostNowNs();
    enterBackpressure(node);
    bool had_space = false;
    while (!had_space && !archiver_.stop) {
        // A pass can free slots here: records to buffer, or (without a
        // battery) buffered records a flush would reclaim.
        if (log.nonBuffered() > 0 ||
            (!config_.batteryBacked && log.unflushed() > 0))
            archiver_.request();
        const uint64_t passes = archivePasses_;
        const uint64_t closes = viewCloses_;
        spaceCv_.wait(lock, [&] {
            had_space = log.freeSlots() > 0;
            return had_space || archiver_.stop ||
                   archivePasses_ != passes || viewCloses_ != closes;
        });
    }
    exitBackpressure(node);
    XPG_TRACE_EMIT("log_full_wait", "ingest", wait_start,
                   telemetry::hostNowNs() - wait_start, 0);
    XPG_ASSERT(had_space,
               "store shut down while a session was blocked on log space");
}

// --- background passes: the archiver, the compactor (DESIGN.md §13) ------

void
XPGraph::startBackground(Background &bg, const char *name, Pass pass)
{
    bg.thread = std::thread([this, &bg, name, pass = std::move(pass)] {
        telemetry::nameCurrentThread(name);
        for (;;) {
            {
                std::unique_lock<std::mutex> park(bg.park);
                if (bg.hb)
                    bg.hb->busy(false); // parked = healthy, however long
                bg.cv.wait(park, [&] { return bg.stop || bg.requested; });
                if (bg.stop)
                    return;
                bg.requested = false;
            }
            if (bg.hb)
                bg.hb->busy(true);
            std::unique_lock<std::mutex> lock(archiveMutex_);
            if (bg.stop)
                return;
            pass(lock);
        }
    });
}

void
XPGraph::stopBackground(Background &bg)
{
    if (!bg.thread.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(archiveMutex_);
        std::lock_guard<std::mutex> park(bg.park);
        bg.stop = true;
    }
    bg.cv.notify_all();
    bg.thread.join();
    spaceCv_.notify_all(); // log-space waiters give up on a stopped archiver
}

void
XPGraph::archivePassLocked()
{
    runBufferingPhaseLocked(/*capped=*/true);
    if (archiver_.hb)
        archiver_.hb->beat(); // long drains: beat between phases
    // A session waiting on a log this pass left full gets slots only
    // from a flush (battery mode freed them at markBuffered). Flush
    // now, whatever asked for the pass: the waiter's own request may
    // have been served by an earlier pass whose freed slots another
    // session took.
    bool flush = false;
    if (backpressureWaiters_.load(std::memory_order_relaxed) > 0 &&
        !config_.batteryBacked) {
        for (const auto &part : parts_)
            flush |= part.log->freeSlots() == 0 &&
                     part.log->unflushed() > 0;
    }
    if (flush)
        runFlushAllLocked(/*release_buffers=*/false);
    ++archivePasses_;
    spaceCv_.notify_all();
}

uint64_t
XPGraph::runCompactionPass()
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    return compactCandidatesLocked();
}

template <typename Visit>
uint64_t
XPGraph::compactPassLocked(Visit &&visit)
{
    telemetry::OpScope op(this, "compaction_pass",
                          telemetry::OpClass::Compaction);
    XPG_ATTR_SCOPE(attrScope, Compaction);
    SimScope pass_scope;
    const uint64_t reclaimed0 =
        compactionBytesReclaimed_.load(std::memory_order_relaxed);
    uint64_t rewritten = 0;
    // The phase (epoch bump, view-capture invalidation) opens lazily so
    // an empty pass — the compactor's common steady state — never
    // churns the epoch cache that open views share. Open views keep
    // serving the abandoned blocks (the allocator never reuses space).
    bool entered = false;
    // The pass is a function of the store, not of its caller: each
    // partition is visited bound to its node (unbound when the store
    // does not bind), with no migration charge, the way the archive
    // workers bind; the caller's binding comes back at the end.
    const int caller_node = NumaBinding::currentNode();
    for (unsigned node = 0; node < config_.numNodes; ++node) {
        if (queryBindingEnabled())
            NumaBinding::bindThread(static_cast<int>(node), false);
        else
            NumaBinding::unbindThread();
        for (unsigned d = 0; d < 2; ++d) {
            if (!parts_[node].sides[d])
                continue;
            visit(node, d, *parts_[node].sides[d], [&](uint64_t slot) {
                if (!entered) {
                    phaseEnterLocked();
                    entered = true;
                }
                rewritten += compactSlotJournaled(parts_[node], d, slot);
            });
        }
    }
    if (caller_node == kUnboundNode)
        NumaBinding::unbindThread();
    else
        NumaBinding::bindThread(caller_node, false);
    compactionPasses_.fetch_add(1, std::memory_order_relaxed);
    op.args(rewritten,
            compactionBytesReclaimed_.load(std::memory_order_relaxed) -
                reclaimed0);
    op.add(pass_scope.elapsed());
    op.close();
    if (entered)
        phaseExitLocked();
    return rewritten;
}

uint64_t
XPGraph::compactCandidatesLocked()
{
    const double ratio = config_.compactTombstoneRatio;
    const uint32_t min_records = config_.compactMinRecords;
    return compactPassLocked(
        [&](unsigned, unsigned, Side &side, const auto &rewrite) {
            // A slot qualifies on its records and tombstones alone, and
            // only an insert changes those between passes, so a slot
            // this pass did not rewrite can qualify later only after
            // an insert sets its dirty bit again: visit (and clear) the
            // dirty bits in ascending slot order. Delete-free chains
            // never qualify, so a workload without deletes is
            // byte-identical with the compactor on or off.
            for (size_t w = 0; w < side.dirty.size(); ++w) {
                if (side.dirty[w].load(std::memory_order_relaxed) == 0)
                    continue;
                for (uint64_t bits = side.dirty[w].exchange(
                         0, std::memory_order_relaxed);
                     bits != 0; bits &= bits - 1) {
                    const uint64_t slot = w * 64 + std::countr_zero(bits);
                    const VertexState &st = side.states[slot];
                    // Candidate = enough records to be worth a rewrite
                    // AND a tombstone share past the threshold.
                    if (st.records < min_records ||
                        static_cast<double>(st.tombstones) <
                            ratio * static_cast<double>(st.records))
                        continue;
                    rewrite(slot);
                }
            }
        });
}

bool
XPGraph::compactSlotJournaled(Partition &part, unsigned d, uint64_t slot)
{
    Side &side = *part.sides[d];
    VertexState &st = side.states[slot];
    if (st.buf && vbuf::header(st.buf)->cnt > 0)
        flushVertex(side, slot, st);
    const bool rewrites = !st.chain.empty();
    if (rewrites) {
        MemoryDevice &dev = *part.dev;
        CompactHooks hooks;
        hooks.preCommit = [&dev, d](uint64_t s, uint64_t old_head,
                                    uint64_t new_head) {
            armCompactionJournal(dev, d, s, old_head, new_head);
        };
        hooks.postCommit = [&dev](uint64_t) {
            clearCompactionJournal(dev, 0);
        };
        const CompactResult r = side.store->compact(slot, st.chain, &hooks);
        compactionSlots_.fetch_add(1, std::memory_order_relaxed);
        compactionBytesReclaimed_.fetch_add(r.bytesAbandoned,
                                            std::memory_order_relaxed);
        if (r.recordsBefore > r.recordsAfter)
            compactionRecordsDropped_.fetch_add(
                r.recordsBefore - r.recordsAfter,
                std::memory_order_relaxed);
    }
    // Every tombstone was applied; the buffer drained into the chain.
    st.records = st.chain.records;
    st.tombstones = 0;
    return rewrites;
}

// --- buffering phase -----------------------------------------------------

void
XPGraph::shardBatch()
{
    for (auto &side_shards : shards_)
        for (auto &lists : side_shards)
            for (auto &list : lists)
                list.clear();
    for (const Edge &e : batch_) {
        XPG_ASSERT(rawVid(e.src) < config_.maxVertices &&
                   rawVid(e.dst) < config_.maxVertices,
                   "edge endpoint out of range");
        for (unsigned d = 0; d < 2; ++d) {
            const vid_t v = sideVertex(e, d == 0);
            const unsigned node = owner(v, d == 0);
            auto &lists = shards_[d][node];
            lists[shardOf(slotOf(v), parts_[node].slots[d], lists.size())]
                .push_back(e);
        }
    }
    // The temporary ranged edge lists are DRAM streams (batch read + two
    // sharded copies).
    chargeDramSequential(batch_.size() * sizeof(Edge) * 3);

    for (unsigned d = 0; d < 2; ++d)
        for (unsigned node = 0; node < config_.numNodes; ++node)
            assign_[d][node] =
                assignShards(shards_[d][node], archiveSlots().onNode(node));
}

void
XPGraph::declareArchiveConcurrency()
{
    // Archive writes are structurally node-local (each slot only touches
    // its node's device), so per-device concurrency is the node's slot
    // count regardless of binding — binding only removes the remote
    // penalty of floating threads. Sessions bound to the node keep
    // logging into its device while a pipelined phase runs, so they add
    // to the declared store pressure.
    for (unsigned node = 0; node < config_.numNodes; ++node) {
        // One worker per slot on the node: >= 1, and never more than
        // the archive threads.
        const unsigned archive_workers = archiveSlots().onNode(node);
        const unsigned loggers =
            parts_[node].sessions.load(std::memory_order_relaxed);
        parts_[node].dev->setDeclaredWriters(archive_workers + loggers);
        // The same workers drain the node's log window in parallel.
        parts_[node].dev->setDeclaredReaders(archive_workers);
    }
}

void
XPGraph::declareIdleWriters()
{
    // Between phases, the stores to a device come from the sessions
    // bound to its node (at least the single default client), and the
    // phase readers are gone (queries re-declare their own load).
    for (unsigned node = 0; node < config_.numNodes; ++node) {
        const unsigned loggers =
            parts_[node].sessions.load(std::memory_order_relaxed);
        parts_[node].dev->setDeclaredWriters(std::max(1u, loggers));
        parts_[node].dev->setDeclaredReaders(1);
    }
}

void
XPGraph::bufferWorker(unsigned w)
{
    forWorkerSlots(w, [&](const Slot &ws) {
        Partition &part = parts_[ws.node];
        for (unsigned d = 0; d < 2; ++d) {
            const bool out = d == 0;
            const auto &assign = assign_[d][ws.node];
            if (!part.sides[d] || ws.local >= assign.size())
                continue;
            const ShardAssignment &a = assign[ws.local];
            Side &side = *part.sides[d];
            for (unsigned s = a.firstShard; s < a.lastShard; ++s) {
                const std::vector<Edge> &list = shards_[d][ws.node][s];
                const auto state = [&](size_t i) -> VertexState & {
                    return side.states[slotOf(sideVertex(list[i], out))];
                };
                // Each insert does one scattered VertexState load and one
                // scattered buffer-header load: start both early. This
                // worker alone writes these states, so reading a later
                // record's buf is race-free (and a stale one only wastes
                // the hint).
                for (size_t i = 0; i < list.size(); ++i) {
                    if (i + kPrefetchStateAhead < list.size())
                        __builtin_prefetch(&state(i + kPrefetchStateAhead),
                                           1);
                    if (i + kPrefetchBufAhead < list.size())
                        __builtin_prefetch(state(i + kPrefetchBufAhead).buf,
                                           1);
                    insertBuffered(side, slotOf(sideVertex(list[i], out)),
                                   sideRecord(list[i], out));
                }
            }
        }
    });
}

void
XPGraph::runBufferingPhaseLocked(bool capped)
{
    phaseEnterLocked();
    SimScope serial_scope;
    batch_.clear();
    uint64_t total = 0;
    std::vector<uint64_t> from(config_.numNodes, 0);
    std::vector<uint64_t> base(config_.numNodes, 0);
    for (unsigned node = 0; node < config_.numNodes; ++node) {
        CircularEdgeLog &log = *parts_[node].log;
        from[node] = log.bufferedUpTo();
        uint64_t to = log.head(); // published-prefix snapshot
        if (capped)
            // Bounded drain: sessions may have piled up far more than
            // the threshold while a previous phase ran; draining it all
            // at once would stream a long-cold log region (every XPLine
            // a media read). Threshold-sized chunks stay in the write
            // buffer, and the backlog drains over successive phases.
            to = std::min(to, from[node] + config_.bufferingThresholdEdges);
        phaseUpTo_[node] = to;
        base[node] = total;
        total += to - from[node];
    }
    if (total == 0) {
        phaseExitLocked();
        return;
    }
    // An empty drain is no phase: the record opens only once there is
    // a window to buffer (the window scan above touches no device).
    telemetry::OpScope op(this, "buffering_phase",
                          telemetry::OpClass::Archive, &bufferingNs_,
                          telBufferPhaseHist_);
    batch_.resize(total);
    declareArchiveConcurrency();
    op.add(serial_scope.elapsed());

    // Drain the windows with the node-local archive workers, each
    // reading a disjoint chunk of its node's log. A serial read would
    // throttle every phase to one thread once the window has aged out
    // of the XPLine write buffer (concurrent sessions keep writing, so
    // under load the window is always cold by the time it drains).
    const ParallelResult read_result = executor_->run([&](unsigned w) {
        // Log reads feeding an archive phase are archive traffic, not
        // query traffic (thread-local tag, so it lives in the worker).
        XPG_ATTR_SCOPE(attrScope, AdjacencyArchive);
        forWorkerSlots(w, [&](const Slot &ws) {
            const unsigned node = ws.node;
            const auto [lo, hi] = ws.slice(phaseUpTo_[node] - from[node]);
            if (lo < hi)
                parts_[node].log->readRangeInto(
                    from[node] + lo, from[node] + hi,
                    batch_.data() + base[node] + lo);
        });
    });
    op.add(read_result.maxNanos());

    SimScope shard_scope;
    shardBatch();
    op.add(shard_scope.elapsed());

    const ParallelResult result =
        executor_->run([this](unsigned w) { bufferWorker(w); });
    op.add(result.maxNanos());
    declareIdleWriters();
    noteVbufPeakLocked();

    for (unsigned node = 0; node < config_.numNodes; ++node) {
        CircularEdgeLog &log = *parts_[node].log;
        if (phaseUpTo_[node] > log.bufferedUpTo())
            log.markBuffered(phaseUpTo_[node]);
    }
    ++bufferingPhases_;
    edgesBuffered_ += total;
    op.args(total);
    // Close before a pressure flush: that flush is its own record.
    op.close();

    const uint64_t flush_threshold = static_cast<uint64_t>(
        config_.flushThresholdFrac *
        static_cast<double>(config_.elogCapacityEdges));
    bool log_pressure = false;
    if (!config_.batteryBacked) {
        for (const auto &part : parts_)
            log_pressure |= part.log->unflushed() >= flush_threshold;
    }
    const bool pool_pressure = pool_->nearlyFull();
    if (log_pressure || pool_pressure)
        runFlushAllLocked(/*release_buffers=*/pool_pressure);
    phaseExitLocked();
    // Deletes that just buffered may have pushed chains over the
    // tombstone threshold; every archive path (inline, sync point,
    // background archiver) funnels through here, so this is the one
    // wake-up site the compactor needs.
    compactor_.request();
}

// --- flushing ------------------------------------------------------------

void
XPGraph::flushWorker(unsigned w, bool release_buffers)
{
    XPG_ATTR_SCOPE(attrScope, AdjacencyArchive);
    forWorkerSlots(w, [&](const Slot &ws) {
        for (const auto &side : parts_[ws.node].sides) {
            if (!side)
                continue;
            const auto [begin, end] = ws.slice(side->states.size());
            for (uint64_t slot = begin; slot < end; ++slot) {
                VertexState &st = side->states[slot];
                if (!st.buf)
                    continue;
                if (vbuf::header(st.buf)->cnt > 0)
                    flushVertex(*side, slot, st);
                // flushVertex may already have parked the buffer in the
                // view limbo (st.buf nulled); only release what remains.
                if (release_buffers && st.buf) {
                    retireBuffer(st, /*keep=*/false);
                    st.bufBytes = 0;
                }
            }
        }
    });
}

void
XPGraph::runFlushAllLocked(bool release_buffers)
{
    phaseEnterLocked();
    telemetry::OpScope op(this, "flush_phase", telemetry::OpClass::Archive,
                          &flushingNs_, telFlushPhaseHist_);
    declareArchiveConcurrency();
    const ParallelResult result = executor_->run(
        [this, release_buffers](unsigned w) {
            flushWorker(w, release_buffers);
        });
    op.add(result.maxNanos());
    declareIdleWriters();
    ++flushAllPhases_;
    // Durability fence: markFlushed lets the log reclaim these edges, so
    // every adjacency write of this phase (blocks, commit words, index
    // entries still sitting in the XPBuffer) must reach the media first —
    // otherwise a crash after the header persist loses edges that are in
    // neither the log window nor a durable chain.
    for (auto &part : parts_)
        part.dev->quiesce();
    for (auto &part : parts_)
        part.log->markFlushed(part.log->bufferedUpTo());
    op.close();
    phaseExitLocked();
}

void
XPGraph::flushAllVbufs()
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    runFlushAllLocked(/*release_buffers=*/false);
}

void
XPGraph::bufferAllEdges()
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    runBufferingPhaseLocked();
}

void
XPGraph::archiveAll()
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    runBufferingPhaseLocked();
    runFlushAllLocked(/*release_buffers=*/false);
}

// --- per-edge buffered insert ---------------------------------------------

void
XPGraph::insertBuffered(Side &side, uint64_t slot, vid_t nebr)
{
    VertexState &st = side.states[slot];
    // Two scattered DRAM structures per insert: the vertex-state slot and
    // the vertex buffer itself.
    chargeDramScattered(2);

    // Degree cache: raw record count and tombstone count move together
    // with the stored data (same cache line as the state slot already
    // charged above).
    ++st.records;
    if (isDelete(nebr))
        ++st.tombstones;
    if (st.tombstones != 0)
        side.markDirty(slot); // the next compaction pass re-checks it

    if (!st.buf) {
        st.bufBytes = config_.minVertexBufBytes;
        st.buf = pool_->alloc(st.bufBytes);
        vbuf::init(st.buf, st.bufBytes);
    }
    if (vbuf::full(st.buf)) {
        if (st.bufBytes < config_.maxVertexBufBytes) {
            growBuffer(st);
        } else {
            flushVertex(side, slot, st);
            if (!st.buf) {
                // The full buffer went to the view limbo: restart the
                // vertex on a fresh buffer of the same layer.
                st.buf = pool_->alloc(st.bufBytes);
                vbuf::init(st.buf, st.bufBytes);
            }
        }
    }
    vbuf::push(st.buf, nebr);
}

void
XPGraph::growBuffer(VertexState &st)
{
    const uint32_t new_bytes = vbuf::nextLayerBytes(st.bufBytes);
    std::byte *grown = pool_->alloc(new_bytes);
    vbuf::migrate(grown, new_bytes, st.buf);
    chargeDramSequential(st.bufBytes);
    retireBuffer(st, /*keep=*/false);
    st.buf = grown;
    st.bufBytes = new_bytes;
}

void
XPGraph::flushVertex(Side &side, uint64_t slot, VertexState &st)
{
    auto *hdr = vbuf::header(st.buf);
    side.store->append(slot, vbuf::payload(st.buf), hdr->cnt, st.chain);
    chargeDramSequential(hdr->cnt * sizeof(vid_t));
    retireBuffer(st, /*keep=*/true);
    vbufFlushes_.fetch_add(1, std::memory_order_relaxed);
}

void
XPGraph::retireBuffer(VertexState &st, bool keep)
{
    // A capture flags every buffer it takes, and every open view reads
    // one of those captures: a buffer allocated after the newest
    // capture, or empty at each (captured as null), is no view's. A
    // flag left by views that have all closed parks needlessly, never
    // unsafely. Phases hold archiveMutex_, so views_ cannot change
    // under the workers.
    const bool held = st.captured && !views_.empty();
    st.captured = false;
    if (held) {
        const uint64_t epoch = phaseEpoch_.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(limboMutex_);
        limbo_.push_back({st.buf, st.bufBytes, epoch});
    } else if (keep) {
        vbuf::header(st.buf)->cnt = 0;
        return;
    } else {
        pool_->free(st.buf, st.bufBytes);
    }
    st.buf = nullptr;
}

// --- queries ---------------------------------------------------------------

namespace {

/**
 * Vertex-buffer layer: stream the first @p cnt records of @p buf. A
 * present buffer costs one random DRAM touch of its header and those
 * records, even when it is empty; a view whose captured prefix is empty
 * captured a null buffer.
 */
template <typename F>
uint32_t
streamBuffer(const std::byte *buf, uint32_t cnt, F &&fn)
{
    if (!buf)
        return 0;
    chargeDramRandom(sizeof(vbuf::Header) + cnt * sizeof(vid_t));
    const vid_t *pay = vbuf::payload(buf);
    for (uint32_t i = 0; i < cnt; ++i)
        fn(pay[i]);
    return cnt;
}

/** Records in @p st's vertex buffer right now (0 without a buffer). */
uint32_t
bufferedCount(const VertexState &st)
{
    return st.buf ? vbuf::header(st.buf)->cnt : 0;
}

} // namespace

std::pair<const XPGraph::Side *, uint64_t>
XPGraph::locate(vid_t v, bool out) const
{
    return {parts_[owner(v, out)].sides[out ? 0 : 1].get(), slotOf(v)};
}

template <typename F>
uint32_t
XPGraph::streamStored(const Side &side, const VertexChain &chain,
                      bool frozen, const std::byte *buf, uint32_t buffered,
                      F &&emit) const
{
    const uint32_t sealed = side.store->forEachRaw(chain, emit, frozen);
    noteQueryRecords(sealed, buffered);
    return sealed + streamBuffer(buf, buffered, emit);
}

template <typename F>
uint32_t
XPGraph::forEachLive(vid_t v, bool out, F &&fn) const
{
    const auto [side, slot] = locate(v, out);
    if (!side)
        return 0;
    XPG_ATTR_SCOPE(attrScope, QueryRead);
    const VertexState &st = side->states[slot];
    return visitLiveRecords(
        st.tombstones != 0,
        [&](auto &&emit) {
            return streamStored(*side, st.chain, false, st.buf,
                                bufferedCount(st), emit);
        },
        fn);
}

uint32_t
XPGraph::degreeOf(vid_t v, bool out) const
{
    const auto [side, slot] = locate(v, out);
    if (!side)
        return 0;
    const VertexState &st = side->states[slot];
    if (st.tombstones != 0)
        return forEachLive(v, out, [](vid_t) {}); // full charge
    chargeDramScattered(1); // one vertex-state cache line
    return st.records;
}

uint32_t
XPGraph::forEachNebrOut(vid_t v, NebrVisitor fn) const
{
    return forEachLive(v, true, fn);
}

uint32_t
XPGraph::forEachNebrIn(vid_t v, NebrVisitor fn) const
{
    return forEachLive(v, false, fn);
}

uint32_t
XPGraph::degreeOut(vid_t v) const
{
    return degreeOf(v, true);
}

uint32_t
XPGraph::degreeIn(vid_t v) const
{
    return degreeOf(v, false);
}

uint64_t
XPGraph::vertexWeight(vid_t v) const
{
    // Gathered by the query scheduler in one ascending-id bulk sweep:
    // the out- and in-side state entries stream through DRAM.
    chargeDramSequential(2 * kCacheLineSize);
    uint64_t w = kVertexFixedWeight;
    for (const bool out : {true, false}) {
        const auto [side, slot] = locate(v, out);
        if (side)
            w += side->states[slot].records;
    }
    return w;
}

LogWindowIndex &
XPGraph::logIndex(unsigned node) const
{
    {
        std::lock_guard<std::mutex> lock(logIndexMutex_);
        if (!logIndexes_[node]) {
            logIndexes_[node] = std::make_unique<LogWindowIndex>(
                *parts_[node].log, config_.maxVertices);
        }
    }
    logIndexes_[node]->ensureCurrent();
    return *logIndexes_[node];
}

template <typename Window>
uint32_t
XPGraph::gatherLogWindow(vid_t v, bool out, Window &&window,
                         std::vector<vid_t> &recs) const
{
    // Out-records of a vertex can sit in any node's log (sessions append
    // NUMA-locally), so every node's window is walked. Records of one
    // session stream keep their order; streams from different nodes
    // concatenate (concurrent sessions have no global order anyway).
    uint32_t n = 0;
    for (unsigned node = 0; node < config_.numNodes; ++node) {
        uint64_t low = 0;
        uint64_t high = 0;
        const LogWindowIndex *index = window(node, low, high);
        if (!index)
            continue;
        const auto base = static_cast<std::ptrdiff_t>(recs.size());
        n += index->visit(v, out, low, high,
                          [&recs](vid_t rec) { recs.push_back(rec); });
        std::reverse(recs.begin() + base, recs.end()); // newest-first chains
    }
    return n;
}

uint32_t
XPGraph::readLayer(Layer layer, vid_t v, bool out,
                   std::vector<vid_t> &recs) const
{
    XPG_ATTR_SCOPE(attrScope, QueryRead);
    if (layer == Layer::LogWindow) {
        const uint32_t n = gatherLogWindow(
            v, out,
            [this](unsigned node, uint64_t &low, uint64_t &high) {
                const LogWindowIndex *index = &logIndex(node);
                low = parts_[node].log->bufferedUpTo();
                high = LogWindowIndex::kNoBound;
                return index;
            },
            recs);
        noteQueryWindowRecords(n);
        return n;
    }
    const auto [side, slot] = locate(v, out);
    if (!side)
        return 0;
    const VertexState &st = side->states[slot];
    const auto push = [&recs](vid_t rec) { recs.push_back(rec); };
    return layer == Layer::Buffer
               ? streamBuffer(st.buf, bufferedCount(st), push)
               : side->store->forEachRaw(st.chain, push);
}

uint64_t
XPGraph::getLoggedEdges(std::vector<Edge> &out) const
{
    XPG_ATTR_SCOPE(attrScope, QueryRead);
    uint64_t n = 0;
    for (const auto &part : parts_) {
        n += part.log->nonBuffered();
        part.log->readRange(part.log->bufferedUpTo(), part.log->head(),
                            out);
    }
    return n;
}

// --- read views (DESIGN.md §12) --------------------------------------------

/**
 * Per-vertex state captured at an epoch boundary. Everything here is
 * immutable after capture by construction: chains/buffers only mutate
 * during archive phases (which run under archiveMutex_ and bump the
 * epoch), the captured buffer prefix [0, bufCount) is never rewritten
 * (vbuf::push appends beyond it; flush/grow park a buffer the capture
 * flagged while views are open), and captured chain blocks are only ever
 * appended past the captured tailCount (see forEachRaw).
 */
struct XPGraph::EpochState
{
    struct ViewVertex
    {
        /// captured vertex buffer; null when its captured prefix is
        /// empty, so a view charges no buffer touch for it
        const std::byte *buf = nullptr;
        uint32_t bufCount = 0; ///< its record count at capture
        VertexChain chain;              ///< captured chain mirror
        uint32_t records = 0;           ///< chain + buffer records
        uint32_t tombstones = 0;        ///< delete records among them
    };

    uint64_t epoch = 0;             ///< phaseEpoch_ at capture (even)
    std::vector<uint64_t> boundary; ///< per node: bufferedUpTo at capture
    /// per side (0 = out, 1 = in), per node: captured slots (empty when
    /// the side is absent there)
    std::vector<std::vector<ViewVertex>> sides[2];
    uint64_t archivedOutRecords = 0; ///< sum of out-side records
};

/**
 * The snapshot-isolated view XPGraph::openView() returns: the epoch
 * capture (shared across views of the same epoch) plus per-node frozen
 * log heads. A vertex's visible adjacency is its captured chain
 * (frozen forEachRaw) + captured buffer prefix + the frozen log window
 * [boundary, head) served through the per-node LogWindowIndex; delete
 * records cancel across all three layers in arrival order. Readers are
 * lock-free and charge the same modeled costs as live queries.
 */
class XPGraph::EpochView final : public ReadView
{
  public:
    EpochView(XPGraph &g, uint64_t id,
              std::shared_ptr<const EpochState> state,
              std::vector<uint64_t> heads, uint64_t window_edges)
        : g_(&g), id_(id), state_(std::move(state)),
          heads_(std::move(heads)),
          visibleEdges_(state_->archivedOutRecords + window_edges)
    {
    }

    ~EpochView() override { g_->closeView(id_); }

    vid_t numVertices() const override
    {
        return g_->config_.maxVertices;
    }

    uint32_t
    forEachNebrOut(vid_t v, NebrVisitor fn) const override
    {
        return visit(v, true, fn);
    }

    uint32_t
    forEachNebrIn(vid_t v, NebrVisitor fn) const override
    {
        return visit(v, false, fn);
    }

    uint32_t degreeOut(vid_t v) const override { return degree(v, true); }
    uint32_t degreeIn(vid_t v) const override { return degree(v, false); }
    bool hasFastDegrees() const override { return true; }

    uint64_t
    vertexWeight(vid_t v) const override
    {
        // Same O(1) estimate (and charge) as the live store: captured
        // record counts of both sides; the log window is noise here.
        chargeDramSequential(2 * kCacheLineSize);
        const EpochState::ViewVertex *out = vertex(v, true);
        const EpochState::ViewVertex *in = vertex(v, false);
        return GraphView::kVertexFixedWeight +
               (out ? out->records : 0) + (in ? in->records : 0);
    }

    uint64_t epoch() const override { return state_->epoch; }

    uint64_t
    frozenHead(unsigned node) const override
    {
        return heads_[node];
    }

    uint64_t
    frozenBoundary(unsigned node) const override
    {
        return state_->boundary[node];
    }

    uint64_t visibleEdges() const override { return visibleEdges_; }

    // The store answers the machine questions (placement, binding,
    // declared readers, the query probe, whose counters this view's
    // visits bump too).
    const GraphStore *backingStore() const override { return g_; }

  private:
    /** Captured slot of @p v, or null when the side is absent. */
    const EpochState::ViewVertex *
    vertex(vid_t v, bool out) const
    {
        const auto &slots = state_->sides[out ? 0 : 1][g_->owner(v, out)];
        if (slots.empty())
            return nullptr;
        return &slots[g_->slotOf(v)];
    }

    /**
     * Gather @p v's frozen log-window records [boundary, head) into
     * t_viewWindow, in log order per node, charging through the window
     * indexes (built at open for every non-empty window).
     * @return whether any of them is a delete record.
     */
    bool
    gatherWindow(vid_t v, bool out) const
    {
        t_viewWindow.clear();
        g_->gatherLogWindow(
            v, out,
            [this](unsigned node, uint64_t &low,
                   uint64_t &high) -> const LogWindowIndex * {
                low = state_->boundary[node];
                high = heads_[node];
                // An empty window's index may not even exist.
                return high > low ? g_->logIndexes_[node].get() : nullptr;
            },
            t_viewWindow);
        return std::any_of(t_viewWindow.begin(), t_viewWindow.end(),
                           [](vid_t rec) { return isDelete(rec); });
    }

    /** Captured chain + buffer prefix + frozen window, in arrival
     *  order, through visitLiveRecords. */
    uint32_t
    visit(vid_t v, bool out, NebrVisitor fn) const
    {
        XPG_ATTR_SCOPE(attrScope, QueryRead);
        chargeDramScattered(1); // captured-state slot
        const EpochState::ViewVertex *vv = vertex(v, out);
        const bool window_deletes = gatherWindow(v, out);
        g_->noteQueryWindowRecords(t_viewWindow.size());
        return visitLiveRecords(
            window_deletes || (vv && vv->tombstones != 0),
            [&](auto &&emit) {
                uint32_t n = 0;
                if (vv) {
                    n = g_->streamStored(*g_->locate(v, out).first,
                                         vv->chain, true, vv->buf,
                                         vv->bufCount, emit);
                }
                for (vid_t rec : t_viewWindow)
                    emit(rec);
                return n + static_cast<uint32_t>(t_viewWindow.size());
            },
            fn);
    }

    uint32_t
    degree(vid_t v, bool out) const
    {
        XPG_ATTR_SCOPE(attrScope, QueryRead);
        chargeDramScattered(1); // captured-state slot
        const EpochState::ViewVertex *vv = vertex(v, out);
        if (!gatherWindow(v, out) && (!vv || vv->tombstones == 0))
            return (vv ? vv->records : 0) +
                   static_cast<uint32_t>(t_viewWindow.size());
        // Deletes present: degree needs the full visit.
        return visit(v, out, [](vid_t) {});
    }

    XPGraph *g_;
    uint64_t id_;
    std::shared_ptr<const EpochState> state_;
    std::vector<uint64_t> heads_; ///< per node: log head at open
    uint64_t visibleEdges_;
};

std::shared_ptr<const XPGraph::EpochState>
XPGraph::captureEpochLocked()
{
    const uint64_t epoch = phaseEpoch_.load(std::memory_order_relaxed);
    XPG_ASSERT((epoch & 1) == 0,
               "epoch capture inside an archive phase");
    if (epochCache_ && epochCache_->epoch == epoch)
        return epochCache_;

    auto state = std::make_shared<EpochState>();
    state->epoch = epoch;
    const unsigned p = config_.numNodes;
    state->boundary.resize(p);
    for (auto &captured : state->sides)
        captured.resize(p);
    for (unsigned node = 0; node < p; ++node) {
        Partition &part = parts_[node];
        state->boundary[node] = part.log->bufferedUpTo();
        for (unsigned d = 0; d < 2; ++d) {
            Side *side = part.sides[d].get();
            if (!side)
                continue;
            auto &dst = state->sides[d][node];
            dst.resize(side->states.size());
            for (uint64_t slot = 0; slot < side->states.size();
                 ++slot) {
                VertexState &st = side->states[slot];
                auto &vv = dst[slot];
                vv.bufCount = bufferedCount(st);
                vv.buf = vv.bufCount > 0 ? st.buf : nullptr;
                // Flag what this capture holds for retireBuffer (a
                // store only where the flag is new).
                if (vv.buf && !st.captured)
                    st.captured = true;
                vv.chain = st.chain;
                vv.records = st.records;
                vv.tombstones = st.tombstones;
                if (d == 0)
                    state->archivedOutRecords += vv.records;
            }
        }
    }
    epochCache_ = state;
    return state;
}

std::unique_ptr<ReadView>
XPGraph::openView()
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    auto state = captureEpochLocked();

    // Freeze the per-node window upper bounds. Edges published after
    // these reads are invisible to the view; publishes are ordered per
    // log, so the window is a consistent prefix of every session's
    // stream.
    const unsigned p = config_.numNodes;
    std::vector<uint64_t> heads(p);
    uint64_t window_edges = 0;
    for (unsigned node = 0; node < p; ++node) {
        heads[node] = parts_[node].log->head();
        window_edges += heads[node] - state->boundary[node];
    }

    // Register before anything can archive again: the pin floors each
    // log's reclamation at the view's boundary so the frozen window
    // stays readable in the ring for the view's lifetime. Its open time
    // feeds the watchdog's view-pin probe, which reads only the atomic,
    // so it never needs archiveMutex_.
    const uint64_t id = nextViewId_++;
    views_.emplace(id, ViewPin{state->boundary, state->epoch,
                               telemetry::hostNowNs()});
    recomputeReclaimFloorsLocked();
    oldestViewNs_.store(views_.begin()->second.openedNs,
                        std::memory_order_relaxed);

    // Index the frozen windows while bufferedUpTo is still the captured
    // boundary (we hold the archive lock, so no phase can advance it
    // and make ensureCurrent skip part of the window).
    for (unsigned node = 0; node < p; ++node)
        if (heads[node] > state->boundary[node])
            logIndex(node);

    return std::unique_ptr<ReadView>(
        new EpochView(*this, id, std::move(state), std::move(heads),
                      window_edges));
}

void
XPGraph::closeView(uint64_t id)
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    views_.erase(id);
    oldestViewNs_.store(views_.empty() ? 0 : views_.begin()->second.openedNs,
                        std::memory_order_relaxed);
    // A capture references only buffers live at its epoch, and the
    // oldest open view has the oldest capture (the epoch cache is the
    // newest), so every buffer retired before that capture goes back
    // to the pool. The limbo is in epoch order: that is a prefix. The
    // last close frees them all, and first drops the cache, which may
    // reference buffers retired since its capture.
    uint64_t reclaim_before = ~uint64_t{0};
    if (!views_.empty())
        reclaim_before = views_.begin()->second.epoch;
    else
        epochCache_.reset();
    {
        std::lock_guard<std::mutex> limbo_lock(limboMutex_);
        while (!limbo_.empty() && limbo_.front().epoch < reclaim_before) {
            pool_->free(limbo_.front().buf, limbo_.front().bytes);
            limbo_.pop_front();
        }
    }
    recomputeReclaimFloorsLocked();
    // A session stalled on a full log may be waiting for this close.
    ++viewCloses_;
    spaceCv_.notify_all();
}

void
XPGraph::recomputeReclaimFloorsLocked()
{
    // New views open at the current bufferedUpTo (>= every older
    // boundary), so the oldest view holds the lowest boundary and the
    // per-log floor never decreases while set — the monotonicity the
    // log's reservation path relies on.
    for (unsigned node = 0; node < config_.numNodes; ++node) {
        CircularEdgeLog &log = *parts_[node].log;
        if (views_.empty())
            log.clearReclaimFloor();
        else
            log.setReclaimFloor(views_.begin()->second.boundary[node]);
    }
}

// --- arranging -------------------------------------------------------------

void
XPGraph::compactAdjs(vid_t v)
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    compactPassLocked(
        [&](unsigned node, unsigned d, Side &, const auto &rewrite) {
            if (node == owner(v, d == 0))
                rewrite(slotOf(v));
        });
}

void
XPGraph::compactAllAdjs()
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    compactPassLocked(
        [](unsigned, unsigned, Side &side, const auto &rewrite) {
            for (uint64_t slot = 0; slot < side.states.size(); ++slot)
                if (side.states[slot].records > 0)
                    rewrite(slot);
        });
}

// --- introspection -----------------------------------------------------------

void
XPGraph::declareQueryThreads(unsigned n) const
{
    // Transition to the query phase: the lock waits out any in-flight
    // archive phase, then pending write-buffer contents drain in the
    // background before the queries start. Declared readers model the
    // LOAD per device: whether threads are bound or floating, the graph
    // data is spread over the nodes, so each device sees ~1/P of the
    // aggregate query traffic.
    std::lock_guard<std::mutex> lock(archiveMutex_);
    const unsigned per_device = std::max(1u, n / config_.numNodes);
    for (auto &part : parts_) {
        part.dev->quiesce();
        part.dev->setDeclaredReaders(per_device);
    }
}

IngestStats
XPGraph::stats() const
{
    IngestStats s = sessionStats();
    s.bufferingNs = bufferingNs_.load(std::memory_order_relaxed);
    s.flushingNs = flushingNs_.load(std::memory_order_relaxed);
    s.recoveryNs = recoveryNs_.load(std::memory_order_relaxed);
    s.edgesBuffered = edgesBuffered_.load(std::memory_order_relaxed);
    s.vbufFlushes = vbufFlushes_.load(std::memory_order_relaxed);
    s.bufferingPhases = bufferingPhases_.load(std::memory_order_relaxed);
    s.flushAllPhases = flushAllPhases_.load(std::memory_order_relaxed);
    s.compactionPasses =
        compactionPasses_.load(std::memory_order_relaxed);
    s.compactionSlots = compactionSlots_.load(std::memory_order_relaxed);
    s.compactionBytesReclaimed =
        compactionBytesReclaimed_.load(std::memory_order_relaxed);
    s.compactionRecordsDropped =
        compactionRecordsDropped_.load(std::memory_order_relaxed);
    return s;
}

IngestStats
XPGraph::snapshotStats() const
{
    // Optimistic epoch-validated read: retry while an archive phase is
    // in flight (odd epoch) or one completed mid-copy (epoch moved).
    for (int attempt = 0; attempt < 64; ++attempt) {
        const uint64_t e1 = phaseEpoch_.load(std::memory_order_acquire);
        if ((e1 & 1) != 0)
            continue;
        const IngestStats s = stats();
        std::atomic_thread_fence(std::memory_order_acquire);
        if (phaseEpoch_.load(std::memory_order_relaxed) == e1)
            return s;
    }
    // Phases are running back-to-back; serialize against them instead
    // of spinning forever.
    std::lock_guard<std::mutex> lock(archiveMutex_);
    return stats();
}

void
XPGraph::publishTelemetry() const
{
    auto &tel = telemetry::Telemetry::instance().metrics();
    const telemetry::Labels store{.store = "xpgraph"};
    const IngestStats s = snapshotStats();
    tel.gauge("ingest.logging_ns", store).set(s.loggingNs);
    tel.gauge("ingest.logging_ns_max", store).set(s.loggingNsMax);
    tel.gauge("ingest.client_ns_max", store).set(s.clientNsMax);
    tel.gauge("ingest.ingest_ns", store).set(s.ingestNs());
    tel.gauge("archive.buffering_ns", store).set(s.bufferingNs);
    tel.gauge("archive.flushing_ns", store).set(s.flushingNs);
    tel.gauge("recovery.recovery_ns", store).set(s.recoveryNs);
    tel.gauge("ingest.edges_logged_total", store).set(s.edgesLogged);
    tel.gauge("archive.edges_buffered_total", store).set(s.edgesBuffered);
    tel.gauge("archive.vbuf_flushes", store).set(s.vbufFlushes);
    tel.gauge("ingest.sessions_opened", store).set(s.sessionsOpened);
    tel.gauge("compact.passes", store).set(s.compactionPasses);
    tel.gauge("compact.slots", store).set(s.compactionSlots);
    tel.gauge("compact.bytes_reclaimed", store)
        .set(s.compactionBytesReclaimed);
    tel.gauge("compact.records_dropped", store)
        .set(s.compactionRecordsDropped);
    const CompressionStats cs = compressionStats();
    tel.gauge("compress.chunks", store).set(cs.chunksCompressed);
    tel.gauge("compress.records", store).set(cs.recordsCompressed);
    tel.gauge("compress.encoded_bytes", store).set(cs.encodedBytes);
    tel.gauge("compress.bytes_saved", store).set(cs.bytesSaved());
    tel.gauge("compress.decode_calls", store).set(cs.decodeCalls);
    tel.gauge("compress.decoded_records", store).set(cs.decodedRecords);
    for (unsigned node = 0; node < config_.numNodes; ++node)
        parts_[node].dev->publishTelemetry("xpgraph",
                                           static_cast<int>(node));
}

MemoryUsage
XPGraph::memoryUsage() const
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    MemoryUsage mu;
    for (const auto &part : parts_) {
        for (const auto &side : part.sides) {
            if (side)
                mu.metaBytes +=
                    side->states.capacity() * sizeof(VertexState);
        }
        mu.pblkBytes += part.alloc->used() + part.indexBytes;
    }
    mu.metaBytes += batch_.capacity() * sizeof(Edge);
    // Shard lists count size(), not capacity() as batch_ and GraphOne
    // do; which rule to keep is an open ROADMAP item.
    for (const auto &side_shards : shards_)
        for (const auto &lists : side_shards)
            for (const auto &list : lists)
                mu.metaBytes += list.size() * sizeof(Edge);
    mu.vbufBytes = vbufPeakBytes_;
    mu.elogBytes = config_.numNodes *
                   CircularEdgeLog::regionBytes(config_.elogCapacityEdges);
    return mu;
}

CompressionStats
XPGraph::compressionStats() const
{
    CompressionStats total;
    for (const auto &part : parts_) {
        for (const auto &side : part.sides) {
            if (side)
                total += side->store->compressionStats();
        }
    }
    return total;
}

bool
XPGraph::sampleQueryProbe(QueryProbe &out) const
{
    out.sealedRecords = queryRecords_.sum(kSealedRecords);
    out.bufferRecords = queryRecords_.sum(kBufferRecords);
    out.logWindowRecords = queryRecords_.sum(kLogWindowRecords);
    const CompressionStats cs = compressionStats();
    out.decodedBytes = cs.decodedRecords * sizeof(vid_t);
    out.mediaReadOps = 0;
    out.mediaReadBytes = 0;
    out.mediaReadOpsPerDevice.clear();
    out.mediaReadOpsPerDevice.reserve(parts_.size());
    for (const auto &part : parts_) {
        const PcmCounters c = part.dev->counters();
        out.mediaReadOpsPerDevice.push_back(c.mediaReadOps);
        out.mediaReadOps += c.mediaReadOps;
        out.mediaReadBytes += c.mediaBytesRead;
    }
    // Live edge-record estimate for the pull-direction cost model:
    // records buffered into adjacency so far (out-direction share is
    // half of the out+in total).
    out.storedEdges = edgesBuffered_.load(std::memory_order_relaxed);
    return true;
}

void
XPGraph::syncBackings()
{
    for (auto &part : parts_)
        part.dev->syncBacking();
}

} // namespace xpg
