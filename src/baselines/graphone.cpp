#include "baselines/graphone.hpp"

#include <algorithm>
#include <cstdio>

#include "graph/snapshot.hpp"
#include "graph/tombstones.hpp"
#include "pmem/cost_model.hpp"
#include "pmem/dram_device.hpp"
#include "pmem/numa_topology.hpp"
#include "pmem/xpline.hpp"
#include "telemetry/attribution.hpp"
#include "util/logging.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

namespace {

/** Device offset of the edge log's first slot, after a header page whose
 *  last two XPLines hold the log's header copies. */
constexpr uint64_t kLogRegionOff = 4096;
/** Fixed offset of the per-device allocator tail (DRAM-mirrored anyway;
 *  GraphOne has no persistent allocator, but the bump allocator wants a
 *  slot to write through to). */
constexpr uint64_t kAllocTailOff = 256;
/** Smallest chunk (records); GraphOne allocates degree-proportional
 *  chunks with no large per-vertex floor. */
constexpr uint32_t kMinChunkRecords = 16;
constexpr uint32_t kMaxChunkRecords = 16384;

/** Per-batch degree-increment scratch, reused across phases. */
thread_local std::vector<vid_t> t_touched;

} // namespace

uint64_t
graphoneRecommendedBytesPerNode(const GraphOneConfig &config,
                                uint64_t expected_edges)
{
    // Pmem/Nova keep everything in one mmap'd file on one node.
    const bool single_device =
        config.variant == GraphOneVariant::Pmem ||
        config.variant == GraphOneVariant::Nova;
    const unsigned p =
        single_device ? 1 : std::max(1u, config.numNodes);
    const uint64_t log_bytes =
        config.elogCapacityEdges * sizeof(Edge) + kLogRegionOff;
    const uint64_t chunk_bytes =
        (expected_edges * 2 * sizeof(vid_t) * 4) / p +
        uint64_t{config.maxVertices} * kMinChunkRecords * sizeof(vid_t) /
            p;
    return log_bytes + chunk_bytes + (32ull << 20);
}

GraphOne::GraphOne(const GraphOneConfig &config) : GraphOne(config, false)
{
}

GraphOne::GraphOne(const GraphOneConfig &config, bool recovering)
    : GraphStore("graphone"), config_(config)
{
    XPG_ASSERT(config_.maxVertices > 0, "maxVertices must be set");
    XPG_ASSERT(config_.bytesPerNode > 0, "bytesPerNode must be set");

    // GraphOne-P/N mmap a single DAX file, whose pages live on ONE
    // socket's PMEM — every access from the other socket is remote and
    // all threads contend on the same DIMMs (the paper's S III-D point
    // about "evenly distributing the PMEM queries"). The volatile
    // variants use first-touch DRAM / Memory-Mode system RAM, which the
    // OS interleaves across nodes.
    const bool single_device =
        config_.variant == GraphOneVariant::Pmem ||
        config_.variant == GraphOneVariant::Nova;
    const unsigned num_devices =
        single_device ? 1 : config_.numNodes;
    const MemKind kind =
        config_.variant == GraphOneVariant::Dram ? MemKind::Dram
        : config_.variant == GraphOneVariant::MemoryMode
            ? MemKind::MemoryMode
            : MemKind::Pmem;
    for (unsigned node = 0; node < num_devices; ++node) {
        std::string path;
        if (!config_.backingDir.empty() &&
            config_.variant == GraphOneVariant::Pmem) {
            path = backingPath(node);
            if (!recovering)
                std::remove(path.c_str()); // fresh instance: discard file
        }
        devices_.push_back(makeDevice(
            kind, "g1-node" + std::to_string(node), config_.bytesPerNode,
            static_cast<int>(node), config_.numNodes, path,
            config_.memoryModeCacheBytes));
        registerDevice(*devices_.back());
    }

    // GraphOne-N stores only the adjacency lists in (NOVA) files; the
    // edge log stays in DRAM. The others log into device 0.
    if (config_.variant == GraphOneVariant::Nova) {
        novaLogDevice_ = makeDevice(
            MemKind::Dram, "g1-log",
            kLogRegionOff + config_.elogCapacityEdges * sizeof(Edge) + 4096,
            0, config_.numNodes);
        logDevice_ = novaLogDevice_.get();
        registerDevice(*logDevice_);
    } else {
        logDevice_ = devices_[0].get();
        XPG_ASSERT(kLogRegionOff +
                       config_.elogCapacityEdges * sizeof(Edge) <
                   config_.bytesPerNode,
                   "bytesPerNode too small for the edge log");
    }

    // The two header copies take the XPLines just below the slots, which
    // start at kLogRegionOff.
    const uint64_t log_region_off = kLogRegionOff - 2 * kXPLineSize;
    if (recovering) {
        std::string error;
        auto log = CircularEdgeLog::tryRecover(
            *logDevice_, log_region_off, /*battery_backed=*/true, &error);
        if (!log)
            XPG_FATAL("graphone recovery: " + error);
        if (log->capacity() != config_.elogCapacityEdges)
            XPG_FATAL("graphone recovery: log capacity does not match "
                      "elogCapacityEdges");
        log_ = std::make_unique<CircularEdgeLog>(std::move(*log));
        // Adjacency metadata is DRAM-resident, so everything still in
        // the log must be re-archived; edges the circular log already
        // overwrote (head beyond one capacity) are unrecoverable.
        const uint64_t head = log_->head();
        log_->rewindBuffered(head > config_.elogCapacityEdges
                                 ? head - config_.elogCapacityEdges
                                 : 0);
    } else {
        log_ = std::make_unique<CircularEdgeLog>(
            *logDevice_, log_region_off, config_.elogCapacityEdges,
            /*battery_backed=*/true,
            /*durable=*/!config_.backingDir.empty() &&
                config_.variant == GraphOneVariant::Pmem);
    }
    registerEdgeLog(*log_);

    for (unsigned node = 0; node < devices_.size(); ++node) {
        // Chunk space starts after the log region on device 0.
        const uint64_t start =
            (node == 0 && config_.variant != GraphOneVariant::Nova)
                ? kLogRegionOff +
                      config_.elogCapacityEdges * sizeof(Edge) + 4096
                : kLogRegionOff;
        allocators_.push_back(std::make_unique<PmemAllocator>(
            *devices_[node], alignUp(start, kXPLineSize),
            config_.bytesPerNode, kAllocTailOff));
    }

    executor_ =
        std::make_unique<ParallelExecutor>(config_.archiveThreads);
    initTelemetry();
    const unsigned shards =
        std::max(1u, kShardsPerThread * config_.archiveThreads);
    for (unsigned d = 0; d < 2; ++d) {
        meta_[d].resize(config_.maxVertices);
        shards_[d].resize(shards);
    }
}

void
GraphOne::initTelemetry()
{
    telArchivePhaseHist_ = XPG_TEL_HISTOGRAM(
        "archive.archive_phase_ns",
        (telemetry::Labels{.store = "graphone", .phase = "archive"}));
    telRecoveryHist_ = XPG_TEL_HISTOGRAM(
        "recovery.step_ns",
        (telemetry::Labels{.store = "graphone", .phase = "rearchive"}));
}

std::unique_ptr<GraphOne>
GraphOne::recover(const GraphOneConfig &config)
{
    XPG_ASSERT(!config.backingDir.empty() &&
                   config.variant == GraphOneVariant::Pmem,
               "GraphOne::recover needs a file-backed Pmem instance");
    std::FILE *probe = std::fopen(
        (config.backingDir + "/graphone_node0.pmem").c_str(), "rb");
    if (!probe)
        XPG_FATAL("graphone recovery: missing backing file " +
                  config.backingDir + "/graphone_node0.pmem");
    std::fclose(probe);
    auto graph = std::unique_ptr<GraphOne>(
        new GraphOne(config, /*recovering=*/true));
    // GraphOne recovery IS re-archiving: rebuild the DRAM adjacency
    // chains from the durable log window. Each archive phase is its own
    // record; the step reports the archiving time they added.
    const uint64_t host_start = telemetry::hostNowNs();
    const uint64_t before =
        graph->archivingNs_.load(std::memory_order_relaxed);
    graph->archiveAll();
    const uint64_t rearchive_ns =
        graph->archivingNs_.load(std::memory_order_relaxed) - before;
    graph->telRecoveryHist_->record(rearchive_ns);
    XPG_TRACE_EMIT("recovery.rearchive_log", "recovery", host_start,
                   telemetry::hostNowNs() - host_start, rearchive_ns);
    return graph;
}

std::string
GraphOne::backingPath(unsigned node) const
{
    return config_.backingDir + "/graphone_node" + std::to_string(node) +
           ".pmem";
}

void
GraphOne::chargeFileIo(uint64_t bytes) const
{
    if (config_.variant != GraphOneVariant::Nova)
        return;
    const CostParams &p = globalCostParams();
    const uint64_t blocks = (bytes + 4095) / 4096;
    SimClock::charge(p.vfsCallNs + blocks * p.fsBlockNs);
}

// --- updates ---------------------------------------------------------------

std::unique_ptr<IngestSession>
GraphOne::session(unsigned /*thread_hint*/)
{
    // One shared log: every session lands on it regardless of the hint.
    // GraphOne is NUMA-oblivious, so sessions never bind their thread and
    // log accesses pay the unbound (topology-average) remote factor.
    return openSession(0);
}

void
GraphOne::sessionOpened(unsigned /*node*/)
{
    declareLogWriters();
}

void
GraphOne::sessionClosed(unsigned /*node*/)
{
    declareLogWriters();
}

void
GraphOne::declareLogWriters()
{
    // Every session stores into the same log device — the shared-DIMM
    // write contention XPGraph's per-node logs avoid.
    logDevice_->setDeclaredWriters(std::max(1u, openSessions()));
}

bool
GraphOne::requestArchive(uint64_t &inline_ns)
{
    std::unique_lock<std::mutex> lock(archiveMutex_, std::try_to_lock);
    if (!lock.owns_lock())
        return false; // another session is archiving: keep logging
    const uint64_t before = archivingNs_.load(std::memory_order_relaxed);
    runArchivePhaseLocked();
    inline_ns += archivingNs_.load(std::memory_order_relaxed) - before;
    return true;
}

void
GraphOne::waitForLogSpace(unsigned /*node*/, uint64_t &inline_ns)
{
    // Archive (blocking on whoever is already at it) unless that
    // archiver already freed slots.
    std::lock_guard<std::mutex> lock(archiveMutex_);
    if (log_->freeSlots() > 0)
        return;
    const uint64_t before = archivingNs_.load(std::memory_order_relaxed);
    runArchivePhaseLocked();
    inline_ns += archivingNs_.load(std::memory_order_relaxed) - before;
}

void
GraphOne::archiveAll()
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    while (log_->nonBuffered() > 0)
        runArchivePhaseLocked();
}

// --- archiving ---------------------------------------------------------------

void
GraphOne::ensureCapacity(VertexMeta &meta, uint32_t increment)
{
    uint32_t free = 0;
    if (!meta.chunks.empty()) {
        const Chunk &tail = meta.chunks.back();
        free = tail.capacity - tail.count;
    }
    if (free >= increment)
        return;

    // Degree-proportional chunk sizing, as in GraphOne's archiving. The
    // new chunk must hold the whole increment (appends only ever target
    // the tail chunk; leftover slots in the old tail are abandoned).
    uint32_t capacity = std::max(
        increment,
        std::min(std::max(meta.records, kMinChunkRecords),
                 kMaxChunkRecords));
    const unsigned dev_idx = static_cast<unsigned>(
        chunkCounter_.fetch_add(1, std::memory_order_relaxed) %
        devices_.size());
    const uint64_t bytes = uint64_t{capacity} * sizeof(vid_t);
    const uint64_t off = allocators_[dev_idx]->alloc(bytes, kCacheLineSize);
    // GraphOne mallocs every chunk: the call, plus the kernel page-ins
    // of a large one.
    SimClock::charge(globalCostParams().sysAllocNs +
                     (bytes > 64 * 1024 ? (bytes / 4096) * 40 : 0));
    chargeFileIo(0); // file append: metadata update
    meta.chunks.push_back(Chunk{off, capacity, 0, dev_idx});
}

void
GraphOne::appendRecord(VertexMeta &meta, vid_t record)
{
    XPG_ASSERT(!meta.chunks.empty(), "append without capacity");
    Chunk *chunk = &meta.chunks.back();
    if (chunk->count == chunk->capacity) {
        // ensureCapacity() pre-allocated the next chunk.
        XPG_PANIC("chunk overflow despite pre-allocation");
    }
    // The defining GraphOne access: one 4-byte write per edge, landing at
    // an effectively random PMEM location.
    chargeDramRandom(sizeof(Chunk)); // metadata touch
    chargeFileIo(sizeof(vid_t));
    devices_[chunk->device]->write(
        chunk->off + uint64_t{chunk->count} * sizeof(vid_t), &record,
        sizeof(vid_t));
    ++chunk->count;
    ++meta.records;
    if (isDelete(record))
        ++meta.tombstones;
}

void
GraphOne::archiveWorker(unsigned w)
{
    // GraphOne is NUMA-oblivious: archive threads float. The per-edge
    // random chunk writes are the archive's traffic (thread-local tag,
    // so each worker opens its own scope).
    XPG_ATTR_SCOPE(attrScope, AdjacencyArchive);
    NumaBinding::unbindThread();

    // Shards partition the side vertices' space (src out, dst in), so
    // this worker owns every vertex it touches.
    for (unsigned d = 0; d < 2; ++d) {
        const bool out = d == 0;
        if (w >= assign_[d].size())
            continue;
        const ShardAssignment &a = assign_[d][w];
        std::vector<VertexMeta> &meta = meta_[d];

        // Pass 1: per-vertex degree increments for this batch.
        t_touched.clear();
        thread_local std::vector<uint32_t> inc;
        inc.resize(config_.maxVertices, 0);
        for (unsigned s = a.firstShard; s < a.lastShard; ++s) {
            for (const Edge &e : shards_[d][s]) {
                const vid_t v = sideVertex(e, out);
                chargeDramRandom(sizeof(uint32_t));
                if (inc[v]++ == 0)
                    t_touched.push_back(v);
            }
        }
        // Pass 2: allocate chunk space per touched vertex.
        for (vid_t v : t_touched)
            ensureCapacity(meta[v], inc[v]);
        // Pass 3: append every edge's record individually.
        for (unsigned s = a.firstShard; s < a.lastShard; ++s) {
            for (const Edge &e : shards_[d][s])
                appendRecord(meta[sideVertex(e, out)], sideRecord(e, out));
        }
        for (vid_t v : t_touched)
            inc[v] = 0;
    }
}

void
GraphOne::runArchivePhaseLocked()
{
    const uint64_t from = log_->bufferedUpTo();
    // Archive at most one threshold-sized batch per phase, as GraphOne
    // does in normal operation (archiveAll loops over phases). The
    // published head is the race-free snapshot of the log.
    const uint64_t to =
        std::min(log_->head(), from + config_.archiveThresholdEdges);
    if (from == to)
        return;

    // Runs on whichever client crossed the threshold (GraphOne archives
    // inline) — the trace shows it serializing that session's stream.
    telemetry::OpScope op(this, "archive_phase", telemetry::OpClass::Archive,
                          &archivingNs_, telArchivePhaseHist_);
    SimScope serial_scope;
    batch_.clear();
    {
        // Read the batch back from the log: archive traffic, not query.
        XPG_ATTR_SCOPE(attrScope, AdjacencyArchive);
        log_->readRange(from, to, batch_);
    }

    // Shard by src (out) and by dst (in) into temporary ranged edge lists.
    for (auto &shards : shards_)
        for (auto &list : shards)
            list.clear();
    const uint64_t nv = config_.maxVertices;
    for (const Edge &e : batch_) {
        XPG_ASSERT(rawVid(e.src) < nv && rawVid(e.dst) < nv,
                   "edge endpoint out of range");
        for (unsigned d = 0; d < 2; ++d)
            shards_[d][shardOf(sideVertex(e, d == 0), nv, shards_[d].size())]
                .push_back(e);
    }
    chargeDramSequential(batch_.size() * sizeof(Edge) * 3);
    for (unsigned d = 0; d < 2; ++d)
        assign_[d] = assignShards(shards_[d], config_.archiveThreads);

    // Archive-write load spreads over the devices holding the chunks
    // (one for the mmap'd PMEM variants, all nodes when interleaved).
    const unsigned writers = std::max<unsigned>(
        1, config_.archiveThreads /
               static_cast<unsigned>(devices_.size()));
    for (auto &dev : devices_)
        dev->setDeclaredWriters(writers);
    op.add(serial_scope.elapsed());

    const ParallelResult result =
        executor_->run([this](unsigned w) { archiveWorker(w); });
    op.add(result.maxNanos());
    // Between phases the stores come from the logging sessions (which
    // all target the shared log device).
    for (auto &dev : devices_)
        dev->setDeclaredWriters(1);
    declareLogWriters();

    log_->markBuffered(to);
    edgesArchived_ += to - from;
    ++archivePhases_;
}

// --- queries -----------------------------------------------------------------

/** Stream a vertex's live records through visitLiveRecords: its chunks in
 *  order, each charged as one file-system read of its records. */
template <typename F>
uint32_t
GraphOne::visitVertex(const VertexMeta &meta, F &&fn) const
{
    XPG_ATTR_SCOPE(attrScope, QueryRead);
    return visitLiveRecords(
        meta.tombstones != 0,
        [&](auto &&emit) {
            uint32_t n = 0;
            for (const Chunk &chunk : meta.chunks) {
                if (chunk.count == 0)
                    continue;
                const uint64_t bytes = uint64_t{chunk.count} * sizeof(vid_t);
                chargeFileIo(bytes);
                const auto *recs = reinterpret_cast<const vid_t *>(
                    devices_[chunk.device]->readView(chunk.off, bytes));
                for (uint32_t i = 0; i < chunk.count; ++i)
                    emit(recs[i]);
                n += chunk.count;
            }
            return n;
        },
        fn);
}

uint32_t
GraphOne::degreeOf(const VertexMeta &meta) const
{
    if (meta.tombstones != 0)
        return visitVertex(meta, [](vid_t) {}); // full charge
    chargeDramScattered(1); // one vertex-meta cache line
    return meta.records;
}

uint32_t
GraphOne::forEachNebrOut(vid_t v, NebrVisitor fn) const
{
    return visitVertex(meta_[0][v], fn);
}

uint32_t
GraphOne::forEachNebrIn(vid_t v, NebrVisitor fn) const
{
    return visitVertex(meta_[1][v], fn);
}

uint32_t
GraphOne::degreeOut(vid_t v) const
{
    return degreeOf(meta_[0][v]);
}

uint32_t
GraphOne::degreeIn(vid_t v) const
{
    return degreeOf(meta_[1][v]);
}

uint64_t
GraphOne::vertexWeight(vid_t v) const
{
    // Gathered by the query scheduler in one ascending-id bulk sweep of
    // the per-vertex metadata.
    chargeDramSequential(2 * kCacheLineSize);
    return kVertexFixedWeight + uint64_t{meta_[0][v].records} +
           meta_[1][v].records;
}

void
GraphOne::declareQueryThreads(unsigned n) const
{
    // Transition to the query phase (see XPGraph::declareQueryThreads).
    // Load spreads over however many devices hold the data — one for
    // the mmap-based PMEM variants, all nodes for the volatile ones.
    const unsigned per_device =
        std::max<unsigned>(1, n / static_cast<unsigned>(devices_.size()));
    for (auto &dev : devices_) {
        dev->quiesce();
        dev->setDeclaredReaders(per_device);
    }
}

std::unique_ptr<ReadView>
GraphOne::openView()
{
    // Exclude archive phases while the copy is taken: the chunk lists
    // and vertex meta only mutate under this lock, so the materialized
    // snapshot is a consistent image of the archived state. Sessions
    // may keep logging meanwhile (the log is not read here); see the
    // header for the freshness caveat. The copy runs as one query
    // thread.
    std::lock_guard<std::mutex> lock(archiveMutex_);
    declareQueryThreads(1);
    return std::make_unique<Snapshot>(
        *this, archivePhases_.load(std::memory_order_relaxed));
}

// --- introspection -------------------------------------------------------------

IngestStats
GraphOne::stats() const
{
    IngestStats s = sessionStats();
    // archiving fills the buffering slot
    s.bufferingNs = archivingNs_.load(std::memory_order_relaxed);
    s.edgesBuffered = edgesArchived_.load(std::memory_order_relaxed);
    s.bufferingPhases = archivePhases_.load(std::memory_order_relaxed);
    return s;
}

IngestStats
GraphOne::snapshotStats() const
{
    // Archive phases mutate archivingNs_/edgesArchived_/archivePhases_
    // while holding archiveMutex_; taking it here keeps the copy from
    // mixing a phase's partial updates.
    std::lock_guard<std::mutex> lock(archiveMutex_);
    return stats();
}

void
GraphOne::publishTelemetry() const
{
    auto &tel = telemetry::Telemetry::instance().metrics();
    const telemetry::Labels store{.store = "graphone"};
    const IngestStats s = snapshotStats();
    tel.gauge("ingest.logging_ns", store).set(s.loggingNs);
    tel.gauge("ingest.logging_ns_max", store).set(s.loggingNsMax);
    tel.gauge("ingest.client_ns_max", store).set(s.clientNsMax);
    tel.gauge("ingest.ingest_ns", store).set(s.ingestNs());
    tel.gauge("archive.buffering_ns", store).set(s.bufferingNs);
    tel.gauge("ingest.edges_logged_total", store).set(s.edgesLogged);
    tel.gauge("archive.edges_buffered_total", store).set(s.edgesBuffered);
    tel.gauge("ingest.sessions_opened", store).set(s.sessionsOpened);
    for (size_t i = 0; i < devices_.size(); ++i)
        devices_[i]->publishTelemetry("graphone", static_cast<int>(i));
    if (novaLogDevice_)
        novaLogDevice_->publishTelemetry("graphone", /*node_label=*/-1);
}

MemoryUsage
GraphOne::memoryUsage() const
{
    std::lock_guard<std::mutex> lock(archiveMutex_);
    MemoryUsage mu;
    for (const auto &metas : meta_) {
        mu.metaBytes += metas.capacity() * sizeof(VertexMeta);
        for (const auto &meta : metas)
            mu.metaBytes += meta.chunks.capacity() * sizeof(Chunk);
    }
    mu.metaBytes += batch_.capacity() * sizeof(Edge);
    for (const auto &shards : shards_)
        for (const auto &list : shards)
            mu.metaBytes += list.capacity() * sizeof(Edge);
    for (const auto &alloc : allocators_)
        mu.pblkBytes += alloc->used();
    mu.elogBytes = config_.elogCapacityEdges * sizeof(Edge);
    return mu;
}

} // namespace xpg
