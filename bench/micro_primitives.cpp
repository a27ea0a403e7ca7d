/**
 * @file
 * google-benchmark microbenchmarks of the substrate primitives: modeled
 * device accesses (host-side overhead of the simulation itself), the
 * XPBuffer, the heat table and histogram every access records into, the
 * buddy vertex-buffer pool, one session append on each
 * engine, an idle compaction pass, the query primitives, and edge
 * generation. These measure HOST time (the cost of running the
 * model), unlike the figure/table benches which report simulated time.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "baselines/graphone.hpp"
#include "core/adjacency_codec.hpp"
#include "core/xpgraph.hpp"
#include "graph/generators.hpp"
#include "graph/tombstones.hpp"
#include "mempool/vertex_buffer_pool.hpp"
#include "pmem/dram_device.hpp"
#include "pmem/pmem_device.hpp"
#include "pmem/xpbuffer.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/histogram.hpp"
#include "util/rng.hpp"

namespace {

using namespace xpg;

/** A small flushed XPGraph shared by the query-primitive benches. */
XPGraph &
queryGraph()
{
    static std::unique_ptr<XPGraph> graph = [] {
        const vid_t nv = 1 << 10;
        XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
        c.elogCapacityEdges = 1 << 14;
        c.bufferingThresholdEdges = 1 << 10;
        c.archiveThreads = 4;
        auto edges = generateRmat(10, 40000, RmatParams{}, 55);
        c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
        auto g = std::make_unique<XPGraph>(c);
        g->session(0)->addEdges(edges.data(), edges.size());
        g->bufferAllEdges();
        g->flushAllVbufs();
        return g;
    }();
    return *graph;
}

/** A device whose image pages have all been written once, so the
 *  timed loop of a random-write row never takes a first-touch fault. */
std::unique_ptr<PmemDevice>
warmDevice(uint64_t bytes)
{
    auto dev = std::make_unique<PmemDevice>("bm", bytes, 0, 1);
    const uint32_t v = 0;
    for (uint64_t page = 0; page < bytes; page += 4096)
        dev->write(page, &v, 4);
    return dev;
}

/** The 64 MiB warm image the random-access rows share. */
PmemDevice &
warmImage()
{
    static const std::unique_ptr<PmemDevice> dev = warmDevice(64 << 20);
    return *dev;
}

void
BM_PmemDeviceRandomWrite4B(benchmark::State &state)
{
    PmemDevice &dev = warmImage();
    Rng rng(1);
    uint32_t v = 0;
    for (auto _ : state) {
        dev.write(4 + 256 * rng.nextBounded((64 << 20) / 256 - 1), &v, 4);
        ++v;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmemDeviceRandomWrite4B);

/** The read side: one whole XPLine loaded from a random line of the
 *  warm image, a buffer miss almost every time. */
void
BM_PmemDeviceRandomRead256B(benchmark::State &state)
{
    PmemDevice &dev = warmImage();
    Rng rng(4);
    std::vector<uint8_t> line(256);
    for (auto _ : state) {
        dev.read(256 * rng.nextBounded((64 << 20) / 256), line.data(),
                 line.size());
        benchmark::DoNotOptimize(line.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PmemDeviceRandomRead256B);

/**
 * The same 4-byte scatter with several threads storing to one shared
 * device (disjoint lines, shared XPBuffer sets and heat-table shards):
 * the host cost of the model's bookkeeping under concurrency. Sixteen
 * threads on a smaller host are the paper benches' oversubscription
 * (16 archive workers), where a set's lock holder can lose its core.
 */
void
BM_PmemDeviceSharedRandomWrite4B(benchmark::State &state)
{
    static const std::unique_ptr<PmemDevice> dev = warmDevice(64 << 20);
    const uint64_t lines_per_thread = (64 << 20) / 256 / state.threads();
    Rng rng(1 + state.thread_index());
    const uint64_t base = state.thread_index() * lines_per_thread;
    uint32_t v = 0;
    for (auto _ : state) {
        dev->write(4 + 256 * (base + rng.nextBounded(lines_per_thread)), &v,
                   4);
        ++v;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmemDeviceSharedRandomWrite4B)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

/**
 * What the warm rows leave out: mapping a fresh 64 MiB image and taking
 * the first-touch fault of each of its 4 KiB pages. Host time that
 * depends on the host's huge-page mode, so the micro stage does not
 * gate it.
 */
void
BM_PmemImageFirstTouch(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(warmDevice(64 << 20));
    state.SetItemsProcessed(state.iterations() * ((64 << 20) / 4096));
}
BENCHMARK(BM_PmemImageFirstTouch)->Unit(benchmark::kMillisecond);

void
BM_PmemDeviceSequentialWrite256B(benchmark::State &state)
{
    PmemDevice dev("bm", 64 << 20, 0, 1);
    std::vector<uint8_t> line(256, 7);
    uint64_t off = 0;
    for (auto _ : state) {
        dev.write(off, line.data(), line.size());
        off = (off + 256) % (60 << 20);
    }
    state.SetBytesProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PmemDeviceSequentialWrite256B);

void
BM_DramDeviceWrite(benchmark::State &state)
{
    DramDevice dev("bm", 16 << 20, 0, 1);
    Rng rng(2);
    uint32_t v = 0;
    for (auto _ : state)
        dev.write(4 * rng.nextBounded((16 << 20) / 4 - 1), &v, 4);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramDeviceWrite);

void
BM_XPBufferStore(benchmark::State &state)
{
    XPBuffer buf;
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(buf.store(rng.nextBounded(100000), false));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XPBufferStore);

/**
 * Loads of random lines from a range of state.range(0) lines through the
 * default 512-line buffer: 256 lines stay resident (every load hits), 64x
 * the capacity makes almost every load a miss that evicts.
 */
void
BM_XPBufferLoad(benchmark::State &state)
{
    XPBuffer buf;
    Rng rng(5);
    const auto lines = static_cast<uint64_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(buf.load(rng.nextBounded(lines)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XPBufferLoad)->Arg(256)->Arg(512 * 64);

/**
 * One heat-table touch on a full table (every shard tracks its share):
 * of a tracked line (the shard lock and probe) and of a line the table
 * never admitted (the filter fast path).
 */
telemetry::LineHeatTable &
fullHeatTable()
{
    static std::unique_ptr<telemetry::LineHeatTable> heat = [] {
        auto h = std::make_unique<telemetry::LineHeatTable>();
        // Shard s admits s, s + 16, ... in order: lines below the
        // capacity are the tracked ones.
        for (uint64_t line = 0; line < 2 * h->kDefaultCapacity; ++line)
            h->touch(line, telemetry::AccessCategory::Other, true);
        return h;
    }();
    return *heat;
}

void
BM_LineHeatTouchAdmitted(benchmark::State &state)
{
    telemetry::LineHeatTable &heat = fullHeatTable();
    Rng rng(4);
    for (auto _ : state) {
        heat.touch(rng.nextBounded(telemetry::LineHeatTable::kDefaultCapacity),
                   telemetry::AccessCategory::QueryRead, false);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineHeatTouchAdmitted);

void
BM_LineHeatTouchNotAdmitted(benchmark::State &state)
{
    telemetry::LineHeatTable &heat = fullHeatTable();
    Rng rng(5);
    for (auto _ : state) {
        heat.touch(telemetry::LineHeatTable::kDefaultCapacity +
                       rng.nextBounded(uint64_t{1} << 24),
                   telemetry::AccessCategory::QueryRead, false);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineHeatTouchNotAdmitted);

/** One sample into a sharded histogram (every media event records one). */
void
BM_HistogramRecord(benchmark::State &state)
{
    telemetry::ShardedHistogram hist;
    Rng rng(6);
    for (auto _ : state) {
        hist.record(rng.nextBounded(4096));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void
BM_PoolAllocFree(benchmark::State &state)
{
    VertexBufferPool pool;
    const uint32_t size = static_cast<uint32_t>(state.range(0));
    for (auto _ : state) {
        std::byte *p = pool.alloc(size);
        benchmark::DoNotOptimize(p);
        pool.free(p, size);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocFree)->Arg(16)->Arg(64)->Arg(256);

void
BM_PoolGrowChain(benchmark::State &state)
{
    // The hierarchical-buffer pattern: alloc 16, migrate up to 256.
    VertexBufferPool pool;
    for (auto _ : state) {
        uint32_t bytes = 16;
        std::byte *buf = pool.alloc(bytes);
        while (bytes < 256) {
            std::byte *next = pool.alloc(bytes * 2);
            pool.free(buf, bytes);
            buf = next;
            bytes *= 2;
        }
        pool.free(buf, bytes);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolGrowChain);

void
BM_PoolMassFree(benchmark::State &state)
{
    // A view-limbo drain: N parked vertex buffers of the 16..256 B layers
    // go back to the pool in retirement order, which is not allocation
    // order (flush workers retire by vertex slot). Time per free must not
    // grow with the number of free blocks.
    const uint64_t n = static_cast<uint64_t>(state.range(0));
    VertexBufferPool pool;
    std::vector<std::pair<std::byte *, uint32_t>> parked(n);
    for (auto _ : state) {
        state.PauseTiming();
        Rng rng(5);
        for (auto &[buf, bytes] : parked) {
            bytes = 16u << rng.nextBounded(5);
            buf = pool.alloc(bytes);
        }
        for (uint64_t i = n - 1; i > 0; --i)
            std::swap(parked[i], parked[rng.nextBounded(i + 1)]);
        state.ResumeTiming();
        for (const auto &[buf, bytes] : parked)
            pool.free(buf, bytes);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PoolMassFree)->Arg(1 << 13)->Arg(1 << 15);

/** Iterations of BM_SessionAppend64: its stores are sized for exactly
 *  this many 64-edge writes, so no run length can exhaust PMEM. */
constexpr uint64_t kSessionAppendCalls = 1 << 13;

void
BM_SessionAppend64(benchmark::State &state)
{
    // The serving write (fig_serving, perfbench serving): one 64-edge
    // addEdges through a session, amortizing the inline archive phases
    // the calls trigger. Arg 0 = XPGraph, 1 = GraphOne-P. Real time:
    // the phases' workers run on the archive executor's threads.
    const vid_t nv = 1 << 14;
    const uint64_t total = kSessionAppendCalls * 64;
    const auto edges = generateRmat(14, total, RmatParams{}, 88);
    std::unique_ptr<GraphStore> store;
    if (state.range(0) == 0) {
        XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
        c.elogCapacityEdges = 1 << 16;
        c.bufferingThresholdEdges = 1 << 12;
        c.archiveThreads = 4;
        c.pmemBytesPerNode = recommendedBytesPerNode(c, total);
        store = std::make_unique<XPGraph>(c);
    } else {
        GraphOneConfig c;
        c.maxVertices = nv;
        c.elogCapacityEdges = 1 << 16;
        c.archiveThresholdEdges = 1 << 12;
        c.archiveThreads = 4;
        c.bytesPerNode = graphoneRecommendedBytesPerNode(c, total);
        store = std::make_unique<GraphOne>(c);
    }
    auto session = store->session(0);
    const Edge *next = edges.data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(session->addEdges(next, 64));
        next += 64;
    }
    state.SetItemsProcessed(state.iterations() * 64);
    state.SetLabel(state.range(0) == 0 ? "xpgraph" : "graphone-p");
}
BENCHMARK(BM_SessionAppend64)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(kSessionAppendCalls)
    ->UseRealTime();

void
BM_CompactionPassIdle(benchmark::State &state)
{
    // A compaction pass with nothing to rewrite: every slot of both
    // sides holds a tombstone, but none reaches the record floor (16
    // inserts and one delete per vertex), so no chain qualifies. The
    // store is built once; every iteration is one more idle pass.
    static std::unique_ptr<XPGraph> graph = [] {
        const vid_t nv = 1 << 15;
        constexpr vid_t kDegree = 16;
        std::vector<Edge> edges;
        std::vector<Edge> deletes;
        for (vid_t v = 0; v < nv; ++v) {
            for (vid_t k = 0; k < kDegree; ++k)
                edges.push_back({v, (v * 7 + k * 131 + 1) % nv});
            deletes.push_back(edges[v * kDegree + v % kDegree]);
        }
        XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
        c.elogCapacityEdges = 1 << 20;
        c.bufferingThresholdEdges = 1 << 16;
        c.archiveThreads = 4;
        c.pmemBytesPerNode =
            recommendedBytesPerNode(c, edges.size() + deletes.size());
        auto g = std::make_unique<XPGraph>(c);
        g->session(0)->addEdges(edges.data(), edges.size());
        g->session(0)->delEdges(deletes.data(), deletes.size());
        g->archiveAll();
        g->runCompactionPass();
        return g;
    }();
    for (auto _ : state)
        benchmark::DoNotOptimize(graph->runCompactionPass());
}
BENCHMARK(BM_CompactionPassIdle);

void
BM_GetNebrsVector(benchmark::State &state)
{
    // Materializing Table-I read: every call copies the adjacency into
    // a caller vector (host-side) on top of the modeled device charges.
    XPGraph &g = queryGraph();
    Rng rng(4);
    std::vector<vid_t> nebrs;
    for (auto _ : state) {
        nebrs.clear();
        benchmark::DoNotOptimize(
            g.getNebrsOut(rng.nextBounded(g.numVertices()), nebrs));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetNebrsVector);

void
BM_GetNebrsVisitor(benchmark::State &state)
{
    // Zero-copy read: same modeled charges, no materialization.
    XPGraph &g = queryGraph();
    Rng rng(4);
    for (auto _ : state) {
        uint64_t sum = 0;
        g.forEachNebrOut(rng.nextBounded(g.numVertices()),
                         [&](vid_t n) { sum += n; });
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetNebrsVisitor);

void
BM_DegreeVector(benchmark::State &state)
{
    // Degree via full materialization (how kernels counted degrees
    // before the live-degree cache).
    XPGraph &g = queryGraph();
    Rng rng(5);
    std::vector<vid_t> nebrs;
    for (auto _ : state) {
        nebrs.clear();
        benchmark::DoNotOptimize(
            g.getNebrsOut(rng.nextBounded(g.numVertices()), nebrs));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DegreeVector);

void
BM_DegreeCached(benchmark::State &state)
{
    XPGraph &g = queryGraph();
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            g.degreeOut(rng.nextBounded(g.numVertices())));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DegreeCached);

void
BM_LogWindowQuery(benchmark::State &state)
{
    // Non-archived edge queries through the chained log-window index
    // (previously a full scan of the un-buffered log per query).
    const vid_t nv = 1 << 10;
    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.elogCapacityEdges = 1 << 14;
    c.bufferingThresholdEdges = 1 << 13; // keep edges in the log
    c.pmemBytesPerNode = recommendedBytesPerNode(c, 8192);
    XPGraph g(c);
    auto edges = generateRmat(10, 4096, RmatParams{}, 77);
    g.session(0)->addEdges(edges.data(), edges.size());
    Rng rng(6);
    std::vector<vid_t> nebrs;
    for (auto _ : state) {
        nebrs.clear();
        benchmark::DoNotOptimize(
            g.getNebrsLogOut(rng.nextBounded(nv), nebrs));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogWindowQuery);

void
BM_TombstoneFold(benchmark::State &state)
{
    // Tombstone cancellation over a hub's raw records; Arg = distinct
    // delete targets. 8 stays on the linear stack probe, 64 fills the
    // stack set (sorted binary-search path), 1024 spills to the heap —
    // the regime where the old per-record linear probing was
    // O(records x targets).
    const uint32_t targets = static_cast<uint32_t>(state.range(0));
    const uint32_t inserts = 8 * targets;
    Rng rng(42);
    std::vector<vid_t> raw;
    raw.reserve(inserts + 2 * targets);
    for (uint32_t i = 0; i < inserts; ++i)
        raw.push_back(rng.nextBounded(2 * targets));
    // Two delete records per target: cancels roughly a quarter of the
    // inserts, tracked ids cover half the id space.
    for (uint32_t t = 0; t < targets; ++t) {
        raw.push_back(asDelete(t));
        raw.push_back(asDelete(t));
    }
    uint64_t live = 0;
    for (auto _ : state) {
        uint64_t n = 0;
        live = cancelTombstonesVisit(
            raw, [&](vid_t v) { benchmark::DoNotOptimize(v); ++n; });
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations() * raw.size());
    state.counters["live"] = static_cast<double>(live);
}
BENCHMARK(BM_TombstoneFold)->Arg(8)->Arg(64)->Arg(1024);

/** A sorted hub neighbor run shaped like an archived flush (clustered
 *  rmat destinations), for the codec benches below. */
std::vector<vid_t>
codecRun(uint32_t n)
{
    auto edges = generateRmat(20, n, RmatParams{}, 33);
    std::vector<vid_t> run;
    run.reserve(n);
    for (const Edge &e : edges)
        run.push_back(e.dst);
    std::sort(run.begin(), run.end());
    return run;
}

void
BM_AdjCodecEncode(benchmark::State &state)
{
    const auto run = codecRun(static_cast<uint32_t>(state.range(0)));
    std::vector<std::byte> payload;
    uint64_t bytes = 0;
    for (auto _ : state) {
        payload.clear();
        bytes = adjcodec::encodeRun(
            run.data(), static_cast<uint32_t>(run.size()), payload);
        benchmark::DoNotOptimize(payload.data());
    }
    state.SetItemsProcessed(state.iterations() * run.size());
    state.counters["bytes_per_edge"] = benchmark::Counter(
        static_cast<double>(bytes) / static_cast<double>(run.size()));
}
BENCHMARK(BM_AdjCodecEncode)->Arg(128)->Arg(1024)->Arg(16384);

void
BM_AdjCodecDecode(benchmark::State &state)
{
    const auto run = codecRun(static_cast<uint32_t>(state.range(0)));
    std::vector<std::byte> payload;
    adjcodec::encodeRun(run.data(), static_cast<uint32_t>(run.size()),
                        payload);
    for (auto _ : state) {
        uint64_t sum = 0;
        adjcodec::decodeRun(payload.data(), payload.size(),
                            [&](vid_t v) { sum += v; });
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * run.size());
    state.counters["bytes_per_edge"] = benchmark::Counter(
        static_cast<double>(payload.size()) /
        static_cast<double>(run.size()));
}
BENCHMARK(BM_AdjCodecDecode)->Arg(128)->Arg(1024)->Arg(16384);

void
BM_AdjRawCopyBaseline(benchmark::State &state)
{
    // The raw format's per-edge cost for comparison with the codec rows:
    // a 4 B/record memcpy plus the summing walk the decode bench does.
    const auto run = codecRun(static_cast<uint32_t>(state.range(0)));
    std::vector<vid_t> block(run.size());
    for (auto _ : state) {
        std::memcpy(block.data(), run.data(),
                    run.size() * sizeof(vid_t));
        uint64_t sum = 0;
        for (vid_t v : block)
            sum += v;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * run.size());
    state.counters["bytes_per_edge"] =
        benchmark::Counter(static_cast<double>(sizeof(vid_t)));
}
BENCHMARK(BM_AdjRawCopyBaseline)->Arg(128)->Arg(1024)->Arg(16384);

void
BM_RmatGenerate(benchmark::State &state)
{
    for (auto _ : state) {
        auto edges = generateRmat(16, 10000, RmatParams{}, 9);
        benchmark::DoNotOptimize(edges.data());
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_RmatGenerate);

} // namespace

BENCHMARK_MAIN();
