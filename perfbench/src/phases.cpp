#include "phases.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "analytics/algorithms.hpp"
#include "analytics/query_driver.hpp"
#include "graph/read_view.hpp"
#include "util/sim_clock.hpp"

namespace perfbench {

using xpg::telemetry::AccessCategory;

namespace {

// The serving mix (see runServing).
constexpr unsigned kReadsPerWrite = 19; // 95/5
constexpr unsigned kBatchEdges = 64;
constexpr unsigned kDeleteEvery = 10;   // one edge in ten is a delete
constexpr uint64_t kReopenViewEvery = 512;
constexpr uint64_t kCompactEveryBatches = 256;

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Store-global counters sampled at one instant. */
struct CounterSample
{
    xpg::IngestStats stats;
    xpg::PcmCounters pcm;
    xpg::telemetry::AttributionSnapshot attr;
    xpg::CompressionStats comp;
    xpg::QueryProbe probe;

    static CounterSample of(const xpg::GraphStore &g);
};

CounterSample
CounterSample::of(const xpg::GraphStore &g)
{
    CounterSample s;
    s.stats = g.snapshotStats();
    s.pcm = g.pmemCounters();
    s.attr = g.pmemAttribution();
    s.comp = g.compressionStats();
    g.sampleQueryProbe(s.probe);
    return s;
}

/**
 * Per-layer metrics every phase reports from a counter delta: the pmem
 * device rows, the archive layers (log, buffering, flush, codec), the
 * query-path record split and compaction.
 */
void
addCounterMetrics(const xpg::GraphStore &g, const CounterSample &before,
                  const CounterSample &after, const PhaseEnv &env,
                  Metrics &m)
{
    const xpg::PcmCounters pcm = after.pcm - before.pcm;
    const xpg::telemetry::AttributionSnapshot attr = after.attr - before.attr;
    m["pmem.media_read_ops"] = pcm.mediaReadOps;
    m["pmem.media_write_ops"] = pcm.mediaWriteOps;
    m["pmem.buffer_hits"] = pcm.bufferHits;
    m["pmem.xpbuffer_hit_ratio"] =
        ratio(pcm.bufferHits, pcm.bufferHits + pcm.mediaReadOps);
    m["pmem.remote_accesses"] = pcm.remoteAccesses;
    for (AccessCategory c : xpg::telemetry::allAccessCategories()) {
        const std::string base =
            std::string("pmem.") + xpg::telemetry::accessCategoryName(c);
        m[base + ".media_read_bytes"] = attr[c].pcm.mediaBytesRead;
        m[base + ".media_write_bytes"] = attr[c].pcm.mediaBytesWritten;
    }
    // The per-category rows partition the device counters exactly on a
    // quiesced store (every phase ends quiesced: archiving is inline).
    const xpg::PcmCounters rows = attr.total();
    env.checks->expect(rows.mediaBytesWritten == pcm.mediaBytesWritten,
                       "attribution write rows == pcm write delta",
                       rows.mediaBytesWritten, pcm.mediaBytesWritten);
    env.checks->expect(rows.mediaBytesRead == pcm.mediaBytesRead,
                       "attribution read rows == pcm read delta",
                       rows.mediaBytesRead, pcm.mediaBytesRead);

    const xpg::IngestStats &s0 = before.stats;
    const xpg::IngestStats &s1 = after.stats;
    m["core.log.sim_ns"] = s1.loggingNs - s0.loggingNs;
    m["core.log.media_write_bytes"] =
        attr[AccessCategory::EdgeLogAppend].pcm.mediaBytesWritten;
    m["core.buffering.sim_ns"] = s1.bufferingNs - s0.bufferingNs;
    m["core.buffering.phases"] = s1.bufferingPhases - s0.bufferingPhases;
    m["core.buffering.vbuf_bytes"] = g.memoryUsage().vbufBytes;
    m["core.flush.sim_ns"] = s1.flushingNs - s0.flushingNs;
    m["core.flush.vbuf_flushes"] = s1.vbufFlushes - s0.vbufFlushes;
    m["core.flush.media_write_bytes"] =
        attr[AccessCategory::AdjacencyArchive].pcm.mediaBytesWritten +
        attr[AccessCategory::VertexMeta].pcm.mediaBytesWritten +
        attr[AccessCategory::AllocatorMeta].pcm.mediaBytesWritten;
    m["core.codec.encoded_bytes_per_record"] =
        ratio(after.comp.encodedBytes - before.comp.encodedBytes,
              after.comp.recordsCompressed - before.comp.recordsCompressed);
    m["core.codec.decoded_bytes"] =
        (after.comp.decodedRecords - before.comp.decodedRecords) *
        sizeof(vid_t);
    m["core.view.sealed_records"] =
        after.probe.sealedRecords - before.probe.sealedRecords;
    m["core.view.buffer_records"] =
        after.probe.bufferRecords - before.probe.bufferRecords;
    m["core.view.log_window_records"] =
        after.probe.logWindowRecords - before.probe.logWindowRecords;
    m["core.compaction.chains_rewritten"] =
        s1.compactionSlots - s0.compactionSlots;
    m["core.compaction.records_dropped"] =
        s1.compactionRecordsDropped - s0.compactionRecordsDropped;
    m["core.compaction.media_write_bytes"] =
        attr[AccessCategory::Compaction].pcm.mediaBytesWritten;
}

} // namespace

void
Checks::expect(bool ok, const char *what, uint64_t got, uint64_t want)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failed <= 10)
        std::fprintf(stderr, "check failed: %s: got %llu, want %llu\n", what,
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(want));
}

void
runIngest(xpg::XPGraph &g, std::span<const Edge> edges, const PhaseEnv &env,
          Metrics &m)
{
    constexpr uint64_t kBatch = 1024;
    const CounterSample before = CounterSample::of(g);
    const uint64_t t0 = hostNs();
    uint64_t calls = 0;
    uint64_t inline_archive_ns = 0;
    {
        auto session = g.session(0);
        for (uint64_t off = 0; off < edges.size(); off += kBatch) {
            const uint64_t n = std::min<uint64_t>(kBatch, edges.size() - off);
            SpanRecorder::Scope span(*env.spans, spanName::kSessionAdd,
                                     calls);
            session->addEdges(edges.data() + off, n);
            ++calls;
        }
        inline_archive_ns = session->streamNs() - session->loggingNs();
    }
    {
        SpanRecorder::Scope span(*env.spans, spanName::kArchive, 0);
        g.archiveAll();
    }
    const uint64_t host = hostNs() - t0;
    const CounterSample after = CounterSample::of(g);
    const xpg::MemoryUsage mem = g.memoryUsage();
    const double n = static_cast<double>(edges.size());

    m["host_wall_s"] = static_cast<double>(host) / 1e9;
    // The phase runs on an empty store, so the cumulative ingestNs() is
    // this stream's simulated ingest time.
    m["sim_ingest_meps"] =
        ratio(n * 1e3, static_cast<double>(after.stats.ingestNs()));
    m["media_write_bytes_per_edge"] =
        ratio(after.pcm.mediaBytesWritten - before.pcm.mediaBytesWritten, n);
    m["pmem_bytes_per_edge"] = ratio(mem.pblkBytes, n);
    m["dram_bytes_per_edge"] = ratio(mem.metaBytes + mem.vbufBytes, n);
    m["graph.session.calls"] = calls;
    m["graph.session.inline_archive_sim_ns"] = inline_archive_ns;
    addCounterMetrics(g, before, after, env, m);
}

AnalyticsExpect
expectAnalytics(const ReferenceGraph &ref, std::span<const vid_t> queries)
{
    AnalyticsExpect e;
    e.bfsRoot = ref.maxDegreeVertex();
    e.bfsReached = ref.bfsReached(e.bfsRoot);
    e.components = ref.components();
    for (vid_t v : queries)
        e.oneHopNebrs += ref.degree(v);
    return e;
}

namespace {

/** Per-kernel layer metrics from the kernel's round records. */
void
kernelMetrics(const std::string &kernel,
              const std::vector<xpg::RoundStats> &rounds, uint64_t host_ns,
              Metrics &m)
{
    uint64_t edges = 0;
    uint64_t read_bytes = 0;
    for (const xpg::RoundStats &r : rounds) {
        edges += r.edgesScanned;
        read_bytes += r.mediaReadBytes;
    }
    const std::string base = "analytics." + kernel;
    m[base + ".host_ns"] = host_ns;
    m[base + ".rounds"] = rounds.size();
    m[base + ".edges_scanned"] = edges;
    m[base + ".media_read_bytes"] = read_bytes;
    m[base + ".media_read_bytes_per_edge_scanned"] =
        ratio(read_bytes, edges);
}

} // namespace

void
runAnalytics(xpg::GraphView &view, std::span<const vid_t> queries,
             const AnalyticsExpect &expect, const PhaseEnv &env, Metrics &m)
{
    Checks &checks = *env.checks;
    const xpg::GraphStore &store = *view.backingStore();
    const CounterSample before = CounterSample::of(store);
    uint64_t total_host = 0;
    const auto timed = [&](const char *span, auto &&fn) {
        const uint64_t t0 = hostNs();
        {
            SpanRecorder::Scope scope(*env.spans, span, 0);
            fn();
        }
        const uint64_t host = hostNs() - t0;
        total_host += host;
        return host;
    };

    xpg::AnalyticsResult bfs;
    const uint64_t bfs_host = timed(spanName::kBfs, [&] {
        bfs = xpg::runBfs(view, expect.bfsRoot, env.threads);
    });
    checks.expect(bfs.touched == expect.bfsReached, "bfs reached",
                  bfs.touched, expect.bfsReached);
    m["bfs_sim_ms"] = static_cast<double>(bfs.simNs) / 1e6;
    kernelMetrics("bfs", bfs.rounds, bfs_host, m);

    xpg::AnalyticsResult pr;
    const uint64_t pr_host = timed(spanName::kPageRank, [&] {
        pr = xpg::runPageRank(view, 10, env.threads);
    });
    // Ranks sum to at most 1 (dangling vertices leak mass), never to 0.
    checks.expect(pr.checksum > 0 && pr.checksum <= 1'000'001,
                  "pagerank rank sum x1e6", pr.checksum, 1'000'000);
    m["pagerank_sim_ms"] = static_cast<double>(pr.simNs) / 1e6;
    kernelMetrics("pagerank", pr.rounds, pr_host, m);

    xpg::AnalyticsResult cc;
    const uint64_t cc_host = timed(spanName::kCc, [&] {
        cc = xpg::runConnectedComponents(view, env.threads);
    });
    checks.expect(cc.checksum == expect.components, "cc components",
                  cc.checksum, expect.components);
    // Per sweep: the in-place label propagation converges in a round
    // count that depends on how the query workers interleave on the host
    // (the same store takes 4 or 5 rounds from one pass to the next), so
    // the whole-kernel time is bimodal; the round count is reported per
    // layer.
    m["cc_round_sim_ms"] = static_cast<double>(cc.simNs) / 1e6 /
                           static_cast<double>(std::max<size_t>(
                               1, cc.rounds.size()));
    kernelMetrics("cc", cc.rounds, cc_host, m);

    // One-hop: stream every neighbor of each query vertex (runOneHop
    // reads only the degree cache and never touches an adjacency).
    uint64_t onehop_ns = 0;
    uint64_t nebrs = 0;
    std::vector<xpg::RoundStats> onehop_rounds;
    const uint64_t onehop_host = timed(spanName::kOneHop, [&] {
        xpg::QueryDriver query(view, env.threads, xpg::QueryBinding::Auto,
                               xpg::SchedulePolicy::Strided);
        std::vector<uint64_t> partial(query.numThreads(), 0);
        query.forEach(queries, [&](vid_t v, unsigned w) {
            partial[w] += view.forEachNebrOut(v, [](vid_t) {});
        });
        onehop_ns = query.totalNs();
        onehop_rounds = query.rounds();
        for (uint64_t p : partial)
            nebrs += p;
    });
    checks.expect(nebrs == expect.oneHopNebrs, "one-hop neighbor total",
                  nebrs, expect.oneHopNebrs);
    m["onehop_sim_ms"] = static_cast<double>(onehop_ns) / 1e6;
    kernelMetrics("onehop", onehop_rounds, onehop_host, m);

    m["host_wall_s"] = static_cast<double>(total_host) / 1e9;
    addCounterMetrics(store, before, CounterSample::of(store), env, m);
}

uint64_t
servingInsertEdges(const ServingPlan &plan)
{
    // Upper bound: a delete whose churn vertices are all drained turns
    // into an insert.
    const uint64_t writes = plan.ops / (kReadsPerWrite + 1);
    return writes * kBatchEdges;
}

namespace {

constexpr vid_t kNoVictim = ~vid_t{0};

/** A churn vertex that still has a live out-edge, or kNoVictim. */
vid_t
pickVictim(const ReferenceGraph &ref, std::span<const vid_t> churn,
           xpg::Rng &rng)
{
    const uint64_t start = rng.nextBounded(churn.size());
    for (uint64_t i = 0; i < churn.size(); ++i) {
        const vid_t v = churn[(start + i) % churn.size()];
        if (ref.degree(v) > 0)
            return v;
    }
    return kNoVictim;
}

} // namespace

void
runServing(xpg::XPGraph &g, ReferenceGraph &ref,
           std::span<const Edge> inserts, uint64_t &next_insert,
           std::span<const vid_t> read_vertices,
           std::span<const vid_t> churn_vertices, const ServingPlan &plan,
           const PhaseEnv &env, Metrics &m)
{
    Checks &checks = *env.checks;
    xpg::Rng rng(plan.seed);
    std::vector<ServedOp> ops;
    ops.reserve(plan.ops);
    std::vector<Edge> batch(kBatchEdges);
    uint64_t edge_count = 0;
    uint64_t batches = 0;
    uint64_t edges_written = 0;
    uint64_t opens = 0;

    const CounterSample before = CounterSample::of(g);
    const uint64_t t0 = hostNs();
    uint64_t stream_ns = 0;
    uint64_t logging_ns = 0;
    {
        auto session = g.session(0);
        std::unique_ptr<xpg::ReadView> view;
        uint64_t last_stream = session->streamNs();
        for (uint64_t op = 0; op < plan.ops; ++op) {
            if (op % kReopenViewEvery == 0) {
                SpanRecorder::Scope span(*env.spans, spanName::kViewOpen,
                                         op);
                // The replacement opens before the old view closes, so the
                // epoch capture stays cached across the swap.
                view = g.openView();
                ref.markViewOpened();
                ++opens;
            }
            const bool write = op % (kReadsPerWrite + 1) ==
                               kReadsPerWrite;
            if (write) {
                for (Edge &e : batch) {
                    const vid_t victim =
                        ++edge_count % kDeleteEvery == 0
                            ? pickVictim(ref, churn_vertices, rng)
                            : kNoVictim;
                    if (victim != kNoVictim) {
                        const Edge d = ref.removeRandomOf(victim, rng);
                        e = Edge{d.src, xpg::asDelete(d.dst)};
                    } else {
                        e = inserts[next_insert++];
                        ref.insert(e);
                    }
                }
                {
                    SpanRecorder::Scope span(*env.spans,
                                             spanName::kSessionAdd, op);
                    session->addEdges(batch.data(), batch.size());
                }
                const uint64_t now = session->streamNs();
                uint64_t service = now - last_stream;
                last_stream = now;
                edges_written += batch.size();
                if (++batches % kCompactEveryBatches == 0) {
                    // The pass runs on the serving thread, so the write
                    // that triggered it (and every op queued behind it)
                    // waits for it.
                    SpanRecorder::Scope span(*env.spans,
                                             spanName::kCompaction, op);
                    xpg::SimScope pass;
                    g.runCompactionPass();
                    service += pass.elapsed();
                }
                ops.push_back(ServedOp{service, true});
            } else {
                const vid_t v =
                    read_vertices[rng.nextBounded(read_vertices.size())];
                xpg::SimScope read;
                uint32_t n = 0;
                {
                    SpanRecorder::Scope span(*env.spans,
                                             spanName::kViewRead, op);
                    n = view->forEachNebrOut(v, [](vid_t) {});
                }
                ops.push_back(ServedOp{read.elapsed(), false});
                checks.expect(n == ref.degreeAtView(v), "view read degree",
                              n, ref.degreeAtView(v));
            }
        }
        view.reset();
        stream_ns = session->streamNs();
        logging_ns = session->loggingNs();
    }
    const uint64_t host = hostNs() - t0;
    const CounterSample after = CounterSample::of(g);
    const xpg::MemoryUsage mem = g.memoryUsage();
    const double live = static_cast<double>(ref.liveEdges());

    m["host_wall_s"] = static_cast<double>(host) / 1e9;
    m["sim_ingest_meps"] =
        ratio(static_cast<double>(edges_written) * 1e3,
              static_cast<double>(stream_ns));
    m["media_write_bytes_per_edge"] =
        ratio(after.pcm.mediaBytesWritten - before.pcm.mediaBytesWritten,
              edges_written);
    m["pmem_bytes_per_edge"] = ratio(mem.pblkBytes, live);
    m["dram_bytes_per_edge"] = ratio(mem.metaBytes + mem.vbufBytes, live);
    m["graph.session.calls"] = batches;
    m["graph.session.inline_archive_sim_ns"] = stream_ns - logging_ns;
    m["core.view.opens"] = opens;

    std::vector<uint64_t> read_service;
    for (const ServedOp &o : ops)
        if (!o.write)
            read_service.push_back(o.serviceNs);
    std::sort(read_service.begin(), read_service.end());
    m["core.view.read_service_sim_ns_p50"] =
        quantileSorted(read_service, 0.50);
    m["core.view.read_service_sim_ns_p99"] =
        quantileSorted(read_service, 0.99);

    // Latency at the fixed offered rates; the middle one is the
    // end-to-end operating point.
    const size_t mid = env.ratesKops.size() / 2;
    for (size_t i = 0; i < env.ratesKops.size(); ++i) {
        const ReplayResult r = replayAtRate(ops, env.ratesKops[i]);
        std::printf("serving replay: rate %.0f kops: read p50 %.2f us, "
                    "read p99 %.2f us, write p99 %.2f us, backlog at last "
                    "arrival %llu ops (%.2f us wait)%s\n",
                    r.rateKops, r.readP50Ns / 1e3, r.readP99Ns / 1e3,
                    r.writeP99Ns / 1e3,
                    static_cast<unsigned long long>(r.backlogOps),
                    r.backlogWaitNs / 1e3,
                    r.meets(env.readP99LimitNs) ? "" : "  [misses limit]");
        if (i == mid) {
            m["read_p50_sim_us"] = r.readP50Ns / 1e3;
            m["read_p99_sim_us"] = r.readP99Ns / 1e3;
            m["write_p99_sim_us"] = r.writeP99Ns / 1e3;
            m["serving.backlog_ops_at_last_arrival"] = r.backlogOps;
        }
    }
    m["max_rate_kops"] = maxSustainableKops(
        ops, env.readP99LimitNs, env.ratesKops.front() / 16.0,
        env.ratesKops.back() * 16.0);
    addCounterMetrics(g, before, after, env, m);
}

} // namespace perfbench
