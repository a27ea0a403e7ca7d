/**
 * @file
 * Telemetry subsystem tests: log2 histogram bucket boundaries,
 * quantiles and merging; concurrent sharded recording; trace-ring
 * wraparound under concurrent writers (run under TSAN by the CI's
 * XPG_TSAN stage via the Telemetry* filter); metrics-registry handle
 * stability for gauges and histograms; and snapshot / trace JSON
 * round-trips through a minimal
 * in-test JSON parser — proving the exported documents are really
 * parseable, not just printf-shaped.
 *
 * Two tests pin what telemetry must never do: charge SimClock, or
 * change a simulated result when its readers run between steps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/algorithms.hpp"
#include "core/xpgraph.hpp"
#include "graph/generators.hpp"
#include "mini_json.hpp"
#include "pmem/pcm_counters.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/op_scope.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace xpg {
namespace {

using telemetry::EventLevel;
using telemetry::Histogram;
using telemetry::Labels;
using telemetry::MetricSeries;
using telemetry::MetricsRegistry;
using telemetry::ShardedHistogram;
using telemetry::TraceBuffer;
using telemetry::TraceEventView;

using minijson::MiniJson;
using minijson::MiniJsonParser;
using minijson::parseOrDie;

// ---------------------------------------------------------------------------
// Histogram: bucket boundaries, quantiles, merge.
// ---------------------------------------------------------------------------

TEST(TelemetryHistogram, BucketBoundaries)
{
    // The first buckets are exact singletons / power-of-two ranges.
    EXPECT_EQ(Histogram::bucketFor(0), 0u);
    EXPECT_EQ(Histogram::bucketFor(1), 1u);
    EXPECT_EQ(Histogram::bucketFor(2), 2u);
    EXPECT_EQ(Histogram::bucketFor(3), 2u);
    EXPECT_EQ(Histogram::bucketFor(4), 3u);
    EXPECT_EQ(Histogram::bucketFor(~uint64_t{0}), 64u);

    // Every bucket's [lo, hi] maps back to itself, and the values just
    // outside land in the neighboring buckets.
    for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
        const uint64_t lo = Histogram::bucketLo(b);
        const uint64_t hi = Histogram::bucketHi(b);
        EXPECT_LE(lo, hi) << "bucket " << b;
        EXPECT_EQ(Histogram::bucketFor(lo), b) << "lo of bucket " << b;
        EXPECT_EQ(Histogram::bucketFor(hi), b) << "hi of bucket " << b;
        if (b + 1 < Histogram::kBuckets) {
            EXPECT_EQ(Histogram::bucketFor(hi + 1), b + 1)
                << "hi+1 of bucket " << b;
        }
        if (b >= 1 && lo > 0) {
            EXPECT_EQ(Histogram::bucketFor(lo - 1), b - 1)
                << "lo-1 of bucket " << b;
        }
    }
}

TEST(TelemetryHistogram, CountsSumsAndQuantiles)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0); // empty

    // A constant distribution: quantiles interpolate inside the one
    // occupied log2 bucket ([512,1023] for 1000) and are clamped to
    // the observed max, so they land in [bucketLo, 1000].
    for (int i = 0; i < 100; ++i)
        h.record(1000);
    EXPECT_EQ(h.count, 100u);
    EXPECT_EQ(h.sum, 100000u);
    EXPECT_EQ(h.maxValue, 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
    EXPECT_GE(h.quantile(0.50), 512.0);
    EXPECT_LE(h.quantile(0.50), 1000.0);
    EXPECT_GE(h.quantile(0.99), h.quantile(0.50));
    EXPECT_LE(h.quantile(0.99), 1000.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0); // clamp hits the max

    // A bimodal distribution: p50 stays in the low mode's bucket, p99
    // in the high mode's.
    Histogram bi;
    for (int i = 0; i < 98; ++i)
        bi.record(16); // bucket [16,31]
    for (int i = 0; i < 2; ++i)
        bi.record(1 << 20);
    EXPECT_GE(bi.quantile(0.50), 16.0);
    EXPECT_LE(bi.quantile(0.50), 31.0);
    EXPECT_GE(bi.quantile(0.99), static_cast<double>(1 << 19));
    EXPECT_LE(bi.quantile(0.99), static_cast<double>(1 << 20));
    // Quantiles never exceed the observed max, even at q=1.
    EXPECT_LE(bi.quantile(1.0), static_cast<double>(1 << 20));
}

TEST(TelemetryHistogram, MergeIsExactOnCountsAndSums)
{
    Histogram a;
    Histogram b;
    for (int i = 0; i < 50; ++i)
        a.record(8);
    for (int i = 0; i < 50; ++i)
        b.record(1 << 12);
    const uint64_t total_sum = a.sum + b.sum;

    a.merge(b);
    EXPECT_EQ(a.count, 100u);
    EXPECT_EQ(a.sum, total_sum);
    EXPECT_EQ(a.maxValue, uint64_t{1} << 12);
    // Half the mass at 8, half at 4096: the median sits between the
    // modes, p99 in the top bucket.
    EXPECT_GE(a.quantile(0.99), static_cast<double>(1 << 11));
    EXPECT_LE(a.quantile(0.99), static_cast<double>(1 << 12));
}

TEST(TelemetryHistogram, ShardedConcurrentRecording)
{
    ShardedHistogram sh;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;

    std::atomic<bool> stop{false};
    // A concurrent reader exercises the record/snapshot race TSAN
    // checks for; its intermediate counts must never exceed the final.
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const Histogram snap = sh.snapshot();
            EXPECT_LE(snap.count, kThreads * kPerThread);
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&sh, t] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                sh.record(static_cast<uint64_t>(t) + 1);
        });
    for (std::thread &w : writers)
        w.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    const Histogram merged = sh.snapshot();
    EXPECT_EQ(merged.count, kThreads * kPerThread);
    uint64_t expected_sum = 0;
    for (int t = 0; t < kThreads; ++t)
        expected_sum += (static_cast<uint64_t>(t) + 1) * kPerThread;
    EXPECT_EQ(merged.sum, expected_sum);
    EXPECT_EQ(merged.maxValue, static_cast<uint64_t>(kThreads));

    sh.resetValues();
    EXPECT_EQ(sh.snapshot().count, 0u);
}

TEST(TelemetryHistogram, ShardedRecordIsExactAcrossThreads)
{
    // Each thread writes its own shard with plain loads and stores; once
    // the threads are joined the merge must be exact in every field, not
    // only close. Seeded samples span many buckets, and each thread has
    // its own maximum so the merged max comes from one shard.
    constexpr unsigned kThreads = 6;
    constexpr unsigned kPerThread = 30000;
    const auto sample = [](Rng &rng, unsigned t) {
        return rng.nextBounded(uint64_t{1} << (4 + 3 * t));
    };
    ShardedHistogram sh;
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kThreads; ++t)
        writers.emplace_back([&sh, &sample, t] {
            Rng rng(100 + t);
            for (unsigned i = 0; i < kPerThread; ++i)
                sh.record(sample(rng, t));
        });
    for (std::thread &w : writers)
        w.join();

    Histogram expected;
    for (unsigned t = 0; t < kThreads; ++t) {
        Rng rng(100 + t);
        for (unsigned i = 0; i < kPerThread; ++i)
            expected.record(sample(rng, t));
    }
    const Histogram merged = sh.snapshot();
    EXPECT_EQ(merged.count, uint64_t{kThreads} * kPerThread);
    EXPECT_EQ(merged.count, expected.count);
    EXPECT_EQ(merged.sum, expected.sum);
    EXPECT_EQ(merged.maxValue, expected.maxValue);
    for (unsigned b = 0; b < Histogram::kBuckets; ++b)
        EXPECT_EQ(merged.buckets[b], expected.buckets[b]) << "bucket " << b;
}

// ---------------------------------------------------------------------------
// Trace ring: wraparound, concurrent writers, consistency of reads.
// ---------------------------------------------------------------------------

TEST(TelemetryTraceRing, WraparoundKeepsNewestEvents)
{
    TraceBuffer ring(64);
    for (uint64_t i = 0; i < 1000; ++i)
        ring.emitComplete("span", "test", /*tsNs=*/i, /*durNs=*/1,
                          /*simNs=*/i);
    EXPECT_EQ(ring.emitted(), 1000u);

    const std::vector<TraceEventView> events = ring.collect();
    EXPECT_EQ(events.size(), 64u);
    // The ring holds exactly the newest lap, in ticket order.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].ticket, 1000 - 64 + i);
        EXPECT_EQ(events[i].tsNs, events[i].ticket); // payload matches
        EXPECT_STREQ(events[i].name, "span");
    }
}

TEST(TelemetryTraceRing, ConcurrentWritersAndReaders)
{
    TraceBuffer ring(256);
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 5000;

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        // Collecting mid-write must only ever return fully published
        // events with sane payloads — torn slots are skipped.
        while (!stop.load(std::memory_order_relaxed)) {
            const auto events = ring.collect();
            EXPECT_LE(events.size(), ring.capacity());
            uint64_t prev_ticket = 0;
            bool first = true;
            for (const TraceEventView &ev : events) {
                EXPECT_TRUE(first || ev.ticket > prev_ticket);
                first = false;
                prev_ticket = ev.ticket;
                ASSERT_NE(ev.name, nullptr);
                EXPECT_STREQ(ev.name, "w");
                EXPECT_EQ(ev.ph, 'X');
                EXPECT_EQ(ev.tsNs, ev.simNs); // written as a pair below
            }
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&ring, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                const uint64_t stamp =
                    static_cast<uint64_t>(t) * kPerThread + i;
                ring.emitComplete("w", "test", stamp, 1, stamp);
            }
        });
    for (std::thread &w : writers)
        w.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(ring.emitted(), kThreads * kPerThread);
    EXPECT_EQ(ring.collect().size(), ring.capacity());

    ring.clear();
    EXPECT_TRUE(ring.collect().empty());
}

// ---------------------------------------------------------------------------
// Metrics registry: handle stability, labels, reset-in-place.
// ---------------------------------------------------------------------------

TEST(TelemetryMetrics, FindOrCreateReturnsStableCells)
{
    MetricsRegistry reg;
    telemetry::Gauge &a =
        reg.gauge("edges", Labels{.store = "xpgraph", .node = 0});
    telemetry::Gauge &a_again =
        reg.gauge("edges", Labels{.store = "xpgraph", .node = 0});
    telemetry::Gauge &b =
        reg.gauge("edges", Labels{.store = "xpgraph", .node = 1});
    EXPECT_EQ(&a, &a_again); // same name+labels: same cell
    EXPECT_NE(&a, &b);       // different node label: distinct cell

    // A histogram under the same name and labels is a series of its
    // own, found again the same way.
    ShardedHistogram &h =
        reg.histogram("edges", Labels{.store = "xpgraph", .node = 0});
    EXPECT_EQ(&h, &reg.histogram("edges",
                                 Labels{.store = "xpgraph", .node = 0}));

    a.set(5);
    a.set(12); // set-to-latest
    b.set(100);
    h.record(7);
    EXPECT_EQ(a.value(), 12u);
    EXPECT_EQ(b.value(), 100u);
    EXPECT_EQ(h.snapshot().count, 1u);

    EXPECT_EQ(reg.size(), 3u);
    reg.resetValues();
    EXPECT_EQ(a.value(), 0u); // zeroed in place, handle still valid
    EXPECT_EQ(h.snapshot().count, 0u);
    EXPECT_EQ(reg.size(), 3u);
    a.set(3);
    EXPECT_EQ(a.value(), 3u);
}

TEST(TelemetryMetrics, ForEachExportsLabels)
{
    MetricsRegistry reg;
    reg.gauge("g", Labels{.store = "graphone", .session = 4,
                          .phase = "archive"})
        .set(9);
    reg.histogram("a_ns").record(1);
    std::vector<std::string> order;
    reg.forEach([&](const MetricSeries &s) {
        order.push_back(s.info.name);
        if (s.info.name != "g")
            return;
        EXPECT_EQ(s.info.kind, telemetry::MetricKind::Gauge);
        EXPECT_EQ(s.info.store, "graphone");
        EXPECT_EQ(s.info.node, -1); // unset stays -1 (omitted on export)
        EXPECT_EQ(s.info.session, 4);
        EXPECT_EQ(s.info.phase, "archive");
        EXPECT_EQ(s.gauge.value(), 9u);
    });
    // One walk over both kinds, sorted by name.
    EXPECT_EQ(order, (std::vector<std::string>{"a_ns", "g"}));
}

// ---------------------------------------------------------------------------
// JSON round-trips through the minimal parser.
// ---------------------------------------------------------------------------

TEST(TelemetrySnapshot, MetricsJsonRoundTrip)
{
    auto &tel = telemetry::Telemetry::instance();
    tel.reset();
    tel.metrics().gauge("test.rt_edges", Labels{.store = "test"}).set(42);
    tel.metrics()
        .gauge("test.rt_depth", Labels{.store = "test", .node = 1})
        .set(7);
    auto &h = tel.metrics().histogram(
        "test.rt_ns",
        Labels{.store = "test", .node = 1, .session = 2, .phase = "unit"});
    for (uint64_t v : {100u, 200u, 400u, 800u, 1600u})
        h.record(v);

    const MiniJson doc = parseOrDie(tel.snapshotValue().dump());
    EXPECT_EQ(doc.at("schema").str, "xpgraph-telemetry-v1");

    // Other suites in this binary register metrics too; search by name.
    bool found_gauge = false;
    for (const MiniJson &m : doc.at("metrics").arr) {
        if (m.at("name").str != "test.rt_edges")
            continue;
        found_gauge = true;
        EXPECT_EQ(m.at("kind").str, "gauge");
        EXPECT_EQ(m.at("labels").at("store").str, "test");
        EXPECT_FALSE(m.at("labels").has("node")); // unset: omitted
        EXPECT_DOUBLE_EQ(m.at("value").num, 42.0);
    }
    EXPECT_TRUE(found_gauge);

    bool found_histo = false;
    for (const MiniJson &m : doc.at("histograms").arr) {
        if (m.at("name").str != "test.rt_ns")
            continue;
        found_histo = true;
        EXPECT_DOUBLE_EQ(m.at("count").num, 5.0);
        EXPECT_DOUBLE_EQ(m.at("sum").num, 3100.0);
        EXPECT_DOUBLE_EQ(m.at("max").num, 1600.0);
        EXPECT_EQ(m.at("labels").at("node").num, 1.0);
        EXPECT_EQ(m.at("labels").at("session").num, 2.0);
        EXPECT_EQ(m.at("labels").at("phase").str, "unit");
        // Quantiles are ordered and bounded by the max.
        EXPECT_LE(m.at("p50").num, m.at("p95").num);
        EXPECT_LE(m.at("p95").num, m.at("p99").num);
        EXPECT_LE(m.at("p99").num, 1600.0);
    }
    EXPECT_TRUE(found_histo);

    tel.reset(); // leave the singleton clean for other suites
}

TEST(TelemetrySnapshot, TraceJsonRoundTrip)
{
    TraceBuffer ring(32);
    ring.emitComplete("flush_phase", "archive", /*tsNs=*/2500,
                      /*durNs=*/1500, /*simNs=*/900);
    ring.emitInstant(EventLevel::Warn, "crash", "recovery", /*a0=*/3);

    const MiniJson doc = parseOrDie(ring.toJson().dump());
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ns");
    const auto &events = doc.at("traceEvents").arr;

    bool found_span = false;
    bool found_instant = false;
    for (const MiniJson &e : events) {
        if (e.at("name").str == "flush_phase") {
            found_span = true;
            EXPECT_EQ(e.at("ph").str, "X");
            EXPECT_EQ(e.at("cat").str, "archive");
            EXPECT_DOUBLE_EQ(e.at("ts").num, 2.5);  // us
            EXPECT_DOUBLE_EQ(e.at("dur").num, 1.5); // us
            EXPECT_DOUBLE_EQ(e.at("args").at("sim_ns").num, 900.0);
        } else if (e.at("name").str == "crash") {
            found_instant = true;
            EXPECT_EQ(e.at("ph").str, "i");
            EXPECT_EQ(e.at("s").str, "t");
            EXPECT_EQ(e.at("args").at("level").str, "warn");
            EXPECT_DOUBLE_EQ(e.at("args").at("a0").num, 3.0);
        }
    }
    EXPECT_TRUE(found_span);
    EXPECT_TRUE(found_instant);
}

TEST(TelemetrySnapshot, PcmCountersJsonRoundTrip)
{
    PcmCounters c;
    c.appBytesWritten = 1000;
    c.mediaBytesWritten = 2560;
    c.appBytesRead = 500;
    c.mediaBytesRead = 1280;
    c.mediaWriteOps = 10;
    c.bufferHits = 3;

    const MiniJson doc = parseOrDie(c.toJson().dump());
    EXPECT_DOUBLE_EQ(doc.at("app_bytes_written").num, 1000.0);
    EXPECT_DOUBLE_EQ(doc.at("media_bytes_written").num, 2560.0);
    EXPECT_DOUBLE_EQ(doc.at("media_write_ops").num, 10.0);
    EXPECT_DOUBLE_EQ(doc.at("buffer_hits").num, 3.0);
    EXPECT_DOUBLE_EQ(doc.at("write_amplification").num, 2.56);
    EXPECT_DOUBLE_EQ(doc.at("read_amplification").num, 2.56);

    // operator+ merges every raw field; amplification is re-derived.
    const PcmCounters doubled = c + c;
    const MiniJson doc2 = parseOrDie(doubled.toJson().dump());
    EXPECT_DOUBLE_EQ(doc2.at("media_bytes_written").num, 5120.0);
    EXPECT_DOUBLE_EQ(doc2.at("write_amplification").num, 2.56);
}

// ---------------------------------------------------------------------------
// snapshotStats: torn-free reads while archive phases run concurrently.
// ---------------------------------------------------------------------------

TEST(TelemetrySnapshot, SnapshotStatsConsistentUnderConcurrentArchiving)
{
    XPGraphConfig c = XPGraphConfig::persistent(1 << 12, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9; // many phases mid-ingest
    c.archiveThreads = 4;
    const auto edges = generateUniform(1 << 12, 1 << 15, /*seed=*/42);
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
    XPGraph graph(c);

    std::atomic<bool> done{false};
    std::thread client([&] {
        graph.session(0)->addEdges(edges.data(), edges.size());
        done.store(true, std::memory_order_release);
    });

    // Snapshots race the client's inline archive phases. Each one must
    // be internally consistent: no partially-updated phase totals, and
    // the cumulative fields never move backwards between reads.
    IngestStats prev{};
    while (!done.load(std::memory_order_acquire)) {
        const IngestStats s = graph.snapshotStats();
        EXPECT_GE(s.edgesLogged, prev.edgesLogged);
        EXPECT_GE(s.edgesBuffered, prev.edgesBuffered);
        EXPECT_GE(s.bufferingNs, prev.bufferingNs);
        EXPECT_GE(s.bufferingPhases, prev.bufferingPhases);
        prev = s;
    }
    client.join();

    graph.archiveAll();
    const IngestStats fin = graph.snapshotStats();
    EXPECT_EQ(fin.edgesLogged, edges.size());
    EXPECT_EQ(fin.edgesBuffered, edges.size());
}

// ---------------------------------------------------------------------------
// Telemetry never changes what is simulated.
// ---------------------------------------------------------------------------

/** One small RMAT store: 1 archive thread, so every simulated number
 *  is a pure function of the stream. */
std::unique_ptr<XPGraph>
makeSingleArchiverStore(const std::vector<Edge> &edges, vid_t nv)
{
    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9;
    c.archiveThreads = 1;
    c.compactMinRecords = 8;
    c.compactTombstoneRatio = 0.1;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, 2 * edges.size());
    return std::make_unique<XPGraph>(c);
}

std::vector<Edge>
rmatStream(vid_t nv)
{
    std::vector<Edge> edges = generateRmat(9, 3000, RmatParams{}, 11);
    foldVertices(edges, nv);
    return edges;
}

/** Sample @p graph's gauges into @p exporter, as `watch` does. */
void
exportFrom(telemetry::MetricsExporter &exporter, const XPGraph &graph)
{
    telemetry::ExporterOptions opt;
    opt.prePublish = [&graph] { graph.publishTelemetry(); };
    exporter.configure(std::move(opt));
}

/** Every reader an exporter, `xpgraph_cli watch` or `explain` runs
 *  against a live store. */
void
readEverything(const XPGraph &graph, telemetry::MetricsExporter &exporter)
{
    graph.publishTelemetry();
    telemetry::Telemetry::instance().snapshotValue();
    telemetry::Telemetry::instance().traceValue();
    graph.pmemAttribution();
    graph.hotLines(16);
    QueryProbe probe;
    graph.sampleQueryProbe(probe);
    graph.health();
    exporter.sampleOnce();
}

TEST(Telemetry, RecordingNeverChargesSimClock)
{
    const vid_t nv = 512;
    const std::vector<Edge> edges = rmatStream(nv);
    auto graph = makeSingleArchiverStore(edges, nv);
    graph->session(0)->addEdges(edges.data(), edges.size());
    graph->archiveAll();
    telemetry::MetricsExporter exporter;
    exportFrom(exporter, *graph);

    const SimScope scope;
    XPG_TEL_HISTOGRAM("test.sim_clock_ns")->record(123);
    XPG_TRACE_EMIT("test_span", "test", telemetry::hostNowNs(), 1, 0);
    XPG_EVENT(Info, "test", "test_instant", 1, 2);
    {
        telemetry::OpScope op(graph.get(), "test_op");
        XPG_ATTR_SCOPE(tag, QueryRead);
        op.close();
    }
    readEverything(*graph, exporter);
    EXPECT_EQ(scope.elapsed(), 0u);
}

/** What one run of a stream simulated. */
struct SimulatedRun
{
    IngestStats stats;
    std::string pcm;
    MemoryUsage memory;
    std::vector<std::pair<uint64_t, uint64_t>> kernels; ///< simNs, checksum
};

/**
 * The same stream on a fresh store: 64-edge insert batches, every
 * fourth followed by a delete batch, a view opened and closed mid-stream,
 * then archiveAll, a compaction pass and four kernels at 1 query thread.
 * With @p read_between_steps every telemetry reader runs after each step.
 */
SimulatedRun
runStream(bool read_between_steps)
{
    const vid_t nv = 512;
    const std::vector<Edge> edges = rmatStream(nv);
    auto graph = makeSingleArchiverStore(edges, nv);
    telemetry::MetricsExporter exporter;
    exportFrom(exporter, *graph);
    const auto step = [&] {
        if (read_between_steps)
            readEverything(*graph, exporter);
    };

    auto session = graph->session(0);
    const uint64_t batches = (edges.size() + 63) / 64;
    std::unique_ptr<ReadView> view;
    for (uint64_t b = 0; b < batches; ++b) {
        const uint64_t first = b * 64;
        session->addEdges(&edges[first],
                          std::min<uint64_t>(64, edges.size() - first));
        step();
        if (b % 4 == 3) {
            session->delEdges(&edges[first - 64], 64);
            step();
        }
        if (b == batches / 2) {
            view = graph->openView();
            step();
        } else if (b == batches / 2 + 5) {
            view.reset();
            step();
        }
    }
    graph->archiveAll();
    step();
    graph->runCompactionPass();
    step();

    SimulatedRun run;
    std::vector<vid_t> queries;
    for (uint64_t i = 0; i < edges.size(); i += 7)
        queries.push_back(edges[i].src);
    for (unsigned k = 0; k < 4; ++k) {
        const AnalyticsResult r =
            k == 0   ? runBfs(*graph, edges[0].src, 1)
            : k == 1 ? runPageRank(*graph, 3, 1)
            : k == 2 ? runConnectedComponents(*graph, 1)
                     : runOneHop(*graph, queries, 1);
        run.kernels.emplace_back(r.simNs, r.checksum);
        step();
    }
    run.stats = graph->stats();
    run.pcm = graph->pmemCounters().toJson().dump();
    run.memory = graph->memoryUsage();
    return run;
}

TEST(Telemetry, ReadersLeaveSimulatedResultsUnchanged)
{
    const SimulatedRun quiet = runStream(false);
    const SimulatedRun read = runStream(true);
    EXPECT_GT(quiet.stats.compactionSlots, 0u) << "the pass rewrote nothing";
    EXPECT_TRUE(read.stats == quiet.stats);
    EXPECT_EQ(read.stats.ingestNs(), quiet.stats.ingestNs());
    EXPECT_EQ(read.pcm, quiet.pcm);
    EXPECT_TRUE(read.memory == quiet.memory);
    EXPECT_EQ(read.kernels, quiet.kernels);
}

} // namespace
} // namespace xpg
