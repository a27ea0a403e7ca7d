/**
 * @file
 * Command-line driver for the library — the equivalent of the paper
 * artifact's run scripts. Subcommands:
 *
 *   generate  --dataset FS [--shift N] --out edges.bin
 *             Generate a scaled dataset and save it as a binary edge
 *             list (the paper's ingest input format).
 *
 *   ingest    --in edges.bin [--vertices N] [--system xpgraph]
 *             [--threads T] [--backing DIR] [--retain-window W]
 *             Ingest an edge list into a chosen system and print the
 *             simulated phase times, PCM-style counters, and memory use.
 *             Systems: xpgraph, xpgraph-b, xpgraph-d, xpgraph-ssd,
 *                      graphone-p, graphone-d, graphone-n.
 *             --retain-window W keeps only the last W edges of the
 *             stream (ticks = stream position): everything older is
 *             tombstoned through the delete path and reclaimed by a
 *             compaction pass (xpgraph systems only).
 *
 *   query     --in edges.bin [--vertices N] [--algo bfs|pr|cc|onehop]
 *             [--threads T] [--system xpgraph|graphone-p]
 *             Ingest, then run one analytics workload.
 *
 *   recover   --backing DIR --vertices N [--edges M] [--json FILE]
 *             Re-open a crashed file-backed XPGraph instance and print
 *             the recovery statistics. --json FILE writes the typed
 *             RecoveryReport (schema xpgraph-recovery-v1; FILE "-"
 *             prints it to stdout) for scripted postmortems.
 *
 *   watch     [--seconds S] [--interval-ms MS] [--sessions N]
 *             [--threads T] [--vertices N] [--ops-jsonl FILE]
 *             [--prom FILE] [--events FILE] [--flight-dir DIR]
 *             [--stall-ms MS] [--backpressure-ms MS]
 *             [--wedge-compactor 0|1]
 *             The live operations plane (DESIGN.md §14): run a churn
 *             workload (concurrent sessions, pipelined archiver,
 *             background compactor, rolling deletes; the sessions stop
 *             logging at the 2^22 records the store is sized for),
 *             check the store's health once per interval (the check
 *             reacts to verdict transitions) and print one `[watch] ...`
 *             line per check with the component health verdicts.
 *             --ops-jsonl and --prom arm the periodic exporter (JSONL
 *             time series + Prometheus text exposition); --events dumps
 *             the trace ring's event instants on exit; --flight-dir
 *             arms the crash flight recorder. --wedge-compactor 1
 *             deliberately wedges the compactor thread so the
 *             watchdog's Stalled escalation (and the resulting flight
 *             record) can be demonstrated.
 *
 *   pipeline  [--dataset TT] [--shift N] [--sessions S] [--threads T]
 *             [--backing DIR]
 *             End-to-end demo: generate, ingest through S concurrent
 *             sessions with the pipelined archiver, query, crash, and
 *             recover — the run the telemetry acceptance check records.
 *
 *   profile   [--dataset TT | --in edges.bin] [--shift N]
 *             [--system xpgraph] [--threads T] [--queries N] [--top N]
 *             [--json FILE]
 *             Ingest + archive + query, then print the media-traffic
 *             attribution: per-cause amplification breakdown (app vs
 *             media bytes, RMW reads per category) and the hottest
 *             XPLines with their node and owning category. --json dumps the
 *             device counters and the attribution rows for scripted
 *             checks (the CI stage asserts the rows sum to the device
 *             totals).
 *
 *   explain   <bfs|pr|cc|onehop> [--dataset TT | --in edges.bin]
 *             [--shift N] [--system xpgraph] [--threads T]
 *             [--iterations N] [--queries N] [--top N] [--json FILE]
 *             Ingest + archive (quiescing the store), then run ONE
 *             kernel bracketed by an OpScope and print its round-by-
 *             round cost table (active vertices, edges scanned by
 *             source layer, per-device media reads, decoded bytes,
 *             simulated time, and the push-vs-pull cost-model estimate
 *             with the direction-switch-opportunity gain), the op's
 *             own attribution breakdown — exactness-checked against
 *             the global AttributionTable delta — and the XPLines this
 *             op heated the most. --json FILE writes the typed report
 *             (schema xpgraph-explain-v1) the CI stage asserts on;
 *             FILE "-" emits only the JSON on stdout (the human
 *             report is suppressed so the output pipes cleanly):
 *             per-round media reads must sum to the op's
 *             counter delta exactly, and every per-op attribution row
 *             must equal its global-delta row field by field.
 *
 * xpgraph systems additionally accept the compaction knobs
 * --compact 0|1 (background compactor thread, default 0),
 * --compact-ratio R (tombstone share that makes a chain a candidate,
 * default 0.25) and --compact-min N (minimum records, default 64).
 *
 * --threads T is at least 1 wherever it is read; 0 is a usage error.
 *
 * Every subcommand accepts --telemetry FILE (or --telemetry=FILE): on
 * exit the Chrome trace timeline is written to FILE (load it in
 * about:tracing) and the metrics snapshot — counters, gauges, and
 * latency quantiles — to FILE with ".json" replaced by ".metrics.json".
 */

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analytics/algorithms.hpp"
#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/datasets.hpp"
#include "graph/edge_io.hpp"
#include "graph/retention.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"

using namespace xpg;

namespace {

/** Minimal argument parser: --key value and --key=value. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            if (std::strncmp(argv[i], "--", 2) != 0)
                XPG_FATAL(std::string("expected --option, got ") +
                          argv[i]);
            const std::string opt = argv[i] + 2;
            const size_t eq = opt.find('=');
            if (eq != std::string::npos) {
                values_[opt.substr(0, eq)] = opt.substr(eq + 1);
            } else {
                if (i + 1 >= argc)
                    XPG_FATAL("--" + opt + " needs a value");
                values_[opt] = argv[++i];
            }
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    /** The option as a whole unsigned decimal up to @p max (default: the
     *  largest @p T); any other value is fatal, naming the option. */
    template <typename T = uint64_t>
    T
    getInt(const std::string &key, std::type_identity_t<T> fallback,
           std::type_identity_t<T> max = std::numeric_limits<T>::max()) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        const std::string &v = it->second;
        char *end = nullptr;
        errno = 0;
        const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
            errno == ERANGE || n > max)
            XPG_FATAL("--" + key + " expects a whole number from 0 to " +
                      std::to_string(max) + ", got '" + v + "'");
        return static_cast<T>(n);
    }

    /** --shift: a scale shift from 0 to kMaxScaleShift, defaulting to
     *  defaultScaleShift(); any other value is fatal, naming the option. */
    unsigned
    getShift() const
    {
        return getInt<unsigned>("shift", defaultScaleShift(), kMaxScaleShift);
    }

    /** --threads: a whole number of threads, at least 1; any other
     *  value is fatal, naming the option. */
    unsigned
    getThreads(unsigned fallback) const
    {
        const unsigned n = getInt<unsigned>("threads", fallback);
        if (n == 0)
            XPG_FATAL("--threads expects a whole number from 1 to " +
                      std::to_string(std::numeric_limits<unsigned>::max()) +
                      ", got '0'");
        return n;
    }

    /** The option as a finite decimal number; any other value is fatal,
     *  naming the option. */
    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        const std::string &v = it->second;
        char *end = nullptr;
        errno = 0;
        const double x = std::strtod(v.c_str(), &end);
        if (v.empty() || *end != '\0' || errno == ERANGE ||
            !std::isfinite(x))
            XPG_FATAL("--" + key + " expects a number, got '" + v + "'");
        return x;
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) > 0;
    }

  private:
    std::map<std::string, std::string> values_;
};

/** trace.json -> trace.metrics.json (suffix-agnostic otherwise). */
std::string
metricsPathFor(const std::string &trace_path)
{
    std::string base = trace_path;
    const std::string suffix = ".json";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        base.erase(base.size() - suffix.size());
    return base + ".metrics.json";
}

/**
 * Prepare for --telemetry: name the main thread on the trace timeline.
 * writeTelemetry() writes both files at exit.
 */
void
setupTelemetry(const Args &args)
{
    if (!args.get("telemetry").empty())
        telemetry::nameCurrentThread("main");
}

/**
 * Final telemetry export for --telemetry FILE: publish @p store's
 * cumulative stats as gauges, then write the trace timeline to FILE
 * and the metrics snapshot next to it.
 */
void
writeTelemetry(const Args &args, const GraphStore *store)
{
    const std::string path = args.get("telemetry");
    if (path.empty())
        return;
    if (store != nullptr)
        store->publishTelemetry();
    auto &tel = telemetry::Telemetry::instance();
    const std::string metrics = metricsPathFor(path);
    if (!tel.writeTraceJson(path))
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    else
        std::printf("\nwrote trace timeline %s (load in about:tracing)\n",
                    path.c_str());
    if (!tel.writeSnapshotJson(metrics))
        std::fprintf(stderr, "cannot write %s\n", metrics.c_str());
    else
        std::printf("wrote metrics snapshot %s\n", metrics.c_str());
}

vid_t
maxVertexOf(const std::vector<Edge> &edges)
{
    vid_t max_v = 0;
    for (const Edge &e : edges)
        max_v = std::max({max_v, rawVid(e.src), rawVid(e.dst)});
    return max_v + 1;
}

/** @p quiet leaves out the "loaded" line (explain's `--json -`). */
std::vector<Edge>
loadInput(const Args &args, vid_t &num_vertices, bool quiet)
{
    const std::string path = args.get("in");
    if (path.empty())
        XPG_FATAL("--in <edges.bin> is required");
    auto edges = loadEdgeList(path);
    num_vertices = args.getInt<vid_t>("vertices", maxVertexOf(edges));
    if (!quiet)
        std::printf("loaded %zu edges over %u vertices from %s\n",
                    edges.size(), num_vertices, path.c_str());
    return edges;
}

void
printIngestReport(const IngestStats &stats, const PcmCounters &pcm,
                  const MemoryUsage &mem)
{
    std::printf("\n-- simulated phase times --\n");
    std::printf("logging:    %10.3f ms\n", stats.loggingNs / 1e6);
    std::printf("buffering:  %10.3f ms\n", stats.bufferingNs / 1e6);
    std::printf("flushing:   %10.3f ms\n", stats.flushingNs / 1e6);
    std::printf("ingest:     %10.3f ms (pipelined)\n",
                stats.ingestNs() / 1e6);
    std::printf("phases: %lu buffering, %lu flush-all; %lu vbuf flushes\n",
                static_cast<unsigned long>(stats.bufferingPhases),
                static_cast<unsigned long>(stats.flushAllPhases),
                static_cast<unsigned long>(stats.vbufFlushes));
    std::printf("\n-- device media counters (PCM equivalent) --\n");
    std::printf("media read:  %s (%.2fx of app reads)\n",
                TablePrinter::bytes(pcm.mediaBytesRead).c_str(),
                pcm.readAmplification());
    std::printf("media write: %s (%.2fx of app writes)\n",
                TablePrinter::bytes(pcm.mediaBytesWritten).c_str(),
                pcm.writeAmplification());
    std::printf("\n-- memory usage --\n");
    std::printf("DRAM meta: %s  vbuf: %s  |  elog: %s  pblk: %s\n",
                TablePrinter::bytes(mem.metaBytes).c_str(),
                TablePrinter::bytes(mem.vbufBytes).c_str(),
                TablePrinter::bytes(mem.elogBytes).c_str(),
                TablePrinter::bytes(mem.pblkBytes).c_str());
}

XPGraphConfig
xpgraphConfigFor(const std::string &system, vid_t nv, uint64_t edges,
                 const Args &args)
{
    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    if (system == "xpgraph-b")
        c.batteryBacked = true;
    if (system == "xpgraph-d") {
        c = XPGraphConfig::dramOnly(nv, 0);
    } else if (system == "xpgraph-ssd") {
        c.memKind = MemKind::Ssd;
    }
    c.archiveThreads = args.getThreads(16);
    c.compressMinDegree =
        args.getInt<uint32_t>("compress-min-degree", c.compressMinDegree);
    if (args.getInt("compress", 1) == 0)
        c.compressMinDegree = UINT32_MAX; // never compress
    c.backgroundCompaction = args.getInt("compact", 0) != 0;
    c.compactTombstoneRatio =
        args.getDouble("compact-ratio", c.compactTombstoneRatio);
    c.compactMinRecords =
        args.getInt<uint32_t>("compact-min", c.compactMinRecords);
    c.backingDir = args.get("backing");
    if (!c.backingDir.empty())
        std::filesystem::create_directories(c.backingDir);
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges);
    return c;
}

GraphOneConfig
graphoneConfigFor(const std::string &system, vid_t nv, uint64_t edges,
                  const Args &args)
{
    GraphOneConfig c;
    c.maxVertices = nv;
    c.variant = system == "graphone-d"   ? GraphOneVariant::Dram
                : system == "graphone-n" ? GraphOneVariant::Nova
                                         : GraphOneVariant::Pmem;
    c.archiveThreads = args.getThreads(16);
    c.bytesPerNode = graphoneRecommendedBytesPerNode(c, edges);
    return c;
}

int
cmdGenerate(const Args &args)
{
    const std::string out = args.get("out");
    if (out.empty())
        XPG_FATAL("--out <file> is required");
    const unsigned shift = args.getShift();
    const Dataset ds =
        generateDataset(datasetByAbbrev(args.get("dataset", "FS")), shift);
    saveEdgeList(out, ds.edges);
    std::printf("wrote %zu edges (|V|=%u) to %s\n", ds.edges.size(),
                ds.numVertices, out.c_str());
    return 0;
}

int
cmdIngest(const Args &args)
{
    vid_t nv = 0;
    const auto edges = loadInput(args, nv, /*quiet=*/false);
    const std::string system = args.get("system", "xpgraph");

    if (system.rfind("graphone", 0) == 0) {
        GraphOne graph(graphoneConfigFor(system, nv, edges.size(), args));
        graph.session(0)->addEdges(edges.data(), edges.size());
        graph.archiveAll();
        printIngestReport(graph.stats(), graph.pmemCounters(),
                          graph.memoryUsage());
        writeTelemetry(args, &graph);
    } else {
        XPGraph graph(xpgraphConfigFor(system, nv, edges.size(), args));
        const uint64_t window = args.getInt("retain-window", 0);
        if (window > 0 && window < edges.size()) {
            // Sliding-window retention: the stream position is the
            // tick, so "retain the last W edges" expires everything
            // before position n - W as bulk tombstones, then one
            // compaction pass reclaims the space they free.
            auto session = graph.session(0);
            RetentionTracker tracker;
            const uint64_t n = edges.size();
            session->addEdges(edges.data(), n);
            for (uint64_t i = 0; i < n; ++i)
                tracker.record(edges[i], i);
            const uint64_t expired =
                tracker.retainEdgesAfter(n - window, *session);
            graph.bufferAllEdges();
            graph.flushAllVbufs();
            const uint64_t rewritten = graph.runCompactionPass();
            const IngestStats cs = graph.stats();
            std::printf("retention: kept the last %lu edges, expired "
                        "%lu; compacted %lu chains, reclaimed %s\n",
                        static_cast<unsigned long>(window),
                        static_cast<unsigned long>(expired),
                        static_cast<unsigned long>(rewritten),
                        TablePrinter::bytes(cs.compactionBytesReclaimed)
                            .c_str());
        } else {
            graph.session(0)->addEdges(edges.data(), edges.size());
            graph.bufferAllEdges();
            graph.flushAllVbufs();
        }
        if (!args.get("backing").empty())
            graph.syncBackings();
        printIngestReport(graph.stats(), graph.pmemCounters(),
                          graph.memoryUsage());
        writeTelemetry(args, &graph);
    }
    return 0;
}

int
cmdQuery(const Args &args)
{
    vid_t nv = 0;
    const auto edges = loadInput(args, nv, /*quiet=*/false);
    const std::string system = args.get("system", "xpgraph");
    const std::string algo = args.get("algo", "bfs");
    const unsigned threads = args.getThreads(16);

    std::unique_ptr<GraphView> view;
    GraphStore *store = nullptr;
    if (system.rfind("graphone", 0) == 0) {
        auto g = std::make_unique<GraphOne>(
            graphoneConfigFor(system, nv, edges.size(), args));
        g->session(0)->addEdges(edges.data(), edges.size());
        g->archiveAll();
        store = g.get();
        view = std::move(g);
    } else {
        auto g = std::make_unique<XPGraph>(
            xpgraphConfigFor(system, nv, edges.size(), args));
        g->session(0)->addEdges(edges.data(), edges.size());
        g->bufferAllEdges();
        store = g.get();
        view = std::move(g);
    }

    AnalyticsResult result;
    if (algo == "bfs") {
        result = runBfs(*view, edges[0].src, threads);
        std::printf("BFS from %u: visited %lu vertices in %lu levels\n",
                    edges[0].src,
                    static_cast<unsigned long>(result.touched),
                    static_cast<unsigned long>(result.iterations));
    } else if (algo == "pr") {
        result = runPageRank(*view, 10, threads);
        std::printf("PageRank(10): checksum %lu\n",
                    static_cast<unsigned long>(result.checksum));
    } else if (algo == "cc") {
        result = runConnectedComponents(*view, threads);
        std::printf("CC: %lu components in %lu rounds\n",
                    static_cast<unsigned long>(result.checksum),
                    static_cast<unsigned long>(result.iterations));
    } else if (algo == "onehop") {
        Rng rng(1);
        std::vector<vid_t> queries;
        for (int i = 0; i < 4096; ++i)
            queries.push_back(
                edges[rng.nextBounded(edges.size())].src);
        result = runOneHop(*view, queries, threads);
        std::printf("one-hop over %zu queries: %lu neighbors total\n",
                    queries.size(),
                    static_cast<unsigned long>(result.checksum));
    } else {
        XPG_FATAL("unknown --algo (bfs|pr|cc|onehop)");
    }
    std::printf("simulated time: %.3f ms with %u threads\n",
                result.simNs / 1e6, threads);
    writeTelemetry(args, store);
    return 0;
}

int
cmdRecover(const Args &args)
{
    XPGraphConfig c = XPGraphConfig::persistent(
        args.getInt<vid_t>("vertices", 0), 0);
    if (c.maxVertices == 0)
        XPG_FATAL("--vertices <N> is required (must match the crashed "
                  "instance)");
    c.backingDir = args.get("backing");
    if (c.backingDir.empty())
        XPG_FATAL("--backing <dir> is required");
    c.archiveThreads = args.getThreads(16);
    c.pmemBytesPerNode =
        recommendedBytesPerNode(c, args.getInt("edges", 1 << 20));

    RecoveryReport report;
    auto graph = XPGraph::recover(c, &report);
    if (!graph) {
        std::fprintf(stderr, "recovery failed (%s): %s\n",
                     recoveryStatusName(report.status),
                     report.error.c_str());
        return 1;
    }
    std::printf("recovered in %.3f simulated ms (status %s)\n",
                graph->stats().recoveryNs / 1e6,
                recoveryStatusName(report.status));
    if (report.compactionsInFlight > 0) {
        // The crash hit the torn window of a copy-on-write chain
        // rewrite. Either side of the swing is fully intact on media;
        // the journal said which one the persisted index reached.
        std::printf("mid-compaction crash repaired: %lu rewrite(s) "
                    "caught in flight, %lu replaced chunk(s) confirmed "
                    "reclaimed (committed swings); un-swung rewrites "
                    "kept their old chain and leaked the new blocks\n",
                    static_cast<unsigned long>(
                        report.compactionsInFlight),
                    static_cast<unsigned long>(report.chunksReclaimed));
    }
    const MemoryUsage mem = graph->memoryUsage();
    std::printf("persistent adjacency: %s\n",
                TablePrinter::bytes(mem.pblkBytes).c_str());
    const std::string json_path = args.get("json");
    if (!json_path.empty()) {
        const json::JsonValue doc = report.toJson();
        if (json_path == "-") {
            std::printf("%s\n", doc.dump(2).c_str());
        } else if (!doc.writeFile(json_path)) {
            XPG_FATAL("cannot write " + json_path);
        } else {
            std::printf("wrote recovery report %s\n", json_path.c_str());
        }
    }
    writeTelemetry(args, graph.get());
    return 0;
}

/** Records (inserts plus deletes) the watch store is sized for. The
 *  churn clients stop logging at this count: the bump allocator never
 *  reuses space, so a fast host would otherwise exhaust the device. */
constexpr uint64_t kWatchRecordBudget = 1ull << 22;

int
cmdWatch(const Args &args)
{
    const double seconds = args.getDouble("seconds", 3.0);
    const uint64_t interval_ms = args.getInt("interval-ms", 500);
    const unsigned sessions = args.getInt<unsigned>("sessions", 2);
    const vid_t nv = args.getInt<vid_t>("vertices", 1u << 16);

    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.archiveThreads = args.getThreads(8);
    c.pipelinedArchiving = true;
    c.backgroundCompaction = true;
    c.watchdogStallMs = args.getInt<uint32_t>("stall-ms", 2000);
    c.watchdogBackpressureMs =
        args.getInt<uint32_t>("backpressure-ms", c.watchdogBackpressureMs);
    c.debugWedgeCompactor = args.getInt("wedge-compactor", 0) != 0;
    c.backingDir = args.get("backing");
    if (!c.backingDir.empty())
        std::filesystem::create_directories(c.backingDir);
    c.pmemBytesPerNode = recommendedBytesPerNode(c, kWatchRecordBudget);

    const std::string flight_dir = args.get("flight-dir");
    if (!flight_dir.empty()) {
        std::filesystem::create_directories(flight_dir);
        telemetry::FlightRecorder::instance().configure(flight_dir);
    }

    XPGraph graph(c);

    telemetry::MetricsExporter exporter;
    const std::string jsonl = args.get("ops-jsonl");
    const std::string prom = args.get("prom");
    const bool exporting = !jsonl.empty() || !prom.empty();
    if (exporting) {
        telemetry::ExporterOptions opt;
        opt.jsonlPath = jsonl;
        opt.promPath = prom;
        opt.periodMs = interval_ms;
        opt.prePublish = [&graph] { graph.publishTelemetry(); };
        exporter.configure(std::move(opt));
        telemetry::FlightRecorder::instance().setLastSampleProvider(
            [&exporter] { return exporter.lastSample(); });
        exporter.start();
    }

    // Churn workload: every background component gets real work.
    // Sessions insert random batches and tombstone half of each fourth
    // batch, so the archiver drains continuously and the compactor
    // keeps minting candidates (unless deliberately wedged). A client
    // reserves each batch's records from the shared budget before
    // logging it, and idles with its session open once the budget is
    // spent.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> ingested{0};
    std::atomic<uint64_t> logged{0};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < sessions; ++t) {
        clients.emplace_back([&graph, &stop, &ingested, &logged, nv, t] {
            auto session = graph.session(t);
            // Reserve n records of the budget; false once it is spent.
            const auto reserve = [&logged](uint64_t n) {
                return logged.fetch_add(n, std::memory_order_relaxed) + n <=
                       kWatchRecordBudget;
            };
            Rng rng(t + 1);
            std::vector<Edge> batch(2048);
            uint64_t round = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                for (Edge &e : batch) {
                    e.src = static_cast<vid_t>(rng.nextBounded(nv));
                    e.dst = static_cast<vid_t>(rng.nextBounded(nv));
                }
                if (!reserve(batch.size()))
                    break;
                session->addEdges(batch.data(), batch.size());
                ingested.fetch_add(batch.size(),
                                   std::memory_order_relaxed);
                if (++round % 4 == 0) {
                    if (!reserve(batch.size() / 2))
                        break;
                    session->delEdges(batch.data(), batch.size() / 2);
                }
            }
            while (!stop.load(std::memory_order_relaxed))
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
        });
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline =
        t0 + std::chrono::milliseconds(
                 static_cast<int64_t>(seconds * 1000.0));
    for (;;) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
        const auto now = std::chrono::steady_clock::now();
        const double elapsed =
            std::chrono::duration<double>(now - t0).count();
        const telemetry::HealthReport report = graph.health();
        std::printf("[watch] t=%5.1fs edges=%llu records=%llu %s\n",
                    elapsed,
                    static_cast<unsigned long long>(
                        ingested.load(std::memory_order_relaxed)),
                    static_cast<unsigned long long>(
                        telemetry::Telemetry::instance().trace().emitted()),
                    report.brief().c_str());
        std::fflush(stdout);
        if (now >= deadline)
            break;
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &cl : clients)
        cl.join();

    if (exporting) {
        exporter.stop(); // takes the final sample
        telemetry::FlightRecorder::instance().clearLastSampleProvider();
        if (!jsonl.empty())
            std::printf("wrote %llu exporter samples to %s\n",
                        static_cast<unsigned long long>(
                            exporter.samples()),
                        jsonl.c_str());
        if (!prom.empty())
            std::printf("wrote Prometheus exposition %s\n",
                        prom.c_str());
    }
    const std::string events_path = args.get("events");
    if (!events_path.empty()) {
        if (!telemetry::Telemetry::instance().trace().writeEventsJsonl(
                events_path))
            XPG_FATAL("cannot write " + events_path);
        std::printf("wrote event log %s\n", events_path.c_str());
    }
    const telemetry::HealthReport final_report = graph.health();
    std::printf("final health: %s\n", final_report.brief().c_str());
    if (!flight_dir.empty() &&
        telemetry::FlightRecorder::instance().dumps() > 0)
        std::printf("flight record: %s\n",
                    telemetry::FlightRecorder::instance()
                        .lastPath()
                        .c_str());
    writeTelemetry(args, &graph);
    return final_report.overall() == telemetry::HealthStatus::Stalled
               ? 2
               : 0;
}

/** media/app ratio cell; "-" when the category moved no app bytes. */
std::string
ampCell(uint64_t media, uint64_t app)
{
    if (app == 0)
        return media == 0 ? "-" : "inf";
    return TablePrinter::num(static_cast<double>(media) /
                             static_cast<double>(app)) +
           "x";
}

/** The store profile and explain measure: built from `--in` or
 *  `--dataset`, as `--system` says, then ingested and archived. */
struct ArchivedStore
{
    std::vector<Edge> edges;
    std::string input; ///< the --in path or the dataset code
    std::string system;
    std::unique_ptr<GraphStore> store;
};

/** @p quiet leaves out the "loaded" or "generated" line (explain's
 *  `--json -`). */
ArchivedStore
loadArchivedStore(const Args &args, bool quiet)
{
    ArchivedStore a;
    vid_t nv = 0;
    if (args.has("in")) {
        a.edges = loadInput(args, nv, quiet);
        a.input = args.get("in");
    } else {
        const unsigned shift = args.getShift();
        a.input = args.get("dataset", "TT");
        Dataset ds = generateDataset(datasetByAbbrev(a.input), shift);
        nv = ds.numVertices;
        a.edges = std::move(ds.edges);
        if (!quiet)
            std::printf("generated %zu edges over %u vertices (%s)\n",
                        a.edges.size(), nv, a.input.c_str());
    }
    a.system = args.get("system", "xpgraph");
    if (a.system.rfind("graphone", 0) == 0) {
        a.store = std::make_unique<GraphOne>(
            graphoneConfigFor(a.system, nv, a.edges.size(), args));
    } else {
        a.store = std::make_unique<XPGraph>(
            xpgraphConfigFor(a.system, nv, a.edges.size(), args));
    }
    a.store->session(0)->addEdges(a.edges.data(), a.edges.size());
    // Quiesce: archive everything so what the caller runs next is the
    // only thing moving the store-global counters — the precondition
    // for explain's op-vs-global exactness checks.
    a.store->archiveAll();
    return a;
}

int
cmdProfile(const Args &args)
{
    const auto [edges, input, system, store] =
        loadArchivedStore(args, /*quiet=*/false);
    const unsigned threads = args.getThreads(16);
    const uint64_t queries = args.getInt("queries", 4096);
    const unsigned top = args.getInt<unsigned>("top", 10);
    if (queries > 0) {
        // One-hops plus a BFS: enough adjacency reads for query_read to
        // show in the table.
        Rng rng(1);
        std::vector<vid_t> sources;
        for (uint64_t i = 0; i < queries; ++i)
            sources.push_back(edges[rng.nextBounded(edges.size())].src);
        runOneHop(*store, sources, threads);
        runBfs(*store, edges[0].src, threads);
    }

    const telemetry::AttributionSnapshot attr = store->pmemAttribution();
    const PcmCounters pcm = store->pmemCounters();
    const uint64_t media_total = pcm.mediaBytesRead + pcm.mediaBytesWritten;

    TablePrinter table("media-traffic attribution (" + system + ", " +
                       input + ")");
    table.header({"cause", "app rd", "app wr", "media rd", "media wr",
                  "amp", "% media", "rmw reads", "sub-line"});
    for (const auto cat : telemetry::allAccessCategories()) {
        const telemetry::AttributionRow &r = attr[cat];
        if (r.empty())
            continue;
        const uint64_t app = r.pcm.appBytesRead + r.pcm.appBytesWritten;
        const uint64_t media =
            r.pcm.mediaBytesRead + r.pcm.mediaBytesWritten;
        table.row({telemetry::accessCategoryName(cat),
                   TablePrinter::bytes(r.pcm.appBytesRead),
                   TablePrinter::bytes(r.pcm.appBytesWritten),
                   TablePrinter::bytes(r.pcm.mediaBytesRead),
                   TablePrinter::bytes(r.pcm.mediaBytesWritten),
                   ampCell(media, app),
                   media_total
                       ? TablePrinter::num(100.0 *
                                           static_cast<double>(media) /
                                           static_cast<double>(media_total))
                       : "-",
                   std::to_string(r.rmwReads),
                   std::to_string(r.subLineStores)});
    }
    const PcmCounters attributed = attr.total();
    table.row({"total (attributed)",
               TablePrinter::bytes(attributed.appBytesRead),
               TablePrinter::bytes(attributed.appBytesWritten),
               TablePrinter::bytes(attributed.mediaBytesRead),
               TablePrinter::bytes(attributed.mediaBytesWritten),
               ampCell(attributed.mediaBytesRead +
                           attributed.mediaBytesWritten,
                       attributed.appBytesRead +
                           attributed.appBytesWritten),
               media_total ? "100.00" : "-", "", ""});
    table.print();
    std::printf("device-wide: read amp %.2fx, write amp %.2fx\n",
                pcm.readAmplification(), pcm.writeAmplification());
    std::printf("attributed rows sum to device counters: %s\n",
                attributed == pcm ? "exact" : "MISMATCH");

    const CompressionStats cs = store->compressionStats();
    if (cs.chunksCompressed > 0) {
        std::printf("\n-- compressed adjacency chunks --\n");
        std::printf("chunks: %llu  records: %llu  encoded: %s "
                    "(%.2f B/edge, raw 4.00)\n",
                    static_cast<unsigned long long>(cs.chunksCompressed),
                    static_cast<unsigned long long>(cs.recordsCompressed),
                    TablePrinter::bytes(cs.encodedBytes).c_str(),
                    cs.bytesPerEdge());
        std::printf("ratio: %.2fx  bytes saved: %s  decodes: %llu "
                    "(%llu records)\n",
                    cs.compressionRatio(),
                    TablePrinter::bytes(cs.bytesSaved()).c_str(),
                    static_cast<unsigned long long>(cs.decodeCalls),
                    static_cast<unsigned long long>(cs.decodedRecords));
    }

    const auto hot = store->hotLines(top);
    if (!hot.empty()) {
        TablePrinter heat("hottest XPLines (top " +
                          std::to_string(top) + ")");
        heat.header({"node", "line", "reads", "writes", "owner"});
        for (const auto &h : hot)
            heat.row({std::to_string(h.node), std::to_string(h.line),
                      std::to_string(h.reads), std::to_string(h.writes),
                      telemetry::accessCategoryName(h.owner)});
        heat.print();
    }

    const std::string json_path = args.get("json");
    if (!json_path.empty()) {
        json::JsonValue root = json::JsonValue::object();
        root.set("system", system);
        root.set("input", input);
        root.set("counters", pcm.toJson());
        root.set("attribution", attr.toJson());
        root.set("attribution_total", attr.total().toJson());
        json::JsonValue comp = json::JsonValue::object();
        comp.set("chunks_compressed", cs.chunksCompressed);
        comp.set("records_compressed", cs.recordsCompressed);
        comp.set("encoded_bytes", cs.encodedBytes);
        comp.set("bytes_saved", cs.bytesSaved());
        comp.set("compressed_bytes_per_edge", cs.bytesPerEdge());
        comp.set("compression_ratio", cs.compressionRatio());
        comp.set("decode_calls", cs.decodeCalls);
        root.set("compression", std::move(comp));
        json::JsonValue lines = json::JsonValue::array();
        for (const auto &h : hot) {
            json::JsonValue l = json::JsonValue::object();
            l.set("node", h.node);
            l.set("line", h.line);
            l.set("reads", h.reads);
            l.set("writes", h.writes);
            l.set("owner", telemetry::accessCategoryName(h.owner));
            lines.push(std::move(l));
        }
        root.set("hot_lines", std::move(lines));
        if (!root.writeFile(json_path))
            XPG_FATAL("cannot write " + json_path);
        std::printf("wrote attribution profile %s\n", json_path.c_str());
    }
    writeTelemetry(args, store.get());
    return 0;
}

/** Relative disagreement between two counters (0 when both zero). */
double
relErr(uint64_t a, uint64_t b)
{
    const uint64_t hi = std::max(a, b);
    if (hi == 0)
        return 0.0;
    const double d = a > b ? static_cast<double>(a - b)
                           : static_cast<double>(b - a);
    return d / static_cast<double>(hi);
}

int
cmdExplain(const Args &args, const std::string &kernel)
{
    const std::string algo =
        kernel.empty() ? args.get("algo", "bfs") : kernel;
    // With `--json -` stdout must carry nothing but the JSON document
    // (so it can be piped straight into a parser); the human report is
    // suppressed rather than interleaved.
    const bool quiet = args.get("json") == "-";
    const auto [edges, input, system, store] =
        loadArchivedStore(args, quiet);
    const unsigned threads = args.getThreads(16);
    const unsigned top = args.getInt<unsigned>("top", 10);

    const PcmCounters pcm0 = store->pmemCounters();
    const telemetry::AttributionSnapshot attr0 = store->pmemAttribution();
    // Every tracked line of every device, so no line's before count
    // is missing from a merged top-n cut.
    const unsigned all_lines = std::numeric_limits<unsigned>::max();
    const auto hot0 = store->hotLines(all_lines);

    AnalyticsResult result;
    if (algo == "bfs") {
        result = runBfs(*store, edges[0].src, threads);
    } else if (algo == "pr" || algo == "pagerank") {
        result = runPageRank(
            *store,
            args.getInt<unsigned>("iterations", 10),
            threads);
    } else if (algo == "cc") {
        result = runConnectedComponents(*store, threads);
    } else if (algo == "onehop") {
        Rng rng(1);
        std::vector<vid_t> queries;
        const uint64_t nq = args.getInt("queries", 4096);
        for (uint64_t i = 0; i < nq; ++i)
            queries.push_back(edges[rng.nextBounded(edges.size())].src);
        result = runOneHop(*store, queries, threads);
    } else {
        XPG_FATAL("unknown kernel '" + algo + "' (bfs|pr|cc|onehop)");
    }

    const PcmCounters pcmDelta = store->pmemCounters() - pcm0;
    const telemetry::AttributionSnapshot attrDelta =
        store->pmemAttribution() - attr0;
    const auto hot1 = store->hotLines(all_lines);
    QueryProbe probe;
    const bool probed = store->sampleQueryProbe(probe);

    if (!quiet)
        std::printf("op #%llu \"%s\" (%s): %.3f simulated ms, %zu "
                    "rounds, checksum %llu\n",
                    static_cast<unsigned long long>(result.op.opId),
                    result.op.name,
                    telemetry::opClassName(result.op.cls),
                    result.simNs / 1e6,
                    result.rounds.empty()
                        ? static_cast<size_t>(result.iterations)
                        : result.rounds.size(),
                    static_cast<unsigned long long>(result.checksum));

    // --- round-by-round table -------------------------------------
    uint64_t sumEdges = 0, sumMediaOps = 0, sumMediaBytes = 0;
    uint64_t sumDecoded = 0, frontierPeak = 0;
    unsigned pullWins = 0;
    TablePrinter rounds(algo + " rounds (" + system + ", " + input +
                        ", " + std::to_string(threads) + " threads)");
    rounds.header({"round", "active", "edges", "sealed", "vbuf",
                   "logwin", "media rd", "rd bytes", "decoded",
                   "sim ms", "push ms", "pull ms", "gain"});
    // Without a query probe only active vertices and simulated time are
    // measured: every probe-derived cell reads "-", not 0.
    const auto measured = [probed](std::string cell) {
        return probed ? cell : "-";
    };
    for (const RoundStats &r : result.rounds) {
        sumEdges += r.edgesScanned;
        sumMediaOps += r.mediaReadOps;
        sumMediaBytes += r.mediaReadBytes;
        sumDecoded += r.decodedBytes;
        frontierPeak = std::max(frontierPeak, r.activeVertices);
        if (r.directionSwitchGain > 0.0)
            ++pullWins;
        rounds.row({std::to_string(r.round),
                    std::to_string(r.activeVertices),
                    measured(std::to_string(r.edgesScanned)),
                    measured(std::to_string(r.sealedRecords)),
                    measured(std::to_string(r.bufferRecords)),
                    measured(std::to_string(r.logWindowRecords)),
                    measured(std::to_string(r.mediaReadOps)),
                    measured(TablePrinter::bytes(r.mediaReadBytes)),
                    measured(TablePrinter::bytes(r.decodedBytes)),
                    TablePrinter::num(r.simNs / 1e6),
                    measured(TablePrinter::num(r.pushCostNs / 1e6)),
                    measured(TablePrinter::num(r.pullCostNs / 1e6)),
                    measured(TablePrinter::num(r.directionSwitchGain))});
    }
    if (!result.rounds.empty() && !quiet) {
        rounds.row({"sum", std::to_string(frontierPeak) + " peak",
                    measured(std::to_string(sumEdges)), "", "", "",
                    measured(std::to_string(sumMediaOps)),
                    measured(TablePrinter::bytes(sumMediaBytes)),
                    measured(TablePrinter::bytes(sumDecoded)), "", "", "",
                    ""});
        rounds.print();
        if (probed)
            std::printf("direction-switch opportunity: the cost model "
                        "prefers a pull sweep in %u of %zu rounds\n",
                        pullWins, result.rounds.size());
    }

    // --- exactness checks -----------------------------------------
    // Rounds cover the op contiguously (driver baseline at
    // construction, one sample per round end), so their media-read
    // deltas must sum to the OpScope's device-counter delta exactly
    // on a quiesced store — when the view has a probe at all.
    const bool roundsExact = sumMediaOps == result.op.pcm.mediaReadOps;
    if (probed && !quiet)
        std::printf("round media reads sum to op delta: %s "
                    "(%llu round / %llu op)\n",
                    roundsExact ? "exact" : "MISMATCH",
                    static_cast<unsigned long long>(sumMediaOps),
                    static_cast<unsigned long long>(
                        result.op.pcm.mediaReadOps));

    // --- the op's attribution breakdown ---------------------------
    const uint64_t opMedia = result.op.pcm.mediaBytesRead +
                             result.op.pcm.mediaBytesWritten;
    TablePrinter attr("op media-traffic attribution (" + algo + ")");
    attr.header({"cause", "app rd", "app wr", "media rd", "media wr",
                 "amp", "% media"});
    for (const auto cat : telemetry::allAccessCategories()) {
        const telemetry::AttributionRow &r = result.op.attribution[cat];
        if (r.empty())
            continue;
        const uint64_t app = r.pcm.appBytesRead + r.pcm.appBytesWritten;
        const uint64_t media =
            r.pcm.mediaBytesRead + r.pcm.mediaBytesWritten;
        attr.row({telemetry::accessCategoryName(cat),
                  TablePrinter::bytes(r.pcm.appBytesRead),
                  TablePrinter::bytes(r.pcm.appBytesWritten),
                  TablePrinter::bytes(r.pcm.mediaBytesRead),
                  TablePrinter::bytes(r.pcm.mediaBytesWritten),
                  ampCell(media, app),
                  opMedia ? TablePrinter::num(
                                100.0 * static_cast<double>(media) /
                                static_cast<double>(opMedia))
                          : "-"});
    }
    if (!quiet)
        attr.print();

    // The op's rows must account for everything the global table moved
    // while the op ran (the store is quiesced, so the op IS the only
    // mover): every row equals its global-delta row, field by field.
    // The relative error on summed app+media bytes and media read ops
    // stays in the report.
    const PcmCounters opTotal = result.op.attribution.total();
    const PcmCounters globalTotal = attrDelta.total();
    const double attrErr = std::max(
        {relErr(opTotal.appBytesRead + opTotal.appBytesWritten,
                globalTotal.appBytesRead + globalTotal.appBytesWritten),
         relErr(opTotal.mediaBytesRead + opTotal.mediaBytesWritten,
                globalTotal.mediaBytesRead +
                    globalTotal.mediaBytesWritten),
         relErr(opTotal.mediaReadOps, globalTotal.mediaReadOps)});
    const bool attrOk = result.op.attribution == attrDelta;
    if (!quiet)
        std::printf("op attribution rows vs global table delta: %s "
                    "(rel err %.2e)\n",
                    attrOk ? "exact" : "MISMATCH", attrErr);

    // --- XPLines this op heated the most --------------------------
    struct LineDelta
    {
        int node;
        uint64_t line, reads, writes;
        telemetry::AccessCategory owner;
    };
    std::vector<LineDelta> heated;
    {
        // Line indices are device-local: a line is (node, line).
        std::map<std::pair<int, uint64_t>, std::pair<uint64_t, uint64_t>>
            before;
        for (const auto &h : hot0)
            before[{h.node, h.line}] = {h.reads, h.writes};
        for (const auto &h : hot1) {
            const auto it = before.find({h.node, h.line});
            const uint64_t r0 = it == before.end() ? 0 : it->second.first;
            const uint64_t w0 =
                it == before.end() ? 0 : it->second.second;
            // A tracked line keeps its slot and its counts only grow,
            // so the deltas are plain differences.
            const uint64_t dr = h.reads - r0;
            const uint64_t dw = h.writes - w0;
            if (dr + dw > 0)
                heated.push_back({h.node, h.line, dr, dw, h.owner});
        }
        std::sort(heated.begin(), heated.end(),
                  [](const LineDelta &a, const LineDelta &b) {
                      return a.reads + a.writes > b.reads + b.writes;
                  });
        if (heated.size() > top)
            heated.resize(top);
    }
    if (!heated.empty() && !quiet) {
        TablePrinter heat("hottest XPLines this op touched (top " +
                          std::to_string(top) + ")");
        heat.header({"node", "line", "reads", "writes", "owner"});
        for (const auto &h : heated)
            heat.row({std::to_string(h.node), std::to_string(h.line),
                      std::to_string(h.reads), std::to_string(h.writes),
                      telemetry::accessCategoryName(h.owner)});
        heat.print();
    }

    // --- typed report (schema xpgraph-explain-v1) -----------------
    const std::string json_path = args.get("json");
    if (!json_path.empty()) {
        json::JsonValue root = json::JsonValue::object();
        root.set("schema", "xpgraph-explain-v1");
        root.set("system", system);
        root.set("input", input);
        root.set("algo", algo);
        root.set("threads", threads);
        root.set("op", result.op.toJson());
        json::JsonValue rlist = json::JsonValue::array();
        for (const RoundStats &r : result.rounds)
            rlist.push(r.toJson());
        root.set("rounds", std::move(rlist));
        json::JsonValue rsum = json::JsonValue::object();
        rsum.set("rounds", static_cast<uint64_t>(result.rounds.size()));
        rsum.set("frontier_peak", frontierPeak);
        if (probed) {
            rsum.set("edges_scanned", sumEdges);
            rsum.set("media_read_ops", sumMediaOps);
            rsum.set("media_read_bytes", sumMediaBytes);
            rsum.set("decoded_bytes", sumDecoded);
            rsum.set("pull_preferred_rounds",
                     static_cast<uint64_t>(pullWins));
        }
        root.set("round_sum", std::move(rsum));
        json::JsonValue global = json::JsonValue::object();
        global.set("pcm", pcmDelta.toJson());
        global.set("attribution", attrDelta.toJson());
        global.set("attribution_total", globalTotal.toJson());
        root.set("global_delta", std::move(global));
        json::JsonValue checks = json::JsonValue::object();
        checks.set("probe_active", probed);
        if (probed) {
            checks.set("round_media_reads_exact", roundsExact);
            checks.set("round_media_read_ops", sumMediaOps);
        }
        checks.set("op_media_read_ops", result.op.pcm.mediaReadOps);
        checks.set("attribution_rel_err", attrErr);
        checks.set("attribution_ok", attrOk);
        root.set("checks", std::move(checks));
        json::JsonValue lines = json::JsonValue::array();
        for (const auto &h : heated) {
            json::JsonValue l = json::JsonValue::object();
            l.set("node", h.node);
            l.set("line", h.line);
            l.set("read_delta", h.reads);
            l.set("write_delta", h.writes);
            l.set("owner", telemetry::accessCategoryName(h.owner));
            lines.push(std::move(l));
        }
        root.set("hot_lines", std::move(lines));
        json::JsonValue res = json::JsonValue::object();
        res.set("sim_ns", result.simNs);
        res.set("checksum", result.checksum);
        res.set("iterations", result.iterations);
        res.set("touched", result.touched);
        root.set("result", std::move(res));
        if (json_path == "-") {
            std::printf("%s\n", root.dump(2).c_str());
        } else if (!root.writeFile(json_path)) {
            XPG_FATAL("cannot write " + json_path);
        } else {
            std::printf("wrote explain report %s\n", json_path.c_str());
        }
    }
    writeTelemetry(args, store.get());
    return (!attrOk || (probed && !roundsExact)) ? 1 : 0;
}

int
cmdPipeline(const Args &args)
{
    // One run exercising every instrumented phase: concurrent-session
    // ingest overlapped with the pipelined archiver, the query kernels,
    // a crash, and recovery. With --telemetry FILE the resulting
    // timeline shows the client-session and archiver spans overlapping
    // and the recovery rebuild/replay steps after them.
    const unsigned shift = args.getShift();
    const Dataset ds =
        generateDataset(datasetByAbbrev(args.get("dataset", "TT")), shift);
    const unsigned sessions = args.getInt<unsigned>("sessions", 4);
    const unsigned threads = args.getThreads(16);
    const std::string dir =
        args.get("backing", "/tmp/xpg_cli_pipeline");
    std::filesystem::create_directories(dir);

    XPGraphConfig c = XPGraphConfig::persistent(ds.numVertices, 0);
    c.archiveThreads = threads;
    c.pipelinedArchiving = true;
    c.backingDir = dir;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, ds.edges.size());

    {
        XPGraph graph(c);
        const Edge *edges = ds.edges.data();
        const uint64_t total = ds.edges.size();
        std::vector<std::thread> clients;
        const uint64_t chunk = (total + sessions - 1) / sessions;
        for (unsigned t = 0; t < sessions; ++t) {
            const uint64_t lo = std::min<uint64_t>(t * chunk, total);
            const uint64_t hi = std::min<uint64_t>(lo + chunk, total);
            clients.emplace_back([&graph, edges, lo, hi, t] {
                auto session = graph.session(t);
                session->addEdges(edges + lo, hi - lo);
            });
        }
        for (std::thread &cl : clients)
            cl.join();
        graph.archiveAll();
        std::printf("ingested %llu edges through %u sessions "
                    "(%.3f simulated ms)\n",
                    static_cast<unsigned long long>(total), sessions,
                    graph.snapshotStats().ingestNs() / 1e6);

        const auto bfs = runBfs(graph, ds.edges[0].src, threads);
        const auto pr = runPageRank(graph, 10, threads);
        const auto cc = runConnectedComponents(graph, threads);
        std::printf("queries: BFS %lu levels, PR checksum %lu, "
                    "CC %lu components\n",
                    static_cast<unsigned long>(bfs.iterations),
                    static_cast<unsigned long>(pr.checksum),
                    static_cast<unsigned long>(cc.checksum));

        // Leave an un-archived window in the log so recovery has edges
        // to replay (the expensive half of its critical path).
        auto extra = generateUniform(ds.numVertices,
                                     std::max<uint64_t>(total / 64, 1024),
                                     /*seed=*/total);
        graph.session(0)->addEdges(extra.data(), extra.size());
        graph.bufferAllEdges();
        graph.syncBackings();
        // destructor == power failure
    }

    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    if (!recovered || !report.ok()) {
        std::fprintf(stderr, "FAIL: recovery: %s\n",
                     report.error.c_str());
        return 1;
    }
    std::printf("recovered in %.3f simulated ms (%llu edges replayed)\n",
                report.recoveryNs / 1e6,
                static_cast<unsigned long long>(report.edgesReplayed));

    writeTelemetry(args, recovered.get());
    recovered.reset();
    if (!args.has("backing"))
        std::filesystem::remove_all(dir);
    return 0;
}

void
usage()
{
    std::printf(
        "usage: xpgraph_cli "
        "<generate|ingest|query|explain|recover|pipeline|profile|watch> "
        "[--opt v | --opt=v] [--telemetry trace.json]\n"
        "       xpgraph_cli explain <bfs|pr|cc|onehop> [--dataset TT] "
        "[--json FILE|-]\n"
        "see the file header of tools/xpgraph_cli.cpp for details\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    // explain takes its kernel as a positional argument; everything
    // else is strictly --option form.
    std::string positional;
    int first = 2;
    if (cmd == "explain" && argc > 2 &&
        std::strncmp(argv[2], "--", 2) != 0) {
        positional = argv[2];
        first = 3;
    }
    const Args args(argc, argv, first);
    setupTelemetry(args);
    if (cmd == "generate")
        return cmdGenerate(args);
    if (cmd == "ingest")
        return cmdIngest(args);
    if (cmd == "query")
        return cmdQuery(args);
    if (cmd == "explain")
        return cmdExplain(args, positional);
    if (cmd == "recover")
        return cmdRecover(args);
    if (cmd == "pipeline")
        return cmdPipeline(args);
    if (cmd == "profile")
        return cmdProfile(args);
    if (cmd == "watch")
        return cmdWatch(args);
    usage();
    return 1;
}
