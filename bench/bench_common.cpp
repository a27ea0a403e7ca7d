#include "bench_common.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "telemetry/telemetry.hpp"

namespace xpg::bench {

unsigned
scaleShift()
{
    return defaultScaleShift();
}

Dataset
loadDataset(const std::string &abbrev)
{
    const DatasetSpec &spec = datasetByAbbrev(abbrev);
    std::fprintf(stderr, "[bench] generating %s at 1/2^%u scale...\n",
                 spec.name.c_str(), scaleShift());
    Dataset ds = generateDataset(spec, scaleShift());
    std::fprintf(stderr, "[bench]   |V|=%" PRIu64 " |E|=%zu\n",
                 static_cast<uint64_t>(ds.numVertices), ds.edges.size());
    return ds;
}

XPGraphConfig
xpgraphConfig(const Dataset &ds, unsigned archive_threads)
{
    const ScaledTestbed t = ScaledTestbed::at(scaleShift());
    XPGraphConfig c = XPGraphConfig::persistent(ds.numVertices, 0);
    c.archiveThreads = archive_threads;
    c.elogCapacityEdges = t.elogCapacityEdges;
    c.bufferingThresholdEdges =
        ScaledTestbed::thresholdFor(ds.activeVertices());
    c.memoryModeCacheBytes = t.memoryModeCacheBytes / 2; // per node
    c.pmemBytesPerNode = recommendedBytesPerNode(c, ds.edges.size());
    return c;
}

GraphOneConfig
graphoneConfig(const Dataset &ds, GraphOneVariant variant,
               unsigned archive_threads)
{
    const ScaledTestbed t = ScaledTestbed::at(scaleShift());
    GraphOneConfig c;
    c.maxVertices = ds.numVertices;
    c.variant = variant;
    c.archiveThreads = archive_threads;
    c.elogCapacityEdges = t.elogCapacityEdges;
    c.archiveThresholdEdges =
        ScaledTestbed::thresholdFor(ds.activeVertices());
    c.memoryModeCacheBytes = t.memoryModeCacheBytes / 2;
    c.bytesPerNode = graphoneRecommendedBytesPerNode(c, ds.edges.size());
    return c;
}

IngestOutcome
ingestStore(GraphStore &store, const Dataset &ds, const std::string &label,
            bool volatile_store, unsigned sessions)
{
    const Edge *edges = ds.edges.data();
    const uint64_t total = ds.edges.size();
    if (sessions == 0) {
        // Single-client baseline: one scoped session, closed before the
        // stats read so its stream time folds into the maxima.
        store.session(0)->addEdges(edges, total);
    } else {
        // Contiguous chunks keep every (src,dst) pair's records in one
        // session's log, preserving per-pair tombstone ordering.
        std::vector<std::thread> clients;
        clients.reserve(sessions);
        const uint64_t chunk = (total + sessions - 1) / sessions;
        for (unsigned t = 0; t < sessions; ++t) {
            const uint64_t lo = std::min<uint64_t>(t * chunk, total);
            const uint64_t hi = std::min<uint64_t>(lo + chunk, total);
            clients.emplace_back([&store, edges, lo, hi, t] {
                auto session = store.session(t);
                session->addEdges(edges + lo, hi - lo);
            });
        }
        for (std::thread &c : clients)
            c.join();
    }
    store.archiveAll();

    IngestOutcome o;
    o.system = label;
    o.dataset = ds.spec.abbrev;
    o.stats = store.snapshotStats();
    o.counters = store.pmemCounters();
    o.attribution = store.pmemAttribution();
    o.mem = store.memoryUsage();
    o.compression = store.compressionStats();
    if (volatile_store) {
        const ScaledTestbed t = ScaledTestbed::at(scaleShift());
        o.oom = dramFootprint(o) > t.dramBudgetBytes;
    }
    return o;
}

IngestOutcome
ingestXpgraph(const Dataset &ds, const XPGraphConfig &config,
              const std::string &label)
{
    XPGraph graph(config);
    return ingestStore(graph, ds, label,
                       config.memKind == MemKind::Dram);
}

IngestOutcome
ingestGraphone(const Dataset &ds, const GraphOneConfig &config,
               const std::string &label)
{
    GraphOne graph(config);
    return ingestStore(graph, ds, label,
                       config.variant == GraphOneVariant::Dram);
}

std::unique_ptr<XPGraph>
buildXpgraph(const Dataset &ds, const XPGraphConfig &config)
{
    auto graph = std::make_unique<XPGraph>(config);
    graph->session(0)->addEdges(ds.edges.data(), ds.edges.size());
    graph->bufferAllEdges();
    return graph;
}

std::unique_ptr<GraphOne>
buildGraphone(const Dataset &ds, const GraphOneConfig &config)
{
    auto graph = std::make_unique<GraphOne>(config);
    graph->session(0)->addEdges(ds.edges.data(), ds.edges.size());
    graph->archiveAll();
    return graph;
}

uint64_t
dramFootprint(const IngestOutcome &o)
{
    // A DRAM-only system holds everything in DRAM: metadata, vertex
    // buffers, the edge log, and the adjacency data.
    return o.mem.metaBytes + o.mem.vbufBytes + o.mem.elogBytes +
           o.mem.pblkBytes;
}

std::string
secondsOrOom(const IngestOutcome &o)
{
    if (o.oom)
        return "OOM";
    return TablePrinter::seconds(o.ingestNs());
}

bool
writeJsonReport(const json::JsonValue &doc, const char *env_var,
                const std::string &default_path, const char *bench_name)
{
    const char *env = env_var != nullptr ? std::getenv(env_var) : nullptr;
    const std::string path =
        env != nullptr && env[0] != '\0' ? env : default_path;
    if (!doc.writeFile(path)) {
        std::fprintf(stderr, "%s: cannot write %s\n", bench_name,
                     path.c_str());
        return false;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return true;
}

json::JsonValue
telemetryPhaseSeries()
{
    json::JsonValue out = json::JsonValue::object();
    const auto &metrics = telemetry::Telemetry::instance().metrics();
    for (const std::string &name : metrics.histogramNames()) {
        const telemetry::Histogram h = metrics.mergedHistogram(name);
        if (h.count == 0)
            continue;
        out.set(name, h.toJson());
    }
    return out;
}

void
printBanner(const std::string &bench, const std::string &paper_ref)
{
    std::printf("#\n# %s — reproduces %s\n", bench.c_str(),
                paper_ref.c_str());
    std::printf("# scale: 1/2^%u of the paper's dataset sizes "
                "(XPG_SCALE_SHIFT to change)\n",
                scaleShift());
    std::printf("# units: simulated seconds on the modeled Optane "
                "testbed; bytes from modeled media counters\n#\n");
    std::fflush(stdout);
}

} // namespace xpg::bench
