/**
 * @file
 * Reproduces Fig.14: graph query performance of GraphOne-P vs XPGraph
 * with all hardware threads — one-hop neighbor queries over random
 * non-zero-degree vertices (paper: 2^24, scaled here), BFS from three
 * random roots, ten PageRank iterations, and Connected Components.
 *
 * Each kernel runs once per store, with PMEM counter deltas captured
 * around the run. The per-run numbers are emitted as JSON
 * (XPG_BENCH_JSON env var, default ./BENCH_query.json) so regressions
 * are machine-checkable.
 *
 * Paper shape: one-hop comparable (within ~30% either way); BFS up to
 * 4.46x, PageRank up to 3.57x, CC up to 4.23x faster on XPGraph.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "analytics/algorithms.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace xpg;
using namespace xpg::bench;

namespace {

std::vector<vid_t>
sampleNonZeroVertices(const Dataset &ds, uint64_t count, uint64_t seed)
{
    // Sampling edge sources guarantees non-zero out-degree.
    Rng rng(seed);
    std::vector<vid_t> queries;
    queries.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        queries.push_back(ds.edges[rng.nextBounded(ds.edges.size())].src);
    return queries;
}

/** One run of one kernel on one store. */
struct Measurement
{
    uint64_t simNs = 0;
    uint64_t checksum = 0;
    uint64_t mediaReadBytes = 0;
    uint64_t appReadBytes = 0;
    // Round-level shape (from the kernel's RoundStats): multi-run
    // kernels (BFS over three roots) sum rounds and edges and keep the
    // max frontier.
    uint64_t rounds = 0;
    uint64_t frontierPeak = 0;
    uint64_t edgesScanned = 0;
    /// The store has a query probe, so edgesScanned was measured
    /// (otherwise it is absent from the report, not zero).
    bool probed = false;
};

template <typename Store, typename RunFn>
Measurement
measure(Store &store, RunFn &&run)
{
    Measurement m;
    QueryProbe probe;
    m.probed = store.sampleQueryProbe(probe);
    const PcmCounters before = store.pmemCounters();
    const AnalyticsResult r = run();
    const PcmCounters delta = store.pmemCounters() - before;
    m.simNs = r.simNs;
    m.checksum = r.checksum;
    m.mediaReadBytes = delta.mediaBytesRead;
    m.appReadBytes = delta.appBytesRead;
    m.rounds = r.rounds.size();
    for (const RoundStats &rs : r.rounds) {
        m.edgesScanned += rs.edgesScanned;
        m.frontierPeak = std::max(m.frontierPeak, rs.activeVertices);
    }
    return m;
}

struct JsonRow
{
    std::string dataset;
    std::string store;
    std::string algo;
    Measurement m;
};

/** Lifetime per-cause traffic split of one store (ingest + all kernels). */
struct StoreAttribution
{
    std::string dataset;
    std::string store;
    telemetry::AttributionSnapshot attribution;
};

void
writeJson(const std::vector<JsonRow> &rows,
          const std::vector<StoreAttribution> &attrs)
{
    json::JsonValue doc = json::JsonValue::object();
    doc.set("bench", "fig14_query");
    json::JsonValue arr = json::JsonValue::array();
    for (const JsonRow &r : rows) {
        json::JsonValue row = json::JsonValue::object();
        row.set("dataset", r.dataset);
        row.set("store", r.store);
        row.set("algorithm", r.algo);
        row.set("sim_ns", r.m.simNs);
        row.set("media_read_bytes", r.m.mediaReadBytes);
        row.set("app_read_bytes", r.m.appReadBytes);
        row.set("checksum", r.m.checksum);
        row.set("rounds", r.m.rounds);
        row.set("frontier_peak", r.m.frontierPeak);
        if (r.m.probed)
            row.set("edges_scanned", r.m.edgesScanned);
        arr.push(std::move(row));
    }
    doc.set("rows", std::move(arr));
    if (!attrs.empty()) {
        // Per-store lifetime split: how much of each store's media
        // traffic the queries caused vs the ingest that built it.
        json::JsonValue attr_arr = json::JsonValue::array();
        for (const StoreAttribution &a : attrs) {
            json::JsonValue row = json::JsonValue::object();
            row.set("dataset", a.dataset);
            row.set("store", a.store);
            row.set("attribution", a.attribution.toJson());
            attr_arr.push(std::move(row));
        }
        doc.set("store_attribution", std::move(attr_arr));
    }
    // Kernel/round latency quantiles accumulated across every run of
    // the bench.
    const json::JsonValue phases = telemetryPhaseSeries();
    if (phases.size() != 0)
        doc.set("phase_latency_ns", phases);
    writeJsonReport(doc, "XPG_BENCH_JSON", "BENCH_query.json",
                    "fig14_query");
}

} // namespace

int
main(int argc, char **argv)
{
    printBanner("fig14_query",
                "Fig.14 (one-hop / BFS / PageRank / CC query time)");

    std::vector<std::string> names = {"TT", "FS", "UK", "YW",
                                      "K28", "K29", "K30"};
    if (argc > 1) {
        names.clear();
        for (int i = 1; i < argc; ++i)
            names.push_back(argv[i]);
    }
    const unsigned ingest_threads = 16;
    const unsigned query_threads = 96; // all logical cores of the testbed
    const uint64_t onehop_queries =
        std::max<uint64_t>(1024, (1ull << 24) >> scaleShift());

    TablePrinter table("Fig.14: query time (simulated seconds), "
                       "96 query threads");
    table.header({"dataset", "algorithm", "GraphOne-P", "XPGraph",
                  "speedup"});

    std::vector<JsonRow> json;
    std::vector<StoreAttribution> attrs;

    for (const auto &name : names) {
        const Dataset ds = loadDataset(name);
        auto g1 = buildGraphone(
            ds, graphoneConfig(ds, GraphOneVariant::Pmem, ingest_threads));
        auto xpg = buildXpgraph(ds, xpgraphConfig(ds, ingest_threads));

        const auto queries =
            sampleNonZeroVertices(ds, onehop_queries, 0xF14);
        Rng root_rng(0xB0F5);
        std::vector<vid_t> roots;
        for (int i = 0; i < 3; ++i)
            roots.push_back(
                ds.edges[root_rng.nextBounded(ds.edges.size())].src);

        struct Algo
        {
            const char *name;
            Measurement g1m;
            Measurement xpgm;
        };
        std::vector<Algo> algos;

        {
            Algo a{"1-hop", {}, {}};
            a.g1m = measure(*g1, [&] {
                return runOneHop(*g1, queries, query_threads);
            });
            a.xpgm = measure(*xpg, [&] {
                return runOneHop(*xpg, queries, query_threads);
            });
            algos.push_back(a);
        }
        {
            Algo a{"BFS(3 roots)", {}, {}};
            auto sum3 = [&](auto &store) {
                return measure(store, [&] {
                    AnalyticsResult total;
                    for (vid_t root : roots) {
                        auto r = runBfs(store, root, query_threads);
                        total.simNs += r.simNs;
                        total.checksum += r.checksum;
                        // Concatenate so the Measurement aggregation
                        // sees all three traversals' rounds.
                        total.rounds.insert(
                            total.rounds.end(),
                            std::make_move_iterator(r.rounds.begin()),
                            std::make_move_iterator(r.rounds.end()));
                    }
                    return total;
                });
            };
            a.g1m = sum3(*g1);
            a.xpgm = sum3(*xpg);
            algos.push_back(a);
        }
        {
            Algo a{"PageRank(10)", {}, {}};
            a.g1m = measure(*g1, [&] {
                return runPageRank(*g1, 10, query_threads);
            });
            a.xpgm = measure(*xpg, [&] {
                return runPageRank(*xpg, 10, query_threads);
            });
            algos.push_back(a);
        }
        {
            Algo a{"CC", {}, {}};
            a.g1m = measure(*g1, [&] {
                return runConnectedComponents(*g1, query_threads);
            });
            a.xpgm = measure(*xpg, [&] {
                return runConnectedComponents(*xpg, query_threads);
            });
            algos.push_back(a);
        }

        for (const Algo &a : algos) {
            table.row({ds.spec.abbrev, a.name,
                       TablePrinter::seconds(a.g1m.simNs),
                       TablePrinter::seconds(a.xpgm.simNs),
                       TablePrinter::num(
                           static_cast<double>(a.g1m.simNs) /
                               static_cast<double>(a.xpgm.simNs),
                           2) + "x"});
            json.push_back({ds.spec.abbrev, "GraphOne-P", a.name, a.g1m});
            json.push_back({ds.spec.abbrev, "XPGraph", a.name, a.xpgm});
        }
        attrs.push_back(
            {ds.spec.abbrev, "GraphOne-P", g1->pmemAttribution()});
        attrs.push_back({ds.spec.abbrev, "XPGraph", xpg->pmemAttribution()});
    }
    table.print();
    std::printf("\npaper: 1-hop within ~30%%; BFS up to 4.46x, PageRank "
                "up to 3.57x, CC up to 4.23x faster on XPGraph\n");
    writeJson(json, attrs);
    return 0;
}
