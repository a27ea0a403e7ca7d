/**
 * @file
 * Reproduces Fig.13: PMEM read and write data amount during ingestion
 * for GraphOne-P, GraphOne-N, XPGraph, and XPGraph-B (PCM-equivalent
 * media counters).
 *
 * Paper shape: XPGraph reads 2.29-4.17x and writes 2.02-3.44x less than
 * GraphOne-P; XPGraph-B reads up to 31% and writes up to 47% less than
 * XPGraph; GraphOne-N an order of magnitude worse.
 *
 * Emits BENCH_traffic.json (XPG_BENCH_TRAFFIC_JSON to override): per
 * (dataset, system) the full PCM counter set plus the per-phase
 * latency quantiles of that run, splitting the traffic's time cost
 * into logging vs archiving.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "telemetry/telemetry.hpp"

using namespace xpg;
using namespace xpg::bench;

int
main(int argc, char **argv)
{
    printBanner("fig13_pmem_traffic",
                "Fig.13 (PMEM read/write data amount during ingestion)");

    std::vector<std::string> names = {"TT", "FS", "UK", "YW",
                                      "K28", "K29", "K30"};
    if (argc > 1) {
        names.clear();
        for (int i = 1; i < argc; ++i)
            names.push_back(argv[i]);
    }
    const unsigned threads = 16;

    TablePrinter reads("Fig.13: PMEM media READ bytes");
    reads.header({"dataset", "GraphOne-P", "GraphOne-N", "XPGraph",
                  "XPGraph-B", "G1-P/XPG", "B vs XPG"});
    TablePrinter writes("Fig.13: PMEM media WRITE bytes");
    writes.header({"dataset", "GraphOne-P", "GraphOne-N", "XPGraph",
                   "XPGraph-B", "G1-P/XPG", "B vs XPG"});

    json::JsonValue json_rows = json::JsonValue::array();
    for (const auto &name : names) {
        const Dataset ds = loadDataset(name);

        // Each run gets its own telemetry window so the phase series
        // attributes the traffic's time cost to logging vs archiving.
        auto measured = [&](auto &&run) {
            telemetry::Telemetry::instance().reset();
            IngestOutcome o = run();
            json::JsonValue row = json::JsonValue::object();
            row.set("dataset", ds.spec.abbrev);
            row.set("system", o.system);
            row.set("ingest_ns", o.ingestNs());
            row.set("counters", o.counters.toJson());
            row.set("attribution", o.attribution.toJson());
            if (o.compression.chunksCompressed > 0) {
                row.set("chunks_compressed",
                        o.compression.chunksCompressed);
                row.set("compressed_bytes_per_edge",
                        o.compression.bytesPerEdge());
                row.set("compression_ratio",
                        o.compression.compressionRatio());
                row.set("compression_bytes_saved",
                        o.compression.bytesSaved());
            }
            const json::JsonValue phases = telemetryPhaseSeries();
            if (phases.size() != 0)
                row.set("phase_latency_ns", phases);
            json_rows.push(std::move(row));
            return o;
        };

        const auto g1p = measured([&] {
            return ingestGraphone(
                ds, graphoneConfig(ds, GraphOneVariant::Pmem, threads),
                "GraphOne-P");
        });
        const auto g1n = measured([&] {
            return ingestGraphone(
                ds, graphoneConfig(ds, GraphOneVariant::Nova, threads),
                "GraphOne-N");
        });
        const auto xpg = measured([&] {
            return ingestXpgraph(ds, xpgraphConfig(ds, threads),
                                 "XPGraph");
        });
        const auto xpgb = measured([&] {
            XPGraphConfig bc = xpgraphConfig(ds, threads);
            bc.batteryBacked = true;
            return ingestXpgraph(ds, bc, "XPGraph-B");
        });

        auto ratio = [](uint64_t a, uint64_t b) {
            return TablePrinter::num(static_cast<double>(a) /
                                     static_cast<double>(b ? b : 1), 2) +
                   "x";
        };
        auto saved = [](uint64_t xpg_v, uint64_t b_v) {
            const double s =
                (static_cast<double>(xpg_v) - static_cast<double>(b_v)) /
                static_cast<double>(xpg_v ? xpg_v : 1) * 100.0;
            return TablePrinter::num(s, 0) + "%";
        };

        reads.row({ds.spec.abbrev,
                   TablePrinter::bytes(g1p.counters.mediaBytesRead),
                   TablePrinter::bytes(g1n.counters.mediaBytesRead),
                   TablePrinter::bytes(xpg.counters.mediaBytesRead),
                   TablePrinter::bytes(xpgb.counters.mediaBytesRead),
                   ratio(g1p.counters.mediaBytesRead,
                         xpg.counters.mediaBytesRead),
                   saved(xpg.counters.mediaBytesRead,
                         xpgb.counters.mediaBytesRead)});
        writes.row({ds.spec.abbrev,
                    TablePrinter::bytes(g1p.counters.mediaBytesWritten),
                    TablePrinter::bytes(g1n.counters.mediaBytesWritten),
                    TablePrinter::bytes(xpg.counters.mediaBytesWritten),
                    TablePrinter::bytes(xpgb.counters.mediaBytesWritten),
                    ratio(g1p.counters.mediaBytesWritten,
                          xpg.counters.mediaBytesWritten),
                    saved(xpg.counters.mediaBytesWritten,
                          xpgb.counters.mediaBytesWritten)});
    }
    reads.print();
    writes.print();
    json::JsonValue doc = json::JsonValue::object();
    doc.set("bench", "fig13_pmem_traffic");
    doc.set("rows", std::move(json_rows));
    writeJsonReport(doc, "XPG_BENCH_TRAFFIC_JSON", "BENCH_traffic.json",
                    "fig13_pmem_traffic");
    std::printf("\npaper: XPGraph reduces PMEM reads 2.29-4.17x and "
                "writes 2.02-3.44x vs GraphOne-P; XPGraph-B saves up to "
                "31%% reads / 47%% writes more\n");
    return 0;
}
