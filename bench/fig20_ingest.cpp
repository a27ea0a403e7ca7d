/**
 * @file
 * Concurrent-ingest scaling: throughput vs number of client sessions
 * (1/2/4/8), XPGraph vs GraphOne-P, driven through the polymorphic
 * GraphStore interface (extends Fig.20's thread-scaling study from
 * archive threads to logging sessions, S III-D).
 *
 * XPGraph sessions bind to NUMA-local partitions and append to per-node
 * edge logs, so adding sessions adds independent log streams; XPGraph
 * additionally runs with the pipelined (background) archiver. GraphOne
 * keeps one shared log on one device, so its sessions contend on the
 * same DIMMs from unbound threads — the NUMA-oblivious design the paper
 * punishes.
 *
 * Emits BENCH_ingest.json (XPG_BENCH_INGEST_JSON env var to override)
 * with per-(store, sessions) ingest time, throughput, and media-write
 * counters so the scaling claim is machine-checkable. The headline
 * check: every multi-session XPGraph run must out-ingest the
 * single-session run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "telemetry/telemetry.hpp"

using namespace xpg;
using namespace xpg::bench;

namespace {

struct Row
{
    std::string store;
    unsigned sessions;
    IngestOutcome o;
    /// Merged per-phase latency quantiles of this run (telemetry ON).
    json::JsonValue phases;

    double
    edgesPerSec(uint64_t edges) const
    {
        const uint64_t ns = o.ingestNs();
        return ns == 0 ? 0.0
                       : static_cast<double>(edges) * 1e9 /
                             static_cast<double>(ns);
    }
};

void
writeJson(const std::vector<Row> &rows, const Dataset &ds)
{
    json::JsonValue doc = json::JsonValue::object();
    doc.set("bench", "fig20_ingest");
    doc.set("dataset", ds.spec.abbrev);
    doc.set("edges", static_cast<uint64_t>(ds.edges.size()));
    json::JsonValue arr = json::JsonValue::array();
    for (const Row &r : rows) {
        json::JsonValue row = json::JsonValue::object();
        row.set("store", r.store);
        row.set("sessions", r.sessions);
        row.set("ingest_ns", r.o.ingestNs());
        row.set("logging_wall_ns", r.o.stats.loggingNsMax > 0
                                       ? r.o.stats.loggingNsMax
                                       : r.o.stats.loggingNs);
        row.set("client_wall_ns", r.o.stats.clientNsMax);
        row.set("archiving_ns", r.o.stats.archivingNs());
        row.set("edges_per_sec", r.edgesPerSec(ds.edges.size()));
        row.set("media_write_bytes", r.o.counters.mediaBytesWritten);
        row.set("media_read_bytes", r.o.counters.mediaBytesRead);
        row.set("sessions_opened", r.o.stats.sessionsOpened);
        row.set("attribution", r.o.attribution.toJson());
        if (r.phases.size() != 0)
            row.set("phase_latency_ns", r.phases);
        arr.push(std::move(row));
    }
    doc.set("rows", std::move(arr));
    writeJsonReport(doc, "XPG_BENCH_INGEST_JSON", "BENCH_ingest.json",
                    "fig20_ingest");
}

} // namespace

int
main(int argc, char **argv)
{
    printBanner("fig20_ingest",
                "Fig.20 companion (ingest throughput vs client sessions)");

    const Dataset ds = loadDataset(argc > 1 ? argv[1] : "TT");
    const unsigned archive_threads = 48;
    const std::vector<unsigned> session_counts = {1, 2, 4, 8};

    std::vector<Row> rows;

    TablePrinter table("Concurrent ingest: throughput (M edges/s of "
                       "simulated time) vs client sessions");
    table.header({"store", "sessions", "ingest (s)", "Medge/s",
                  "media-wr", "speedup vs 1"});

    struct StoreKind
    {
        const char *label;
        bool pipelined; // XPGraph only
        bool graphone;
    };
    const std::vector<StoreKind> kinds = {
        {"XPGraph", false, false},
        {"XPGraph-pipe", true, false},
        {"GraphOne-P", false, true},
    };

    bool xpg_scales = true;
    for (const StoreKind &kind : kinds) {
        double base_tput = 0.0;
        for (unsigned sessions : session_counts) {
            // Per-row telemetry window: zero the histograms so this
            // row's phase quantiles cover exactly this run.
            telemetry::Telemetry::instance().reset();
            IngestOutcome o;
            if (kind.graphone) {
                GraphOne store(graphoneConfig(
                    ds, GraphOneVariant::Pmem, archive_threads));
                o = ingestStore(store, ds, kind.label,
                                /*volatile_store=*/false, sessions);
            } else {
                XPGraphConfig c = xpgraphConfig(ds, archive_threads);
                c.pipelinedArchiving = kind.pipelined;
                XPGraph store(c);
                o = ingestStore(store, ds, kind.label,
                                /*volatile_store=*/false, sessions);
            }
            Row r{kind.label, sessions, o, telemetryPhaseSeries()};
            const double tput = r.edgesPerSec(ds.edges.size());
            if (sessions == 1)
                base_tput = tput;
            else if (!kind.graphone && tput <= base_tput)
                xpg_scales = false;
            table.row({kind.label, std::to_string(sessions),
                       TablePrinter::seconds(o.ingestNs()),
                       TablePrinter::num(tput / 1e6, 2),
                       TablePrinter::bytes(o.counters.mediaBytesWritten),
                       TablePrinter::num(base_tput > 0.0
                                             ? tput / base_tput
                                             : 0.0,
                                         2) +
                           "x"});
            rows.push_back(std::move(r));
        }
    }
    table.print();
    std::printf("\npaper shape: XPGraph's NUMA-local per-node logs keep "
                "scaling with sessions;\nGraphOne's single shared log "
                "saturates on cross-socket DIMM contention\n");
    writeJson(rows, ds);
    if (!xpg_scales) {
        std::printf("FAIL: a multi-session XPGraph run did not beat the "
                    "single-session throughput\n");
        return 1;
    }
    std::printf("PASS: every multi-session XPGraph run out-ingests the "
                "single-session run\n");
    return 0;
}
