/**
 * @file
 * Recovery cost vs un-archived log depth (companion to Fig.15).
 *
 * XPGraph's recovery critical path is: rebuild the persisted adjacency
 * chains, then replay the un-archived log window [flushedUpTo, head) into
 * fresh vertex buffers. The window depth at crash time is therefore the
 * knob that decides recovery latency — which is exactly what pipelined
 * (background) archiving keeps shallow during normal operation.
 *
 * For each depth the store is fully archived, @p depth extra edges are
 * appended (log-only), the process "crashes", and the store is recovered
 * twice: into an inline-archiving instance and into a pipelined one. Both
 * report the structured RecoveryReport plus the post-recovery re-archive
 * wall (the time until the replayed window is back in PMEM chains).
 *
 * Emits BENCH_recovery.json (XPG_BENCH_RECOVERY_JSON to override) so the
 * depth scaling is machine-checkable. PASS: every recovery returns Ok
 * with no repairs, replay counts track the injected depth, and recovery
 * time grows with the window depth.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace xpg;
using namespace xpg::bench;

namespace {

struct Row
{
    std::string mode; ///< archiving mode of the recovered instance
    uint64_t depth;   ///< un-archived log edges at crash time
    RecoveryReport report;
    uint64_t rearchiveNs; ///< archivingNs() added by archiveAll() after
                          ///< recovery
};

void
writeJson(const std::vector<Row> &rows, const Dataset &ds)
{
    json::JsonValue doc = json::JsonValue::object();
    doc.set("bench", "fig_recovery");
    doc.set("dataset", ds.spec.abbrev);
    doc.set("base_edges", static_cast<uint64_t>(ds.edges.size()));
    json::JsonValue arr = json::JsonValue::array();
    for (const Row &r : rows) {
        json::JsonValue row = json::JsonValue::object();
        row.set("archiving", r.mode);
        row.set("log_depth", r.depth);
        row.set("recovery_ns", r.report.recoveryNs);
        row.set("rearchive_ns", r.rearchiveNs);
        row.set("edges_replayed", r.report.edgesReplayed);
        row.set("edges_deduped", r.report.edgesDeduped);
        row.set("repaired", r.report.repaired());
        arr.push(std::move(row));
    }
    doc.set("rows", std::move(arr));
    // Rebuild/replay step quantiles across every recovery of the bench
    // (telemetry ON; absent otherwise).
    const json::JsonValue phases = telemetryPhaseSeries();
    if (phases.size() != 0)
        doc.set("phase_latency_ns", phases);
    writeJsonReport(doc, "XPG_BENCH_RECOVERY_JSON", "BENCH_recovery.json",
                    "fig_recovery");
}

} // namespace

int
main(int argc, char **argv)
{
    printBanner("fig_recovery",
                "Fig.15 companion (recovery time vs log depth)");

    const Dataset ds = loadDataset(argc > 1 ? argv[1] : "TT");
    const std::string dir = "/tmp/xpg_fig_recovery";
    std::filesystem::create_directories(dir);

    XPGraphConfig base = xpgraphConfig(ds, 16);
    base.backingDir = dir;

    std::vector<uint64_t> depths = {1u << 10, 1u << 12, 1u << 14,
                                    1u << 16};
    // The window must fit the (scaled) log, and the buffering threshold
    // must stay above it so the extra edges remain un-archived.
    while (depths.back() * 2 > base.elogCapacityEdges)
        depths.pop_back();
    base.bufferingThresholdEdges = depths.back() * 2;

    std::vector<Row> rows;
    bool ok = true;

    TablePrinter table("Recovery cost vs un-archived log depth "
                       "(simulated time)");
    table.header({"archiving", "log depth", "replayed", "recovery",
                  "re-archive"});
    for (const uint64_t depth : depths) {
        for (const bool pipelined : {false, true}) {
            // Build the victim: fully archived base graph plus `depth`
            // buffered-but-unflushed edges, then a crash. Rebuilt per
            // mode — recovering consumes the replay window.
            {
                XPGraph graph(base);
                graph.session(0)->addEdges(ds.edges.data(),
                                           ds.edges.size());
                graph.archiveAll();
                auto extra = generateUniform(ds.numVertices, depth,
                                             /*seed=*/depth);
                graph.session(0)->addEdges(extra.data(), extra.size());
                // Move the window into [flushedUpTo, bufferedUpTo):
                // these edges were in (lost) DRAM vertex buffers at
                // crash time and must be replayed, the expensive half
                // of recovery.
                graph.bufferAllEdges();
                graph.syncBackings();
                // destructor == power failure
            }
            XPGraphConfig c = base;
            c.pipelinedArchiving = pipelined;
            RecoveryReport report;
            auto recovered = XPGraph::recover(c, &report);
            if (!recovered || !report.ok() || report.repaired()) {
                std::fprintf(stderr, "FAIL: recovery at depth %llu: %s\n",
                             static_cast<unsigned long long>(depth),
                             report.error.c_str());
                ok = false;
                continue;
            }
            // The archive phases fan out over the archive threads, so
            // their wall is the archivingNs() they add, not this
            // thread's SimClock delta.
            const uint64_t before = recovered->stats().archivingNs();
            recovered->archiveAll();
            Row r{pipelined ? "pipelined" : "inline", depth, report,
                  recovered->stats().archivingNs() - before};
            table.row({r.mode, std::to_string(depth),
                       std::to_string(report.edgesReplayed),
                       TablePrinter::seconds(report.recoveryNs),
                       TablePrinter::seconds(r.rearchiveNs)});
            rows.push_back(std::move(r));
        }
    }
    table.print();
    writeJson(rows, ds);
    std::filesystem::remove_all(dir);

    // Depth scaling: the deepest window must replay more and take longer
    // than the shallowest (per mode).
    for (const std::string mode : {"inline", "pipelined"}) {
        const Row *lo = nullptr;
        const Row *hi = nullptr;
        for (const Row &r : rows) {
            if (r.mode != mode)
                continue;
            if (lo == nullptr)
                lo = &r;
            hi = &r;
        }
        if (lo == nullptr || hi == lo)
            continue;
        if (hi->report.edgesReplayed <= lo->report.edgesReplayed ||
            hi->report.recoveryNs <= lo->report.recoveryNs) {
            std::fprintf(stderr,
                         "FAIL: %s recovery does not scale with log "
                         "depth\n",
                         mode.c_str());
            ok = false;
        }
    }
    if (!ok)
        return 1;
    std::printf("PASS: all recoveries Ok without repairs; recovery time "
                "scales with the un-archived window\n");
    return 0;
}
