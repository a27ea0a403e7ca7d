/**
 * @file
 * Churn bench: sustained insert/delete mixes with the background
 * compactor on vs off (DESIGN.md §13).
 *
 * Two mixes run back to back — 90/10 and 50/50 insert/delete batches —
 * each twice on fresh stores: once with backgroundCompaction enabled
 * (plus one explicit closing pass so the reclaim numbers are
 * deterministic) and once with the compactor fully off. Deletes target
 * edges the same run inserted earlier (sampled from a live-edge window),
 * so tombstones land on real chains and the compactor has genuine
 * garbage to collect.
 *
 * Per run the report carries client ingest throughput and per-batch
 * write latency percentiles (p50/p95/p99 of streamNs deltas — the stall
 * a client actually sees, including any archive or compaction pause it
 * absorbed), the compaction counters (passes, chains rewritten, bytes
 * reclaimed, records dropped), the final adjacency footprint, and an
 * order-insensitive live-edge checksum.
 *
 * Acceptance (exit 1 on failure): for each mix the live-edge checksum
 * with the compactor on must equal the checksum with it off —
 * compaction is a space operation and may never change the live graph.
 *
 * Emits BENCH_churn.json (XPG_BENCH_CHURN_JSON to override).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace xpg;
using namespace xpg::bench;

namespace {

constexpr uint64_t kBatchEdges = 64;
constexpr uint64_t kMaxBatches = 4096;

struct ChurnRow
{
    std::string label;
    unsigned deletePct = 0;
    bool compactOn = false;
    uint64_t inserted = 0;
    uint64_t deleted = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    uint64_t streamNs = 0;
    IngestStats stats;
    uint64_t pblkBytes = 0;
    uint64_t checksum = 0;
    /// Compaction activity as the trace ring saw it: passes that
    /// rewrote chains, and the chains their spans reported.
    uint64_t eventPasses = 0;
    uint64_t eventSwings = 0;

    double
    edgesPerSec() const
    {
        const uint64_t ops = inserted + deleted;
        return streamNs == 0 ? 0.0
                             : static_cast<double>(ops) * 1e9 /
                                   static_cast<double>(streamNs);
    }
};

/** Order-insensitive digest of the live out-adjacency (commutative
 *  sum, so no per-vertex sorting). */
uint64_t
liveChecksum(const XPGraph &graph, vid_t nv)
{
    uint64_t sum = 0;
    for (vid_t v = 0; v < nv; ++v)
        graph.forEachNebrOut(v, [&](vid_t n) {
            sum += (0x9e3779b97f4a7c15ull * (v + 1)) ^
                   (0xc2b2ae3d27d4eb4full * (n + 1));
        });
    return sum;
}

/**
 * One churn run: batches of kBatchEdges ops; every (100/delete_pct)-th
 * batch deletes edges sampled (deterministically) from the window of
 * edges this run inserted and has not yet deleted.
 */
ChurnRow
runMix(const XPGraphConfig &base, const Dataset &ds, unsigned delete_pct,
       bool compact_on)
{
    XPGraphConfig config = base;
    config.backgroundCompaction = compact_on;
    // Churn-tuned thresholds (and knob coverage): a 10% delete mix
    // leaves ~9% tombstones per chain and this scale's uniform chains
    // are shallow, so the paper-default ratio/floor would never fire.
    config.compactTombstoneRatio = 0.05;
    config.compactMinRecords = 8;

    ChurnRow row;
    row.deletePct = delete_pct;
    row.compactOn = compact_on;
    // Trace-ring correlation: every record from this ticket on belongs
    // to this run (the ring is process-wide, so filter by ticket).
    telemetry::TraceBuffer &trace = telemetry::Telemetry::instance().trace();
    const uint64_t first_ticket = trace.emitted();
    row.label = std::string("mix") + std::to_string(100 - delete_pct) +
                "_" + std::to_string(delete_pct) +
                (compact_on ? "_compact_on" : "_compact_off");

    XPGraph graph(config);
    auto session = graph.session(0);
    Rng rng(0xC0DE + delete_pct);

    // Live-edge window: inserted by this run, not yet deleted. Preload
    // a quarter of the stream so delete batches churn a standing
    // population instead of draining their own inserts (a strict 50/50
    // alternation would otherwise end on an empty graph).
    std::vector<Edge> window;
    const uint64_t preload =
        (ds.edges.size() / 4 / kBatchEdges) * kBatchEdges;
    session->addEdges(ds.edges.data(), preload);
    window.assign(ds.edges.begin(),
                  ds.edges.begin() + static_cast<std::ptrdiff_t>(preload));
    graph.bufferAllEdges();

    std::vector<uint64_t> lat;
    const uint64_t del_every = 100 / delete_pct; // batches per delete
    uint64_t next_edge = preload;
    uint64_t last_stream = session->streamNs();
    Edge batch[kBatchEdges];

    for (uint64_t b = 0; b < kMaxBatches; ++b) {
        const bool is_delete =
            b % del_every == del_every - 1 && window.size() >= kBatchEdges;
        if (is_delete) {
            for (uint64_t i = 0; i < kBatchEdges; ++i) {
                const uint64_t j = rng.nextBounded(window.size());
                batch[i] = window[j];
                window[j] = window.back();
                window.pop_back();
            }
            session->delEdges(batch, kBatchEdges);
            row.deleted += kBatchEdges;
        } else {
            if (next_edge + kBatchEdges > ds.edges.size())
                break;
            for (uint64_t i = 0; i < kBatchEdges; ++i) {
                batch[i] = ds.edges[next_edge + i];
                window.push_back(batch[i]);
            }
            session->addEdges(batch, kBatchEdges);
            next_edge += kBatchEdges;
            row.inserted += kBatchEdges;
        }
        const uint64_t now = session->streamNs();
        lat.push_back(now - last_stream);
        last_stream = now;
    }

    graph.archiveAll();
    if (compact_on)
        graph.runCompactionPass(); // deterministic closing reclaim

    std::sort(lat.begin(), lat.end());
    const auto at = [&](double q) {
        return lat.empty() ? 0
                           : lat[static_cast<size_t>(
                                 q * static_cast<double>(lat.size() - 1))];
    };
    row.p50 = at(0.50);
    row.p95 = at(0.95);
    row.p99 = at(0.99);
    row.streamNs = session->streamNs();
    row.stats = graph.stats();
    row.pblkBytes = graph.memoryUsage().pblkBytes;
    row.checksum = liveChecksum(graph, ds.numVertices);
    // Fold this run's compaction passes out of the process-wide ring:
    // one "compaction_pass" span per pass, a0 = chains rewritten; the
    // passes that rewrote anything count. The acceptance check
    // correlates these against the engine's own compaction counters.
    for (const telemetry::TraceEventView &ev : trace.collect()) {
        if (ev.ticket < first_ticket || ev.a0 == 0 ||
            std::strcmp(ev.name, "compaction_pass") != 0)
            continue;
        ++row.eventPasses;
        row.eventSwings += ev.a0;
    }
    return row;
}

void
writeJson(const std::vector<ChurnRow> &rows, const Dataset &ds)
{
    json::JsonValue doc = json::JsonValue::object();
    doc.set("bench", "fig_churn");
    doc.set("dataset", ds.spec.abbrev);
    doc.set("batch_edges", kBatchEdges);
    json::JsonValue arr = json::JsonValue::array();
    for (const ChurnRow &r : rows) {
        json::JsonValue row = json::JsonValue::object();
        row.set("store", "XPGraph");
        row.set("dataset", ds.spec.abbrev);
        row.set("label", r.label);
        row.set("delete_pct", r.deletePct);
        row.set("compactor", r.compactOn ? "on" : "off");
        row.set("edges_inserted", r.inserted);
        row.set("edges_deleted", r.deleted);
        row.set("edges_per_sec", r.edgesPerSec());
        row.set("write_p50_ns", r.p50);
        row.set("write_p95_ns", r.p95);
        row.set("write_p99_ns", r.p99);
        row.set("compaction_passes", r.stats.compactionPasses);
        row.set("compaction_slots", r.stats.compactionSlots);
        row.set("compaction_bytes_reclaimed",
                r.stats.compactionBytesReclaimed);
        row.set("compaction_records_dropped",
                r.stats.compactionRecordsDropped);
        row.set("event_compaction_passes", r.eventPasses);
        row.set("event_compaction_swings", r.eventSwings);
        row.set("pblk_bytes", r.pblkBytes);
        row.set("live_checksum", r.checksum);
        arr.push(std::move(row));
    }
    doc.set("rows", std::move(arr));
    writeJsonReport(doc, "XPG_BENCH_CHURN_JSON", "BENCH_churn.json",
                    "fig_churn");
}

} // namespace

int
main(int argc, char **argv)
{
    printBanner("fig_churn",
                "churn study (insert/delete mixes, compactor on vs off)");

    const Dataset ds = loadDataset(argc > 1 ? argv[1] : "TT");
    const XPGraphConfig config = xpgraphConfig(ds, /*archive_threads=*/16);

    std::vector<ChurnRow> rows;
    for (unsigned delete_pct : {10u, 50u}) {
        rows.push_back(runMix(config, ds, delete_pct, /*compact_on=*/true));
        rows.push_back(runMix(config, ds, delete_pct, /*compact_on=*/false));
    }

    TablePrinter table("Churn: insert/delete mixes, background compactor "
                       "on vs off (simulated time)");
    table.header({"mix", "Medge/s", "p50 us", "p99 us", "chains", "MiB freed",
                  "live checksum"});
    const auto us = [](uint64_t ns) {
        return TablePrinter::num(static_cast<double>(ns) / 1e3, 2);
    };
    for (const ChurnRow &r : rows)
        table.row({r.label, TablePrinter::num(r.edgesPerSec() / 1e6, 3),
                   us(r.p50), us(r.p99),
                   std::to_string(r.stats.compactionSlots),
                   TablePrinter::num(static_cast<double>(
                                         r.stats.compactionBytesReclaimed) /
                                         (1 << 20),
                                     2),
                   TablePrinter::num(static_cast<double>(r.checksum), 0)});
    table.print();

    writeJson(rows, ds);

    // Acceptance: per mix, compactor on vs off must agree on the live
    // graph exactly — compaction reclaims space, never edges.
    bool ok = true;
    for (size_t i = 0; i + 1 < rows.size(); i += 2) {
        if (rows[i].checksum != rows[i + 1].checksum) {
            std::fprintf(stderr,
                         "FAIL: live-edge checksum differs with compactor "
                         "on vs off (%s: %llx vs %s: %llx)\n",
                         rows[i].label.c_str(),
                         static_cast<unsigned long long>(rows[i].checksum),
                         rows[i + 1].label.c_str(),
                         static_cast<unsigned long long>(
                             rows[i + 1].checksum));
            ok = false;
        }
        if (rows[i].stats.compactionSlots == 0) {
            std::fprintf(stderr,
                         "FAIL: %s never compacted a chain — dead bench\n",
                         rows[i].label.c_str());
            ok = false;
        }
    }
    // Trace-ring correlation (compact-on rows): the ring must have
    // witnessed the compaction the engine counters report — at least
    // one pass span that rewrote chains, reporting at least as many
    // swings as chains the engine says it rewrote (a candidate whose
    // chain emptied in-buffer counts as a swing but not a slot, so >=,
    // never <).
    for (const ChurnRow &r : rows) {
        if (!r.compactOn || r.stats.compactionSlots == 0)
            continue;
        if (r.eventPasses == 0 || r.eventSwings < r.stats.compactionSlots) {
            std::fprintf(
                stderr,
                "FAIL: %s compacted %llu chains but the trace "
                "ring saw %llu swings in %llu passes — compaction "
                "spans out of sync with the engine\n",
                r.label.c_str(),
                static_cast<unsigned long long>(r.stats.compactionSlots),
                static_cast<unsigned long long>(r.eventSwings),
                static_cast<unsigned long long>(r.eventPasses));
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
