/**
 * @file
 * Per-operation records (DESIGN.md §15): opId stamping and
 * thread-local nesting (including exception unwind), exactness of a
 * record's deltas against the store-global counters, cross-thread opId
 * uniqueness/monotonicity, per-class roll-ups, the event-log/trace-ring
 * opId correlation, one simulated total per phase feeding its
 * IngestStats field, histogram, trace span and class roll-up alike,
 * round-level QueryDriver stats summing to the kernel's deltas (the
 * `xpgraph_cli explain` invariant), round records that leave out
 * what a probe-less view did not measure, and kernels on a view
 * probing through the view's backing store. Suites are named OpScope* /
 * Explain* so the sanitizer stages of bench/run_tier1_bench.sh pick
 * them up by filter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analytics/algorithms.hpp"
#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/generators.hpp"
#include "mini_json.hpp"
#include "telemetry/op_scope.hpp"
#include "telemetry/telemetry.hpp"
#include "temp_dir.hpp"

namespace xpg {
namespace {

using minijson::MiniJson;
using minijson::parseOrDie;
using telemetry::OpClass;
using telemetry::OpCost;
using telemetry::OpScope;

/** Small deterministic store the delta tests run against. */
std::unique_ptr<XPGraph>
makeStore(uint64_t seed = 7)
{
    const vid_t nv = 300;
    std::vector<Edge> edges = generateRmat(9, 9000, RmatParams{}, seed);
    foldVertices(edges, nv);
    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9;
    c.archiveThreads = 4;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
    auto g = std::make_unique<XPGraph>(c);
    g->session(0)->addEdges(edges.data(), edges.size());
    g->bufferAllEdges();
    g->flushAllVbufs();
    return g;
}

/** Small archived GraphOne store: it has no query probe. */
std::unique_ptr<GraphOne>
makeGraphOne()
{
    const vid_t nv = 300;
    std::vector<Edge> edges = generateRmat(9, 4000, RmatParams{}, 11);
    foldVertices(edges, nv);
    GraphOneConfig c;
    c.maxVertices = nv;
    c.archiveThreads = 4;
    c.bytesPerNode = graphoneRecommendedBytesPerNode(c, edges.size());
    auto g = std::make_unique<GraphOne>(c);
    g->session(0)->addEdges(edges.data(), edges.size());
    g->archiveAll();
    return g;
}

void
expectZeroCost(const OpCost &cost)
{
    EXPECT_EQ(cost.pcm.mediaBytesRead, 0u);
    EXPECT_EQ(cost.pcm.mediaBytesWritten, 0u);
    EXPECT_EQ(cost.pcm.appBytesRead, 0u);
    EXPECT_EQ(cost.pcm.appBytesWritten, 0u);
    EXPECT_EQ(cost.decodedBytes, 0u);
    EXPECT_EQ(cost.decodeCalls, 0u);
}

// --- opId stamping and the thread-local nesting stack ------------------

TEST(OpScope, StampsMonotonicIdsAndPublishesInnermost)
{
    EXPECT_EQ(OpScope::currentOpId(), 0u);
    OpScope outer(nullptr, "outer", OpClass::Other);
    EXPECT_GT(outer.opId(), 0u);
    EXPECT_EQ(OpScope::currentOpId(), outer.opId());
    {
        OpScope inner(nullptr, "inner", OpClass::Other);
        EXPECT_GT(inner.opId(), outer.opId());
        EXPECT_EQ(OpScope::currentOpId(), inner.opId());
    }
    EXPECT_EQ(OpScope::currentOpId(), outer.opId());
    outer.close();
    EXPECT_EQ(OpScope::currentOpId(), 0u);
}

TEST(OpScope, ExceptionUnwindRestoresPreviousId)
{
    OpScope outer(nullptr, "outer", OpClass::Other);
    try {
        OpScope inner(nullptr, "inner", OpClass::Other);
        EXPECT_EQ(OpScope::currentOpId(), inner.opId());
        throw std::runtime_error("unwind through the scope");
    } catch (const std::runtime_error &) {
    }
    EXPECT_EQ(OpScope::currentOpId(), outer.opId());
}

TEST(OpScope, CloseIsIdempotent)
{
    auto store = makeStore();
    OpScope scope(store.get(), "idempotent", OpClass::Query);
    const OpCost &first = scope.close();
    const uint64_t media = first.pcm.mediaBytesRead;
    // Touch the store after closing: the returned cost must not move.
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < 100; ++v)
        store->getNebrsOut(v, nebrs);
    const OpCost &second = scope.close();
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(second.pcm.mediaBytesRead, media);
    EXPECT_TRUE(scope.closed());
}

TEST(OpScope, NullSourceYieldsZeroDeltas)
{
    OpScope scope(nullptr, "null_source", OpClass::Ingest);
    expectZeroCost(scope.close());
}

// --- delta exactness against the store-global counters -----------------

TEST(OpScope, DeltaMatchesGlobalCountersOnQuiescedStore)
{
    auto store = makeStore();
    const PcmCounters before = store->pmemCounters();
    OpScope scope(store.get(), "probe", OpClass::Query);
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < store->numVertices(); ++v)
        store->getNebrsOut(v, nebrs);
    const OpCost &cost = scope.close();
    const PcmCounters delta = store->pmemCounters() - before;
    EXPECT_EQ(cost.pcm.mediaBytesRead, delta.mediaBytesRead);
    EXPECT_EQ(cost.pcm.mediaReadOps, delta.mediaReadOps);
    EXPECT_EQ(cost.pcm.appBytesRead, delta.appBytesRead);
    EXPECT_EQ(cost.attribution.total().mediaBytesRead,
              delta.mediaBytesRead);
    EXPECT_GT(cost.pcm.appBytesRead, 0u);
}

TEST(OpScope, ConcurrentOpsOnSeparateStoresStayExact)
{
    // Overlapping scopes over ONE store necessarily see each other's
    // traffic (the counters are store-global); the supported pattern
    // is one op per store at a time. Run a scope per thread against a
    // private store and check each delta against that store's own
    // global movement — plus opId uniqueness across the threads.
    constexpr unsigned kThreads = 4;
    std::vector<std::unique_ptr<XPGraph>> stores;
    for (unsigned t = 0; t < kThreads; ++t)
        stores.push_back(makeStore(/*seed=*/100 + t));

    std::vector<uint64_t> ids(kThreads, 0);
    // Not vector<bool>: its bit-packing makes writes to distinct
    // indices race on the shared word.
    std::vector<char> exact(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            XPGraph &g = *stores[t];
            const PcmCounters before = g.pmemCounters();
            OpScope scope(&g, "worker", OpClass::Query);
            ids[t] = scope.opId();
            std::vector<vid_t> nebrs;
            for (vid_t v = 0; v < g.numVertices(); ++v)
                g.getNebrsOut(v, nebrs);
            const OpCost &cost = scope.close();
            const PcmCounters delta = g.pmemCounters() - before;
            exact[t] = cost.pcm.mediaBytesRead == delta.mediaBytesRead &&
                       cost.pcm.mediaReadOps == delta.mediaReadOps &&
                       cost.pcm.appBytesRead == delta.appBytesRead;
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_TRUE(exact[t]) << "thread " << t;
    std::vector<uint64_t> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
        << "opIds must be unique across threads";
    EXPECT_GT(sorted.front(), 0u);
}

TEST(OpScope, OpsOpenedCounterAdvances)
{
    const uint64_t before = OpScope::opsOpened();
    {
        OpScope a(nullptr, "a", OpClass::Other);
        OpScope b(nullptr, "b", OpClass::Other);
    }
    EXPECT_GE(OpScope::opsOpened(), before + 2);
}

TEST(OpScope, ClassTotalsRollUpClosedScopes)
{
    auto store = makeStore();
    const telemetry::OpClassTotals before =
        OpScope::classTotals(OpClass::Ingest);
    {
        OpScope scope(store.get(), "rollup", OpClass::Ingest);
        std::vector<vid_t> nebrs;
        for (vid_t v = 0; v < 200; ++v)
            store->getNebrsOut(v, nebrs);
    }
    const telemetry::OpClassTotals after =
        OpScope::classTotals(OpClass::Ingest);
    EXPECT_EQ(after.ops, before.ops + 1);
    EXPECT_GE(after.mediaReadBytes, before.mediaReadBytes);
}

TEST(OpScope, CloseAddsTheSegmentTotalToItsStat)
{
    // The stat update is the engine's bookkeeping, so it runs in OFF
    // builds too; nothing lands before close.
    std::atomic<uint64_t> stat{5};
    {
        OpScope scope(nullptr, "segments", OpClass::Other, &stat);
        scope.add(10);
        scope.add(32);
        EXPECT_EQ(stat.load(), 5u);
        EXPECT_EQ(scope.close().simNs, 42u);
        scope.close(); // neither this nor the destructor adds again
    }
    EXPECT_EQ(stat.load(), 47u);
}

// --- correlation: events and trace records carry the current opId ------

TEST(OpScope, EventLogRecordsCurrentOpId)
{
    const telemetry::TraceBuffer &ring =
        telemetry::Telemetry::instance().trace();
    const uint64_t first = ring.emitted();
    uint64_t id = 0;
    {
        OpScope scope(nullptr, "evented", OpClass::Other);
        id = scope.opId();
        XPG_EVENT(Info, "other", "op_scope_correlation", id, 0);
    }
    XPG_EVENT(Info, "other", "op_scope_after", 0, 0);
    bool saw_in_scope = false;
    bool saw_after = false;
    for (const auto &e : ring.collect()) {
        if (e.ticket < first || e.ph != 'i')
            continue;
        if (std::string(e.name) == "op_scope_correlation") {
            EXPECT_EQ(e.opId, id);
            saw_in_scope = true;
        }
        if (std::string(e.name) == "op_scope_after") {
            EXPECT_EQ(e.opId, 0u);
            saw_after = true;
        }
    }
    EXPECT_TRUE(saw_in_scope);
    EXPECT_TRUE(saw_after);
}

// --- one record per phase: stat, histogram, span and roll-up agree ----

/** Summed sim_ns of the spans named @p name emitted from ticket
 *  @p first on (the ring must not have wrapped since). */
uint64_t
spanSimSum(uint64_t first, const char *name)
{
    const telemetry::TraceBuffer &trace =
        telemetry::Telemetry::instance().trace();
    EXPECT_LE(trace.emitted() - first, trace.capacity())
        << "trace ring wrapped";
    uint64_t sum = 0;
    for (const telemetry::TraceEventView &ev : trace.collect())
        if (ev.ticket >= first && std::strcmp(ev.name, name) == 0)
            sum += ev.simNs;
    return sum;
}

/** The last span named @p name emitted from ticket @p first on, with
 *  the summed a0 of all of them in @p a0_sum. */
telemetry::TraceEventView
lastSpan(uint64_t first, const char *name, uint64_t &a0_sum)
{
    telemetry::TraceEventView last;
    a0_sum = 0;
    for (const telemetry::TraceEventView &ev :
         telemetry::Telemetry::instance().trace().collect()) {
        if (ev.ticket < first || std::strcmp(ev.name, name) != 0)
            continue;
        a0_sum += ev.a0;
        last = ev;
    }
    return last;
}

uint64_t
histogramSum(const char *name)
{
    return telemetry::Telemetry::instance().metrics().mergedHistogram(name).sum;
}

uint64_t
nextTicket()
{
    return telemetry::Telemetry::instance().trace().emitted();
}

/** One phase's invariant: its spans and its histogram hold exactly the
 *  simulated total its IngestStats field gained. */
void
expectPhaseAgrees(const char *span, uint64_t first_ticket,
                  const char *histogram, uint64_t histogram_before,
                  uint64_t stat_delta)
{
    SCOPED_TRACE(span);
    EXPECT_GT(stat_delta, 0u);
    EXPECT_EQ(spanSimSum(first_ticket, span), stat_delta);
    EXPECT_EQ(histogramSum(histogram) - histogram_before, stat_delta);
}

/** The Archive roll-up over a run: its simulated total is the
 *  archiving time, and no media byte is counted twice. */
void
expectArchiveRollUp(const telemetry::OpClassTotals &before,
                    const IngestStats &s0, const IngestStats &s1,
                    const PcmCounters &pcm_delta)
{
    const telemetry::OpClassTotals after =
        OpScope::classTotals(OpClass::Archive);
    EXPECT_EQ(after.simNs - before.simNs,
              s1.archivingNs() - s0.archivingNs());
    EXPECT_EQ(after.ops - before.ops,
              (s1.bufferingPhases - s0.bufferingPhases) +
                  (s1.flushAllPhases - s0.flushAllPhases));
    EXPECT_LE(after.mediaWriteBytes - before.mediaWriteBytes,
              pcm_delta.mediaBytesWritten);
}

TEST(OpScopeRecords, XPGraphPressureFlushesAgreeWithIngestStats)
{
    const vid_t nv = 300;
    std::vector<Edge> edges = generateRmat(9, 9000, RmatParams{}, 7);
    foldVertices(edges, nv);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
        c.elogCapacityEdges = 1 << 13;
        c.bufferingThresholdEdges = 1 << 9;
        c.archiveThreads = threads;
        c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
        XPGraph g(c);

        const uint64_t first = nextTicket();
        const uint64_t buffering0 =
            histogramSum("archive.buffering_phase_ns");
        const uint64_t flush0 = histogramSum("archive.flush_phase_ns");
        const telemetry::OpClassTotals arch0 =
            OpScope::classTotals(OpClass::Archive);
        const IngestStats s0 = g.snapshotStats();
        const PcmCounters pcm0 = g.pmemCounters();

        // Inline archiving only: every flush here is triggered by log
        // pressure from inside a buffering phase.
        g.session(0)->addEdges(edges.data(), edges.size());

        const IngestStats s1 = g.snapshotStats();
        ASSERT_GT(s1.flushAllPhases, s0.flushAllPhases)
            << "the run never hit a pressure-triggered flush";
        expectPhaseAgrees("buffering_phase", first,
                          "archive.buffering_phase_ns", buffering0,
                          s1.bufferingNs - s0.bufferingNs);
        expectPhaseAgrees("flush_phase", first, "archive.flush_phase_ns",
                          flush0, s1.flushingNs - s0.flushingNs);
        expectArchiveRollUp(arch0, s0, s1, g.pmemCounters() - pcm0);
    }
}

TEST(OpScopeRecords, PhaseSpansCarryWhatThePhaseDid)
{
    XPGraphConfig c = XPGraphConfig::persistent(64, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9;
    c.archiveThreads = 2;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, 4000);
    XPGraph g(c);
    auto session = g.session(0);
    const uint64_t first = nextTicket();
    for (vid_t d = 0; d < 200; ++d)
        session->addEdge(1, d % 32);
    g.archiveAll();
    for (vid_t d = 0; d < 120; ++d)
        session->delEdge(1, d % 32);
    g.archiveAll();

    // Buffering: a0 = edges the phase buffered.
    uint64_t buffered = 0;
    lastSpan(first, "buffering_phase", buffered);
    EXPECT_EQ(buffered, g.stats().edgesBuffered);

    // Compaction: a0 = chains rewritten, a1 = bytes this pass reclaimed.
    const uint64_t reclaimed0 = g.stats().compactionBytesReclaimed;
    const uint64_t pass_first = nextTicket();
    const uint64_t rewritten = g.runCompactionPass();
    ASSERT_GE(rewritten, 1u);
    uint64_t rewritten_sum = 0;
    const telemetry::TraceEventView pass =
        lastSpan(pass_first, "compaction_pass", rewritten_sum);
    EXPECT_EQ(pass.ph, 'X');
    EXPECT_STREQ(pass.cat, "compaction");
    EXPECT_EQ(pass.a0, rewritten);
    EXPECT_EQ(pass.a1, g.stats().compactionBytesReclaimed - reclaimed0);
    EXPECT_GT(pass.a1, 0u);
}

TEST(OpScopeRecords, GraphOneArchivePassAgreesWithIngestStats)
{
    const vid_t nv = 300;
    std::vector<Edge> edges = generateRmat(9, 4000, RmatParams{}, 11);
    foldVertices(edges, nv);
    GraphOneConfig c;
    c.maxVertices = nv;
    c.elogCapacityEdges = 1 << 14;
    c.archiveThresholdEdges = 1 << 13; // above the stream: one pass
    c.archiveThreads = 4;
    c.bytesPerNode = graphoneRecommendedBytesPerNode(c, edges.size());
    GraphOne g(c);
    g.session(0)->addEdges(edges.data(), edges.size());

    const uint64_t first = nextTicket();
    const uint64_t hist0 = histogramSum("archive.archive_phase_ns");
    const telemetry::OpClassTotals arch0 =
        OpScope::classTotals(OpClass::Archive);
    const IngestStats s0 = g.snapshotStats();
    const PcmCounters pcm0 = g.pmemCounters();
    g.archiveAll();
    const IngestStats s1 = g.snapshotStats();

    EXPECT_EQ(s1.bufferingPhases - s0.bufferingPhases, 1u);
    expectPhaseAgrees("archive_phase", first, "archive.archive_phase_ns",
                      hist0, s1.archivingNs() - s0.archivingNs());
    expectArchiveRollUp(arch0, s0, s1, g.pmemCounters() - pcm0);
}

TEST(OpScopeRecords, RecoveryStepsAgreeWithRecoveryNs)
{
    const std::string dir = makeTempDir("xpg_opscope_recovery");
    const vid_t nv = 300;
    std::vector<Edge> edges = generateRmat(9, 6000, RmatParams{}, 13);
    foldVertices(edges, nv);
    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.backingDir = dir;
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 12;
    c.archiveThreads = 4;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
    {
        XPGraph g(c);
        auto session = g.session(0);
        session->addEdges(edges.data(), edges.size() / 2);
        g.archiveAll();
        // Buffered but unflushed at the crash: recovery replays these.
        session->addEdges(edges.data() + edges.size() / 2,
                          edges.size() - edges.size() / 2);
        g.bufferAllEdges();
        g.syncBackings();
    }

    const uint64_t first = nextTicket();
    const uint64_t hist0 = histogramSum("recovery.step_ns");
    RecoveryReport report;
    auto recovered = XPGraph::recover(c, &report);
    ASSERT_TRUE(recovered);
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report.edgesReplayed, 0u);
    EXPECT_GT(report.recoveryNs, 0u);
    EXPECT_EQ(recovered->stats().recoveryNs, report.recoveryNs);
    // Two steps, one record each, sharing recovery.step_ns.
    const uint64_t rebuild = spanSimSum(first, "recovery.rebuild_chains");
    const uint64_t replay = spanSimSum(first, "recovery.replay_log");
    EXPECT_GT(rebuild, 0u);
    EXPECT_GT(replay, 0u);
    EXPECT_EQ(rebuild + replay, report.recoveryNs);
    EXPECT_EQ(histogramSum("recovery.step_ns") - hist0, report.recoveryNs);
    recovered.reset();
    std::filesystem::remove_all(dir);
}

TEST(OpScopeRecords, KernelTotalsAgreeWithRounds)
{
    auto store = makeStore();
    for (const char *algo : {"bfs", "pagerank"}) {
        SCOPED_TRACE(algo);
        const uint64_t first = nextTicket();
        const uint64_t hist0 = histogramSum("query.kernel_ns");
        const AnalyticsResult r = std::strcmp(algo, "bfs") == 0
                                      ? runBfs(*store, 0, 4)
                                      : runPageRank(*store, 3, 4);
        EXPECT_GT(r.simNs, 0u);
        EXPECT_EQ(r.op.simNs, r.simNs);
        uint64_t round_ns = 0;
        for (const RoundStats &rs : r.rounds)
            round_ns += rs.simNs;
        EXPECT_GT(round_ns, 0u);
        EXPECT_EQ(spanSimSum(first, "query_round"), round_ns);
        EXPECT_EQ(spanSimSum(first, algo), r.simNs);
        EXPECT_EQ(histogramSum("query.kernel_ns") - hist0, r.simNs);
    }
}

// --- Explain*: round stats vs the bracketing op (the CLI invariant) ----

TEST(ExplainRounds, RoundMediaReadsSumToOpDelta)
{
    auto store = makeStore();
    const AnalyticsResult r = runBfs(*store, 0, 4);
    ASSERT_FALSE(r.rounds.empty());
    uint64_t media_ops = 0, media_bytes = 0, active = 0;
    for (const RoundStats &rs : r.rounds) {
        media_ops += rs.mediaReadOps;
        media_bytes += rs.mediaReadBytes;
        active += rs.activeVertices;
    }
    // Continuous probe coverage: per-round media reads sum to the
    // OpScope's device-counter delta exactly on a quiesced store.
    EXPECT_EQ(media_ops, r.op.pcm.mediaReadOps);
    EXPECT_EQ(media_bytes, r.op.pcm.mediaBytesRead);
    // BFS touches every reached vertex exactly once across rounds.
    EXPECT_EQ(active, r.touched);
    EXPECT_GT(r.op.opId, 0u);
    EXPECT_EQ(std::string(r.op.name), "bfs");
    EXPECT_EQ(r.op.cls, OpClass::Query);
}

TEST(ExplainRounds, AttributionRowsSumToOpPcm)
{
    auto store = makeStore();
    store->archiveAll();
    const telemetry::AttributionSnapshot g0 = store->pmemAttribution();
    const AnalyticsResult r = runConnectedComponents(*store, 4);
    const telemetry::AttributionSnapshot g1 = store->pmemAttribution();
    // The op's attribution rows mirror its own pcm delta (rows sum to
    // device counters by construction) AND the global table's movement
    // while the op ran (the store is otherwise quiesced).
    const PcmCounters rows = r.op.attribution.total();
    EXPECT_EQ(rows.mediaBytesRead, r.op.pcm.mediaBytesRead);
    EXPECT_EQ(rows.appBytesRead, r.op.pcm.appBytesRead);
    const PcmCounters global = (g1 - g0).total();
    EXPECT_EQ(rows.mediaBytesRead, global.mediaBytesRead);
    EXPECT_EQ(rows.appBytesRead, global.appBytesRead);
}

TEST(ExplainRounds, CostEstimatesFilledEveryRound)
{
    auto store = makeStore();
    const AnalyticsResult r = runPageRank(*store, 3, 4);
    // Degree pass + 3 sweeps.
    ASSERT_EQ(r.rounds.size(), 4u);
    for (size_t i = 0; i < r.rounds.size(); ++i) {
        const RoundStats &rs = r.rounds[i];
        EXPECT_EQ(rs.round, i + 1);
        EXPECT_EQ(rs.activeVertices, store->numVertices());
        EXPECT_GT(rs.pushCostNs, 0.0);
        EXPECT_GT(rs.pullCostNs, 0.0);
    }
    // Full sweeps scanning the whole in-adjacency: the model must see
    // the pull side as no more expensive than random pushes over every
    // edge (gain bounded above by 1 by construction).
    for (const RoundStats &rs : r.rounds)
        EXPECT_LE(rs.directionSwitchGain, 1.0);
}

TEST(ExplainRounds, UnprobedRoundsLeaveProbeFieldsOut)
{
    // GraphOne has no query probe: its rounds measure active vertices
    // and simulated time only, and leave the probe-derived fields out
    // instead of reporting them as zero.
    auto graphone = makeGraphOne();
    auto xpgraph = makeStore();

    for (GraphStore *store : {static_cast<GraphStore *>(graphone.get()),
                              static_cast<GraphStore *>(xpgraph.get())}) {
        const bool probed = store == xpgraph.get();
        SCOPED_TRACE(probed ? "xpgraph" : "graphone");
        const AnalyticsResult r = runBfs(*store, 0, 4);
        ASSERT_FALSE(r.rounds.empty());
        for (const RoundStats &rs : r.rounds) {
            EXPECT_EQ(rs.probed, probed);
            const MiniJson doc = parseOrDie(rs.toJson().dump());
            EXPECT_TRUE(doc.has("active_vertices"));
            EXPECT_TRUE(doc.has("sim_ns"));
            for (const char *key :
                 {"edges_scanned", "sealed_records", "buffer_records",
                  "log_window_records", "decoded_bytes", "media_read_ops",
                  "media_read_bytes", "media_read_ops_per_device",
                  "push_cost_ns", "pull_cost_ns", "direction_switch_gain"})
                EXPECT_EQ(doc.has(key), probed) << key;
        }
    }
}

TEST(ExplainRounds, ViewKernelsAskTheirStore)
{
    // A kernel on a view declares its readers and probes its rounds
    // through the view's backing store. An XPGraph view reads the
    // store's devices, so its rounds are probed and sum exactly to the
    // op's delta; a GraphOne view is a materialized copy with no store
    // behind it, so no round is probed.
    auto xpgraph = makeStore();
    {
        const auto view = xpgraph->openView();
        ASSERT_EQ(view->backingStore(), xpgraph.get());
        const AnalyticsResult r = runBfs(*view, 0, 4);
        ASSERT_FALSE(r.rounds.empty());
        uint64_t media_ops = 0, media_bytes = 0;
        for (const RoundStats &rs : r.rounds) {
            EXPECT_TRUE(rs.probed);
            media_ops += rs.mediaReadOps;
            media_bytes += rs.mediaReadBytes;
        }
        EXPECT_GT(media_ops, 0u);
        EXPECT_EQ(media_ops, r.op.pcm.mediaReadOps);
        EXPECT_EQ(media_bytes, r.op.pcm.mediaBytesRead);
    }

    const auto graphone = makeGraphOne();
    const auto view = graphone->openView();
    ASSERT_EQ(view->backingStore(), nullptr);
    const AnalyticsResult r = runBfs(*view, 0, 4);
    ASSERT_FALSE(r.rounds.empty());
    for (const RoundStats &rs : r.rounds)
        EXPECT_FALSE(rs.probed);
}

} // namespace
} // namespace xpg
