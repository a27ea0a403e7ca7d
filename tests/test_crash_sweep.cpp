/**
 * @file
 * Systematic crash-point sweep (ctest label: crash): for every K-th media
 * write of a deterministic ingest/archive/compaction workload, a machine-
 * wide power loss is injected (optionally tearing the final XPLine write),
 * the store is power-cycled and recovered, and the recovered graph must be
 * a prefix-consistent snapshot of the op stream — nothing acknowledged
 * lost, no phantom records, and the store must accept the missing suffix
 * to reach the exact full graph.
 *
 * Sweeps cover XPGraph (clean + torn-write + delete/compaction workloads)
 * and the GraphOne baseline (durable-log re-archiving recovery).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "crash_harness.hpp"
#include "graph/generators.hpp"
#include "mini_json.hpp"
#include "telemetry/flight_recorder.hpp"
#include "temp_dir.hpp"
#include "util/logging.hpp"

namespace xpg {
namespace {

using crash::Op;
using minijson::MiniJson;
using minijson::parseOrDie;

std::string
slurpFile(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Scoped flight-recorder enable: records land in @p dir for the
 *  duration of one sweep, and the singleton is disabled again even
 *  when an assertion bails out early. */
struct FlightRecorderScope
{
    explicit FlightRecorderScope(const std::string &dir)
    {
        telemetry::FlightRecorder::instance().configure(dir);
    }
    ~FlightRecorderScope()
    {
        telemetry::FlightRecorder::instance().disable();
    }
};

/** When the recorder is enabled and the run crashed, the record on
 *  disk must be the postmortem of *this* crash: parseable, flavored
 *  with the crash reason, and carrying the in-flight phase plus both
 *  ring tails. Exports a copy to $XPG_FLIGHT_RECORD_OUT (CI keeps one
 *  as a build artifact). */
void
expectCrashFlightRecord(uint64_t dumps_before)
{
    auto &flight = telemetry::FlightRecorder::instance();
    EXPECT_GT(flight.dumps(), dumps_before)
        << "crash tripped but no flight record was dumped";
    const std::string path = flight.lastPath();
    ASSERT_FALSE(path.empty());
    const MiniJson rec = parseOrDie(slurpFile(path));
    EXPECT_EQ(rec.at("schema").str, "xpgraph-flight-v1");
    EXPECT_EQ(rec.at("reason").str, "fault_injector_crash");
    EXPECT_TRUE(rec.has("in_flight_phase"));
    EXPECT_TRUE(rec.has("event_tail"));
    EXPECT_TRUE(rec.has("trace_tail"));
    if (const char *out = std::getenv("XPG_FLIGHT_RECORD_OUT");
        out != nullptr && out[0] != '\0') {
        std::error_code ec;
        std::filesystem::copy_file(
            path, out, std::filesystem::copy_options::overwrite_existing,
            ec);
    }
}

/** Sweep density: media-write step is sized for at least this many
 *  distinct crash points (the ISSUE floor is 200). */
constexpr uint64_t kTargetPoints = 210;
constexpr uint64_t kMinPoints = 200;

std::vector<Edge>
distinctEdges(vid_t nv, uint64_t n, uint64_t seed)
{
    auto edges = generateUniform(nv, n * 2, seed);
    std::sort(edges.begin(), edges.end(),
              [](const Edge &a, const Edge &b) {
                  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    if (edges.size() > n)
        edges.resize(n);
    return edges;
}

/** Inserts with periodic deletes of earlier edges and compaction points:
 *  exercises tombstones, chain appends and the compaction index swing
 *  under power loss. */
std::vector<Op>
deleteCompactionOps(const std::vector<Edge> &edges)
{
    std::vector<Op> ops;
    ops.reserve(edges.size() * 2);
    size_t inserted = 0;
    while (inserted < edges.size()) {
        const size_t block =
            std::min<size_t>(300, edges.size() - inserted);
        for (size_t i = 0; i < block; ++i)
            ops.push_back(Op{Op::Insert, edges[inserted + i]});
        // Delete every 5th edge of the block just inserted.
        for (size_t i = 0; i < block; i += 5)
            ops.push_back(Op{Op::Delete, edges[inserted + i]});
        ops.push_back(Op{Op::Compact, Edge{0, 0}});
        inserted += block;
    }
    return ops;
}

class CrashSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = makeTempDir(std::string("xpg_crash_") +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name());
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** Deterministic engine: one archive thread, inline archiving,
     *  single-threaded client (the default session). */
    XPGraphConfig
    xpgConfig(vid_t nv, uint64_t ne) const
    {
        XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
        c.backingDir = dir_;
        c.numNodes = 2;
        c.elogCapacityEdges = 1 << 12;
        c.bufferingThresholdEdges = 1 << 8;
        c.archiveThreads = 1;
        c.pmemBytesPerNode = recommendedBytesPerNode(c, ne * 2);
        return c;
    }

    GraphOneConfig
    g1Config(vid_t nv, uint64_t ne) const
    {
        GraphOneConfig c;
        c.maxVertices = nv;
        c.variant = GraphOneVariant::Pmem;
        c.backingDir = dir_;
        // Recovery re-archives the log, so it must hold the workload.
        c.elogCapacityEdges = 1 << 12;
        XPG_ASSERT(ne < c.elogCapacityEdges, "workload must fit the log");
        c.archiveThresholdEdges = 1 << 8;
        c.archiveThreads = 1;
        c.bytesPerNode = graphoneRecommendedBytesPerNode(c, ne * 2);
        return c;
    }

    /** Media writes the workload performs without faults (calibrates the
     *  sweep step so crash points cover the whole run). */
    template <typename MakeStore, typename Compact>
    uint64_t
    dryRunMediaWrites(MakeStore make, const std::vector<Op> &ops,
                      Compact compact)
    {
        auto store = make();
        crash::runUntilCrash(*store, ops, nullptr,
                             [&] { compact(*store); });
        store->archiveAll();
        return store->pmemCounters().mediaWriteOps;
    }

    std::string dir_;
};

/** One crash point: run to the Nth media write, power-cycle, recover,
 *  verify prefix consistency, then re-ingest the suffix and require the
 *  exact full graph. With @p view_at_half, a snapshot-isolated ReadView
 *  opens after the first half of the ops and stays open across the
 *  crash window: its reclaim-floor pin and limbo parking must not leak
 *  into the persisted image. Returns the recovery report. */
RecoveryReport
sweepOnePointXpg(const XPGraphConfig &config, const std::vector<Op> &ops,
                 vid_t nv, const FaultPlan &plan,
                 bool view_at_half = false)
{
    auto &flight = telemetry::FlightRecorder::instance();
    const uint64_t dumps_before = flight.dumps();
    bool crashed = false;
    uint64_t acked = 0;
    uint64_t submitted = 0;
    {
        XPGraph graph(config); // fresh instance: discards old files
        auto injector = graph.injectFaults(plan);
        if (!view_at_half) {
            std::tie(acked, submitted) = crash::runUntilCrash(
                graph, ops, injector.get(),
                [&] { graph.compactAllAdjs(); });
        } else {
            const auto half =
                ops.begin() +
                static_cast<std::ptrdiff_t>(ops.size() / 2);
            const std::vector<Op> first(ops.begin(), half);
            const std::vector<Op> second(half, ops.end());
            std::tie(acked, submitted) = crash::runUntilCrash(
                graph, first, injector.get(),
                [&] { graph.compactAllAdjs(); });
            {
                std::unique_ptr<ReadView> view;
                if (!injector->crashed())
                    view = graph.openView();
                const auto [a2, s2] = crash::runUntilCrash(
                    graph, second, injector.get(),
                    [&] { graph.compactAllAdjs(); });
                acked += a2;
                submitted += s2;
            } // view closes before the power cycle
        }
        crashed = injector->crashed();
        graph.powerCycle();
    }
    if (flight.enabled() && crashed) {
        expectCrashFlightRecord(dumps_before);
        if (::testing::Test::HasFatalFailure())
            return RecoveryReport{};
    }

    RecoveryReport report;
    auto recovered = XPGraph::recover(config, &report);
    EXPECT_TRUE(recovered != nullptr && report.ok())
        << "crashAfter=" << plan.crashAfterMediaWrites << ": "
        << recoveryStatusName(report.status) << " " << report.error;
    if (!recovered)
        return report;
    if (flight.enabled() && report.repaired()) {
        // A repairing recovery overwrites the crash record with its own
        // postmortem carrying the RecoveryReport.
        const MiniJson rec = parseOrDie(slurpFile(flight.lastPath()));
        EXPECT_EQ(rec.at("reason").str, "recovery_repairs");
        EXPECT_TRUE(rec.has("recovery"));
    }
    recovered->archiveAll(); // absorb the pending log window

    const int64_t j = crash::verifyPrefixConsistent(*recovered, nv, ops,
                                                    acked, submitted);
    EXPECT_GE(j, 0) << "crashAfter=" << plan.crashAfterMediaWrites
                    << ": recovered graph is not a prefix-consistent "
                       "snapshot (acked="
                    << acked << ", submitted=" << submitted << ")";
    if (j < 0)
        return report;

    // Usable store: re-ingesting the lost suffix must land exactly on
    // the full graph.
    {
        auto replay = recovered->session(0);
        for (uint64_t k = static_cast<uint64_t>(j); k < ops.size(); ++k) {
            const Op &op = ops[k];
            if (op.kind == Op::Insert)
                replay->addEdge(op.e.src, op.e.dst);
            else if (op.kind == Op::Delete)
                replay->delEdge(op.e.src, op.e.dst);
            else
                recovered->compactAllAdjs();
        }
    }
    recovered->archiveAll();
    crash::LiveState full(nv);
    for (const Op &op : ops)
        full.apply(op);
    EXPECT_TRUE(full.matches(*recovered))
        << "crashAfter=" << plan.crashAfterMediaWrites
        << ": suffix re-ingest did not reach the full graph (j=" << j
        << ")";
    return report;
}

TEST_F(CrashSweepTest, XPGraphEveryKthMediaWrite)
{
    const vid_t nv = 96;
    const auto edges = distinctEdges(nv, 2000, 7);
    const auto ops = crash::insertOps(edges);
    const XPGraphConfig config = xpgConfig(nv, edges.size());

    const uint64_t media = dryRunMediaWrites(
        [&] { return std::make_unique<XPGraph>(config); }, ops,
        [](XPGraph &) {});
    const uint64_t step = std::max<uint64_t>(1, media / kTargetPoints);

    uint64_t points = 0;
    for (uint64_t n = 1; n <= media; n += step) {
        FaultPlan plan;
        plan.crashAfterMediaWrites = n;
        sweepOnePointXpg(config, ops, nv, plan);
        if (::testing::Test::HasFatalFailure())
            return;
        ++points;
    }
    EXPECT_GE(points, kMinPoints);
}

TEST_F(CrashSweepTest, XPGraphTornFinalWrite)
{
    const vid_t nv = 96;
    const auto edges = distinctEdges(nv, 2000, 11);
    const auto ops = crash::insertOps(edges);
    const XPGraphConfig config = xpgConfig(nv, edges.size());

    // Flight-recorder coverage rides this sweep: every crash point (the
    // modes cycle through all torn flavors) must leave a parseable
    // postmortem record, checked inside sweepOnePointXpg.
    FlightRecorderScope flight_scope(dir_);

    const uint64_t media = dryRunMediaWrites(
        [&] { return std::make_unique<XPGraph>(config); }, ops,
        [](XPGraph &) {});
    const uint64_t step = std::max<uint64_t>(1, media / kTargetPoints);

    constexpr FaultPlan::TornMode kModes[] = {FaultPlan::TornMode::Prefix,
                                              FaultPlan::TornMode::Suffix,
                                              FaultPlan::TornMode::Drop};
    uint64_t points = 0;
    uint64_t repaired = 0;
    for (uint64_t n = 1; n <= media; n += step) {
        FaultPlan plan;
        plan.crashAfterMediaWrites = n;
        plan.torn = kModes[points % 3];
        // Vary the tear position over the 8-byte failure-atomicity grid.
        plan.tornBytes = 8 * (1 + points % 31);
        const RecoveryReport report =
            sweepOnePointXpg(config, ops, nv, plan);
        if (::testing::Test::HasFatalFailure())
            return;
        repaired += report.repaired() ? 1 : 0;
        ++points;
    }
    EXPECT_GE(points, kMinPoints);
    // Torn/dropped final writes must be detected (and repaired) at least
    // somewhere in the sweep — a zero count means the injection or the
    // validation is dead code.
    EXPECT_GT(repaired, 0u);
    EXPECT_GT(telemetry::FlightRecorder::instance().dumps(), 0u)
        << "no crash in the sweep ever produced a flight record";
}

TEST_F(CrashSweepTest, XPGraphDeletesAndCompaction)
{
    const vid_t nv = 96;
    const auto edges = distinctEdges(nv, 1500, 13);
    const auto ops = deleteCompactionOps(edges);
    const XPGraphConfig config = xpgConfig(nv, ops.size());

    const uint64_t media = dryRunMediaWrites(
        [&] { return std::make_unique<XPGraph>(config); }, ops,
        [](XPGraph &g) { g.compactAllAdjs(); });
    const uint64_t step = std::max<uint64_t>(1, media / kTargetPoints);

    uint64_t points = 0;
    for (uint64_t n = 1; n <= media; n += step) {
        FaultPlan plan;
        plan.crashAfterMediaWrites = n;
        plan.torn = points % 2 ? FaultPlan::TornMode::Prefix : FaultPlan::TornMode::None;
        sweepOnePointXpg(config, ops, nv, plan);
        if (::testing::Test::HasFatalFailure())
            return;
        ++points;
    }
    EXPECT_GE(points, kMinPoints);
}

TEST_F(CrashSweepTest, XPGraphMidCompactionEveryWrite)
{
    // The compaction-journal proof (DESIGN.md §13): crash at EVERY
    // media write inside a store-wide compaction pass, cycling all four
    // torn-line flavors over the final write. Every op was acknowledged
    // and archived before the pass begins, and compaction never changes
    // the live graph — so recovery must land on exactly the full state
    // every time: an armed rewrite rolls forward (old chain reclaimed)
    // or rolls back (new blocks leaked), never half-applies, and no
    // reclaimed chunk may remain reachable from the index.
    const vid_t nv = 64;
    const auto edges = distinctEdges(nv, 1200, 23);
    std::vector<Op> ops;
    ops.reserve(edges.size() * 2);
    for (const Edge &e : edges)
        ops.push_back(Op{Op::Insert, e});
    // Tombstone half the graph so the pass has real work on most chains.
    for (size_t i = 0; i < edges.size(); i += 2)
        ops.push_back(Op{Op::Delete, edges[i]});
    const XPGraphConfig config = xpgConfig(nv, ops.size());

    // Calibrate the pass's media-write window [pre, total).
    uint64_t pre = 0;
    uint64_t total = 0;
    {
        XPGraph dry(config);
        crash::runUntilCrash(dry, ops, nullptr);
        dry.archiveAll();
        pre = dry.pmemCounters().mediaWriteOps;
        dry.compactAllAdjs();
        total = dry.pmemCounters().mediaWriteOps;
    }
    ASSERT_GT(total, pre) << "compaction pass wrote nothing — dead sweep";

    crash::LiveState full(nv);
    for (const Op &op : ops)
        full.apply(op);

    constexpr FaultPlan::TornMode kModes[] = {FaultPlan::TornMode::None,
                                              FaultPlan::TornMode::Prefix,
                                              FaultPlan::TornMode::Suffix,
                                              FaultPlan::TornMode::Drop};
    uint64_t in_flight = 0;
    uint64_t reclaimed = 0;
    uint64_t points = 0;
    for (uint64_t n = pre + 1; n <= total; ++n) {
        FaultPlan plan;
        plan.crashAfterMediaWrites = n;
        plan.torn = kModes[points % 4];
        plan.tornBytes = 8 * (1 + points % 31);
        {
            XPGraph graph(config);
            auto injector = graph.injectFaults(plan);
            crash::runUntilCrash(graph, ops, injector.get());
            graph.archiveAll();
            graph.compactAllAdjs(); // the crash lands inside this pass
            graph.powerCycle();
        }
        RecoveryReport report;
        auto recovered = XPGraph::recover(config, &report);
        ASSERT_TRUE(recovered != nullptr && report.ok())
            << "crashAfter=" << n << ": "
            << recoveryStatusName(report.status) << " " << report.error;
        in_flight += report.compactionsInFlight;
        reclaimed += report.chunksReclaimed;
        recovered->archiveAll();
        ASSERT_TRUE(full.matches(*recovered))
            << "crashAfter=" << n
            << ": mid-compaction crash did not recover to the full graph";
        // The repaired store keeps working: re-running the pass over the
        // repaired chains must be a pure space operation.
        recovered->compactAllAdjs();
        ASSERT_TRUE(full.matches(*recovered))
            << "crashAfter=" << n << ": post-repair compaction corrupted";
        ++points;
    }
    EXPECT_GE(points, 100u) << "compaction window too small to sweep";
    // Anti-vacuous: the sweep must actually have caught armed journal
    // entries, in both classifications — in-flight rewrites (rolled
    // back) and committed swings whose old chain recovery confirmed
    // reclaimed. Zero means the journal protocol is dead code.
    EXPECT_GT(in_flight, 0u);
    EXPECT_GT(reclaimed, 0u);
}

TEST_F(CrashSweepTest, XPGraphCrashWithViewOpenMidArchive)
{
    // A live ReadView across the crash window changes the archiver's
    // behaviour (buffers park in the limbo instead of recycling, log
    // reclaim is floored, compaction abandons pinned blocks) — none of
    // which may alter what reaches the media.
    const vid_t nv = 96;
    const auto edges = distinctEdges(nv, 1500, 17);
    const auto ops = deleteCompactionOps(edges);
    const XPGraphConfig config = xpgConfig(nv, ops.size());

    const uint64_t media = dryRunMediaWrites(
        [&] { return std::make_unique<XPGraph>(config); }, ops,
        [](XPGraph &g) { g.compactAllAdjs(); });
    const uint64_t step = std::max<uint64_t>(1, media / kTargetPoints);

    uint64_t points = 0;
    for (uint64_t n = 1; n <= media; n += step) {
        FaultPlan plan;
        plan.crashAfterMediaWrites = n;
        sweepOnePointXpg(config, ops, nv, plan, /*view_at_half=*/true);
        if (::testing::Test::HasFatalFailure())
            return;
        ++points;
    }
    EXPECT_GE(points, kMinPoints);
}

TEST_F(CrashSweepTest, XPGraphCompressedChunks)
{
    // Compressed-chunk flavor: a low compression threshold over a small,
    // hub-heavy vertex set makes most archived runs leave as sealed
    // delta+varint chunks, so the sweep crashes mid-archive of
    // compressed chunks (including torn chunk writes) and recovery must
    // validate their payload checksums. Delete ops force raw blocks onto
    // the same chains, covering the mixed-format walk.
    const vid_t nv = 48;
    const auto edges = distinctEdges(nv, 1200, 19);
    const auto ops = deleteCompactionOps(edges);
    XPGraphConfig config = xpgConfig(nv, ops.size());
    config.compressMinDegree = 8;

    // The flavor is only meaningful if chunks are actually written.
    {
        XPGraph dry(config);
        crash::runUntilCrash(dry, ops, nullptr,
                             [&] { dry.compactAllAdjs(); });
        dry.archiveAll();
        ASSERT_GT(dry.compressionStats().chunksCompressed, 0u)
            << "workload never hit the compressed path — dead sweep";
    }

    const uint64_t media = dryRunMediaWrites(
        [&] { return std::make_unique<XPGraph>(config); }, ops,
        [](XPGraph &g) { g.compactAllAdjs(); });
    const uint64_t step = std::max<uint64_t>(1, media / kTargetPoints);

    constexpr FaultPlan::TornMode kModes[] = {FaultPlan::TornMode::None,
                                              FaultPlan::TornMode::Prefix,
                                              FaultPlan::TornMode::Suffix,
                                              FaultPlan::TornMode::Drop};
    uint64_t points = 0;
    for (uint64_t n = 1; n <= media; n += step) {
        FaultPlan plan;
        plan.crashAfterMediaWrites = n;
        plan.torn = kModes[points % 4];
        plan.tornBytes = 8 * (1 + points % 31);
        sweepOnePointXpg(config, ops, nv, plan);
        if (::testing::Test::HasFatalFailure())
            return;
        ++points;
    }
    EXPECT_GE(points, kMinPoints);
}

TEST_F(CrashSweepTest, GraphOneEveryKthMediaWrite)
{
    const vid_t nv = 96;
    const auto edges = distinctEdges(nv, 2000, 17);
    const auto ops = crash::insertOps(edges);
    const GraphOneConfig config = g1Config(nv, edges.size());

    const uint64_t media = dryRunMediaWrites(
        [&] { return std::make_unique<GraphOne>(config); }, ops,
        [](GraphOne &) {});
    const uint64_t step = std::max<uint64_t>(1, media / kTargetPoints);

    uint64_t points = 0;
    for (uint64_t n = 1; n <= media; n += step) {
        FaultPlan plan;
        plan.crashAfterMediaWrites = n;
        plan.torn = points % 2 ? FaultPlan::TornMode::Drop : FaultPlan::TornMode::None;

        uint64_t acked = 0;
        uint64_t submitted = 0;
        {
            GraphOne graph(config);
            auto injector = graph.injectFaults(plan);
            std::tie(acked, submitted) =
                crash::runUntilCrash(graph, ops, injector.get());
            graph.powerCycle();
        }
        auto recovered = GraphOne::recover(config);
        const int64_t j = crash::verifyPrefixConsistent(
            *recovered, nv, ops, acked, submitted);
        ASSERT_GE(j, 0) << "crashAfter=" << n
                        << ": GraphOne recovery is not prefix-consistent "
                           "(acked="
                        << acked << ", submitted=" << submitted << ")";
        {
            auto replay = recovered->session(0);
            for (uint64_t k = static_cast<uint64_t>(j); k < ops.size();
                 ++k)
                replay->addEdge(ops[k].e.src, ops[k].e.dst);
        }
        recovered->archiveAll();
        crash::LiveState full(nv);
        for (const Op &op : ops)
            full.apply(op);
        ASSERT_TRUE(full.matches(*recovered))
            << "crashAfter=" << n << " j=" << j;
        ++points;
    }
    EXPECT_GE(points, kMinPoints);
}

} // namespace
} // namespace xpg
