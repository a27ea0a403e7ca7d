/**
 * @file
 * Media-traffic attribution layer (DESIGN.md §10): AccessScope nesting
 * and exception-safety, per-thread scope independence, the exact-sum
 * invariant (category rows partition the device's PcmCounters), RMW and
 * eviction blame, the bounded per-XPLine heat table, and the bare
 * mutators. Every suite here is named Attribution* so the TSAN stage of
 * bench/run_tier1_bench.sh picks all of it up with one filter.
 *
 * Also pins PcmCounters::readAmplification() to its documented
 * definition (media bytes read per app byte READ) — the doc/code
 * mismatch fix must not regress silently — and checks, on every engine,
 * that a store's attribution total and its pmemCounters() span the same
 * devices, and that its hottest lines name their device's node.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/algorithms.hpp"
#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/generators.hpp"
#include "pmem/pmem_device.hpp"
#include "pmem/xpline.hpp"
#include "telemetry/attribution.hpp"
#include "util/rng.hpp"

namespace xpg {
namespace {

using telemetry::AccessCategory;
using telemetry::AccessScope;
using telemetry::AttributionSnapshot;
using telemetry::LineHeatTable;

/** All eight PcmCounters fields, not just the byte counters. */
void
expectCountersEqual(const PcmCounters &a, const PcmCounters &b)
{
    EXPECT_EQ(a.appBytesRead, b.appBytesRead);
    EXPECT_EQ(a.appBytesWritten, b.appBytesWritten);
    EXPECT_EQ(a.mediaBytesRead, b.mediaBytesRead);
    EXPECT_EQ(a.mediaBytesWritten, b.mediaBytesWritten);
    EXPECT_EQ(a.mediaReadOps, b.mediaReadOps);
    EXPECT_EQ(a.mediaWriteOps, b.mediaWriteOps);
    EXPECT_EQ(a.bufferHits, b.bufferHits);
    EXPECT_EQ(a.remoteAccesses, b.remoteAccesses);
}

// --- AccessScope: the thread-local RAII tag stack ----------------------

TEST(AttributionScope, DefaultsToOther)
{
    EXPECT_EQ(AccessScope::current(), AccessCategory::Other);
}

TEST(AttributionScope, NestingOverridesAndRestores)
{
    EXPECT_EQ(AccessScope::current(), AccessCategory::Other);
    {
        AccessScope outer(AccessCategory::AdjacencyArchive);
        EXPECT_EQ(AccessScope::current(),
                  AccessCategory::AdjacencyArchive);
        {
            AccessScope inner(AccessCategory::VertexMeta);
            EXPECT_EQ(AccessScope::current(), AccessCategory::VertexMeta);
        }
        EXPECT_EQ(AccessScope::current(),
                  AccessCategory::AdjacencyArchive);
    }
    EXPECT_EQ(AccessScope::current(), AccessCategory::Other);
}

TEST(AttributionScope, ExceptionUnwindRestoresPreviousCategory)
{
    AccessScope outer(AccessCategory::EdgeLogAppend);
    try {
        AccessScope inner(AccessCategory::RecoveryReplay);
        EXPECT_EQ(AccessScope::current(), AccessCategory::RecoveryReplay);
        throw std::runtime_error("unwind through the scope");
    } catch (const std::runtime_error &) {
        // The inner scope's destructor ran during unwind.
        EXPECT_EQ(AccessScope::current(), AccessCategory::EdgeLogAppend);
    }
}

TEST(AttributionScope, ThreadsCarryIndependentTags)
{
    // Each thread pins its own category and re-checks it across a yield
    // barrier; under TSAN this also proves the tag storage is race-free.
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> threads;
    std::atomic<unsigned> ready{0};
    std::atomic<bool> mismatch{false};
    AccessScope main_scope(AccessCategory::Superblock);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &ready, &mismatch] {
            // A fresh thread starts untagged, whatever the spawner held.
            if (AccessScope::current() != AccessCategory::Other)
                mismatch.store(true);
            const auto mine = static_cast<AccessCategory>(
                t % telemetry::kAccessCategoryCount);
            AccessScope scope(mine);
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            if (AccessScope::current() != mine)
                mismatch.store(true);
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_FALSE(mismatch.load());
    EXPECT_EQ(AccessScope::current(), AccessCategory::Superblock);
}

// --- Exact-sum invariant on a real device ------------------------------

TEST(AttributionDevice, CategoryRowsSumToDeviceCountersExactly)
{
    // Mixed workload spanning every charge path: buffered small stores,
    // scatter stores that RMW and evict, streaming line-base stores,
    // loads, explicit persist, and a background quiesce drain.
    PmemDevice dev("t", 32 << 20, 0, 2);
    Rng rng(7);
    {
        XPG_ATTR_SCOPE(s, EdgeLogAppend);
        for (unsigned i = 0; i < 4000; ++i) {
            uint32_t v = i;
            dev.write(4 + kXPLineSize * rng.nextBounded(40000), &v, 4);
        }
    }
    {
        XPG_ATTR_SCOPE(s, AdjacencyArchive);
        std::vector<uint8_t> chunk(kXPLineSize, 0x5A);
        for (uint64_t off = 16 << 20; off < (17 << 20);
             off += kXPLineSize)
            dev.write(off, chunk.data(), chunk.size());
    }
    {
        XPG_ATTR_SCOPE(s, VertexMeta);
        uint64_t v = 42;
        dev.write(8 << 20, &v, 8);
        dev.persist(8 << 20, 8);
    }
    {
        XPG_ATTR_SCOPE(s, QueryRead);
        uint64_t back = 0;
        for (unsigned i = 0; i < 2000; ++i)
            dev.read(kXPLineSize * rng.nextBounded(40000), &back, 8);
    }
    uint32_t untagged = 1; // lands in Other
    dev.write(24 << 20, &untagged, 4);
    dev.quiesce(); // drains outside any scope; blame goes to the owners

    const AttributionSnapshot snap = dev.attribution();
    expectCountersEqual(snap.total(), dev.counters());
    // The workload above drove every category it tagged.
    EXPECT_GT(snap[AccessCategory::EdgeLogAppend].pcm.appBytesWritten, 0u);
    EXPECT_GT(snap[AccessCategory::AdjacencyArchive].pcm.appBytesWritten,
              0u);
    EXPECT_GT(snap[AccessCategory::QueryRead].pcm.appBytesRead, 0u);
    EXPECT_EQ(snap[AccessCategory::Other].pcm.appBytesWritten, 4u);
}

TEST(AttributionDevice, SubLineScatterBlamesRmwOnTheStoringCategory)
{
    PmemDevice dev("t", 64 << 20, 0, 1);
    Rng rng(3);
    const unsigned n = 20000;
    {
        XPG_ATTR_SCOPE(s, EdgeLogAppend);
        for (unsigned i = 0; i < n; ++i) {
            const uint64_t off =
                4 + kXPLineSize *
                        rng.nextBounded((64 << 20) / kXPLineSize - 1);
            uint32_t v = i;
            dev.write(off, &v, 4);
        }
    }
    const AttributionSnapshot snap = dev.attribution();
    const auto &row = snap[AccessCategory::EdgeLogAppend];
    // Every store began off the line base...
    EXPECT_EQ(row.subLineStores, n);
    // ...and nearly all of them missed the buffer into a full-line RMW,
    // whose read bytes are charged to the storing category.
    EXPECT_GT(row.rmwReads, n / 2);
    EXPECT_EQ(row.pcm.mediaBytesRead, row.rmwReads * kXPLineSize);
    EXPECT_EQ(row.pcm.appBytesRead, 0u); // no loads were issued
    // Nothing leaked into the fallback row.
    EXPECT_TRUE(snap[AccessCategory::Other].empty());
}

TEST(AttributionDevice, WriteBackBlamesTheOwnerNotTheFlusher)
{
    PmemDevice dev("t", 1 << 20, 0, 1);
    {
        XPG_ATTR_SCOPE(s, VertexMeta);
        uint64_t v = 7;
        dev.write(0, &v, 8);
    }
    // Both the untagged quiesce drain and a persist issued under a
    // *different* scope write back VertexMeta's dirty line on its
    // behalf.
    {
        XPG_ATTR_SCOPE(s, Superblock);
        dev.persist(0, 8);
    }
    dev.quiesce();
    const AttributionSnapshot snap = dev.attribution();
    EXPECT_EQ(snap[AccessCategory::VertexMeta].pcm.mediaBytesWritten,
              kXPLineSize);
    EXPECT_EQ(snap[AccessCategory::Superblock].pcm.mediaBytesWritten, 0u);
    EXPECT_TRUE(snap[AccessCategory::Other].empty());
}

TEST(AttributionDevice, ConcurrentTaggedWritersStaySeparated)
{
    // Four threads, four categories, disjoint regions: the per-category
    // app-byte rows must reproduce each thread's contribution exactly
    // (and TSAN must see no races on the table or the scope storage).
    PmemDevice dev("t", 32 << 20, 0, 1);
    constexpr unsigned kThreads = 4;
    constexpr unsigned kWritesPerThread = 2000;
    const AccessCategory cats[kThreads] = {
        AccessCategory::EdgeLogAppend, AccessCategory::AdjacencyArchive,
        AccessCategory::VertexMeta, AccessCategory::QueryRead};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &dev, &cats] {
            AccessScope scope(cats[t]);
            Rng rng(100 + t);
            const uint64_t base = uint64_t{t} * (8 << 20);
            for (unsigned i = 0; i < kWritesPerThread; ++i) {
                uint32_t v = i;
                dev.write(base + 4 + kXPLineSize * rng.nextBounded(
                                        (8 << 20) / kXPLineSize - 1),
                          &v, 4);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    dev.quiesce();
    const AttributionSnapshot snap = dev.attribution();
    expectCountersEqual(snap.total(), dev.counters());
    for (const AccessCategory c : cats)
        EXPECT_EQ(snap[c].pcm.appBytesWritten, uint64_t{kWritesPerThread} * 4);
    EXPECT_TRUE(snap[AccessCategory::Other].empty());
}

// --- LineHeatTable -----------------------------------------------------

TEST(AttributionHeat, TopNOrderIsDeterministic)
{
    LineHeatTable heat;
    // Touch counts descend with the line index; lines 40/41 tie.
    for (unsigned line = 0; line < 8; ++line)
        for (unsigned i = 0; i < 100 - line * 10; ++i)
            heat.touch(line, AccessCategory::QueryRead, i % 2 == 0);
    for (unsigned i = 0; i < 5; ++i) {
        heat.touch(40, AccessCategory::VertexMeta, true);
        heat.touch(41, AccessCategory::VertexMeta, true);
    }
    const auto top = heat.top(4);
    ASSERT_EQ(top.size(), 4u);
    EXPECT_EQ(top[0].line, 0u);
    EXPECT_EQ(top[0].reads + top[0].writes, 100u);
    EXPECT_EQ(top[1].line, 1u);
    EXPECT_EQ(top[2].line, 2u);
    EXPECT_EQ(top[3].line, 3u);
    // Same input, same answer (the sort has no unstable tie).
    const auto again = heat.top(4);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(top[i].line, again[i].line);
    // The tied pair breaks toward the lower line index.
    const auto wide = heat.top(16);
    ASSERT_EQ(wide.size(), 10u);
    EXPECT_EQ(wide[8].line, 40u);
    EXPECT_EQ(wide[9].line, 41u);
}

TEST(AttributionHeat, OwnerIsTheDominantCategory)
{
    LineHeatTable heat;
    for (unsigned i = 0; i < 9; ++i)
        heat.touch(5, AccessCategory::AdjacencyArchive, true);
    for (unsigned i = 0; i < 3; ++i)
        heat.touch(5, AccessCategory::QueryRead, false);
    const auto top = heat.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].line, 5u);
    EXPECT_EQ(top[0].writes, 9u);
    EXPECT_EQ(top[0].reads, 3u);
    EXPECT_EQ(top[0].owner, AccessCategory::AdjacencyArchive);
}

TEST(AttributionHeat, CapacityBoundCountsOverflowInsteadOfGrowing)
{
    LineHeatTable heat(/*capacity=*/64);
    for (uint64_t line = 0; line < 10000; ++line)
        heat.touch(line, AccessCategory::Other, true);
    EXPECT_LE(heat.trackedLines(), 64u + LineHeatTable{}.trackedLines());
    EXPECT_GT(heat.untrackedTouches(), 0u);
    EXPECT_EQ(heat.trackedLines() + heat.untrackedTouches(), 10000u);
    // Known lines keep counting after the table is full.
    heat.touch(0, AccessCategory::Other, true);
    const auto top = heat.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].line, 0u);
    EXPECT_EQ(top[0].writes, 2u);
    heat.reset();
    EXPECT_EQ(heat.trackedLines(), 0u);
    EXPECT_EQ(heat.untrackedTouches(), 0u);
    EXPECT_TRUE(heat.top(4).empty());
}

/**
 * The heat table's admission rule replayed without its fast path: per
 * shard (line % 16), the first max(1, capacity / 16) distinct lines are
 * admitted in touch order; a touch of any other line is untracked.
 */
class HeatReference
{
  public:
    explicit HeatReference(unsigned capacity)
        : perShard_(std::max(1u, capacity / 16))
    {
    }

    void
    touch(uint64_t line, AccessCategory cat, bool is_write)
    {
        auto it = lines_.find(line);
        if (it == lines_.end()) {
            if (used_[line % 16] == perShard_) {
                ++untracked_;
                return;
            }
            ++used_[line % 16];
            it = lines_.emplace(line, Counts{}).first;
        }
        ++(is_write ? it->second.writes : it->second.reads);
        ++it->second.byCat[static_cast<unsigned>(cat)];
    }

    /** Every admitted line, hottest first, ties toward the lower line;
     *  the owner is the most-touched category, ties toward the lower. */
    std::vector<LineHeatTable::HotLine>
    top() const
    {
        std::vector<LineHeatTable::HotLine> all;
        for (const auto &[line, counts] : lines_) {
            LineHeatTable::HotLine h;
            h.line = line;
            h.reads = counts.reads;
            h.writes = counts.writes;
            const auto best = std::max_element(counts.byCat.begin(),
                                               counts.byCat.end());
            h.owner = static_cast<AccessCategory>(best -
                                                  counts.byCat.begin());
            all.push_back(h);
        }
        std::stable_sort(all.begin(), all.end(),
                         [](const auto &a, const auto &b) {
                             return a.reads + a.writes > b.reads + b.writes;
                         });
        return all;
    }

    uint64_t trackedLines() const { return lines_.size(); }
    uint64_t untrackedTouches() const { return untracked_; }

  private:
    struct Counts
    {
        uint64_t reads = 0;
        uint64_t writes = 0;
        std::array<uint64_t, telemetry::kAccessCategoryCount> byCat = {};
    };

    unsigned perShard_;
    std::map<uint64_t, Counts> lines_;
    std::array<unsigned, 16> used_ = {};
    uint64_t untracked_ = 0;
};

void
expectHeatMatches(const LineHeatTable &heat, const HeatReference &ref)
{
    EXPECT_EQ(heat.trackedLines(), ref.trackedLines());
    EXPECT_EQ(heat.untrackedTouches(), ref.untrackedTouches());
    const auto got = heat.top(~0u);
    const auto want = ref.top();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("rank " + std::to_string(i));
        EXPECT_EQ(got[i].line, want[i].line);
        EXPECT_EQ(got[i].reads, want[i].reads);
        EXPECT_EQ(got[i].writes, want[i].writes);
        EXPECT_EQ(got[i].owner, want[i].owner);
    }
}

TEST(AttributionHeat, FastPathAdmitsAndCountsLikeTheLockedProbe)
{
    for (const unsigned capacity : {64u, LineHeatTable::kDefaultCapacity}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        // Seeded touches over 10x the capacity in lines: a hot set that
        // keeps touching lines admitted early (they must keep counting
        // once their shard is full) and a long tail that mostly finds
        // its shard full (untracked, some through a filter collision).
        LineHeatTable heat(capacity);
        HeatReference ref(capacity);
        Rng rng(capacity);
        const uint64_t lines = 10 * uint64_t{capacity};
        for (uint64_t i = 0; i < 40 * uint64_t{capacity}; ++i) {
            const uint64_t line = rng.nextBounded(4) == 0
                                      ? rng.nextBounded(capacity / 2) * 3
                                      : rng.nextBounded(lines);
            const auto cat = static_cast<AccessCategory>(
                rng.nextBounded(telemetry::kAccessCategoryCount));
            const bool is_write = rng.nextBounded(2) == 0;
            heat.touch(line, cat, is_write);
            ref.touch(line, cat, is_write);
        }
        expectHeatMatches(heat, ref);
        EXPECT_EQ(heat.trackedLines(), capacity);
        EXPECT_GT(heat.untrackedTouches(), 0u);

        // After a reset the table admits afresh, filter included.
        heat.reset();
        HeatReference again(capacity);
        for (uint64_t line = lines; line-- > 0;) {
            heat.touch(line, AccessCategory::QueryRead, false);
            again.touch(line, AccessCategory::QueryRead, false);
        }
        expectHeatMatches(heat, again);
    }

    // Shards that fill while other threads already take the fast path:
    // a thread that sees a shard full must also see the filter bit of
    // the line that filled it, or it counts that line's touches as
    // untracked. With capacity 16 each shard tracks one line; every
    // round the threads race through the shards, touching each shard's
    // line and then, on the fast path, lines the full shard never
    // admitted. Threads doing different amounts of fast-path work drift
    // across each other's admissions.
    constexpr unsigned kThreads = 4;
    constexpr unsigned kRounds = 3000;
    LineHeatTable heat(16);
    unsigned bad_rounds = 0;
    const auto check_and_reset = [&heat, &bad_rounds]() noexcept {
        // Runs while every thread waits at the barrier.
        const auto top = heat.top(~0u);
        bool ok = top.size() == 16 &&
                  heat.untrackedTouches() == 16 * kThreads * (kThreads + 1) / 2;
        for (const auto &h : top)
            ok = ok && h.reads == kThreads;
        bad_rounds += ok ? 0 : 1;
        heat.reset();
    };
    std::barrier sync(kThreads, check_and_reset);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&heat, &sync, t] {
            for (unsigned round = 0; round < kRounds; ++round) {
                for (unsigned s = 0; s < 16; ++s) {
                    heat.touch(16 * 100 + s, AccessCategory::QueryRead,
                               false);
                    for (unsigned j = 0; j <= t; ++j)
                        heat.touch(16 * (200 + j) + s, AccessCategory::Other,
                                   false);
                }
                sync.arrive_and_wait();
            }
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(bad_rounds, 0u) << "of " << kRounds << " rounds";
}

TEST(AttributionHeat, ConcurrentTouchesCountEveryTouch)
{
    // Four threads touch overlapping seeded line sets while the shards
    // fill: whichever thread admits a line, every touch is counted once,
    // on its line or as untracked.
    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 50000;
    LineHeatTable heat(256);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&heat, t] {
            Rng rng(7 + t);
            for (unsigned i = 0; i < kPerThread; ++i)
                heat.touch(rng.nextBounded(rng.nextBounded(2) ? 200 : 5000),
                           AccessCategory::AdjacencyArchive,
                           rng.nextBounded(2) == 0);
        });
    for (std::thread &th : threads)
        th.join();
    uint64_t tracked = 0;
    for (const auto &h : heat.top(~0u))
        tracked += h.reads + h.writes;
    EXPECT_EQ(heat.trackedLines(), 256u);
    EXPECT_EQ(tracked + heat.untrackedTouches(),
              uint64_t{kThreads} * kPerThread);
}

// --- Store level: one device list behind counters and attribution ------

/** Ingest, archive and run one BFS on @p store, then require its
 *  attribution total to equal its device counters. */
void
expectStoreSumsMatch(GraphStore &store, const std::vector<Edge> &edges)
{
    store.session(0)->addEdges(edges.data(), edges.size());
    store.archiveAll();
    runBfs(store, 0, 2);
    const PcmCounters pcm = store.pmemCounters();
    // Archiving reads every logged edge back, from whichever device
    // holds the log.
    EXPECT_GE(pcm.appBytesRead, edges.size() * sizeof(Edge));
    expectCountersEqual(store.pmemAttribution().total(), pcm);
}

TEST(AttributionStore, TotalsMatchPmemCountersOnEveryEngine)
{
    const vid_t nv = 1024;
    const auto edges = generateUniform(nv, 20000, 5);
    for (const bool dram : {false, true}) {
        SCOPED_TRACE(dram ? "XPGraph-D" : "XPGraph");
        XPGraphConfig c = dram ? XPGraphConfig::dramOnly(nv, 0)
                               : XPGraphConfig::persistent(nv, 0);
        c.elogCapacityEdges = 1 << 13;
        c.bufferingThresholdEdges = 1 << 10;
        c.archiveThreads = 2;
        c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
        XPGraph store(c);
        expectStoreSumsMatch(store, edges);
    }
    // GraphOne-N logs into a DRAM device of its own, outside the
    // adjacency devices.
    const std::pair<GraphOneVariant, const char *> variants[] = {
        {GraphOneVariant::Pmem, "GraphOne-P"},
        {GraphOneVariant::Dram, "GraphOne-D"},
        {GraphOneVariant::Nova, "GraphOne-N"}};
    for (const auto &[variant, name] : variants) {
        SCOPED_TRACE(name);
        GraphOneConfig c;
        c.maxVertices = nv;
        c.variant = variant;
        c.elogCapacityEdges = 1 << 13;
        c.archiveThresholdEdges = 1 << 10;
        c.archiveThreads = 2;
        c.bytesPerNode = graphoneRecommendedBytesPerNode(c, edges.size());
        GraphOne store(c);
        expectStoreSumsMatch(store, edges);
    }
}

TEST(AttributionStore, HotLinesNameTheirNode)
{
    // Line indices are device-local, and both partitions of a two-node
    // store lay out their devices alike, so equal indices are common.
    // The merged list tells them apart by node: no (node, line) pair
    // is listed twice, and between two lists of every tracked line a
    // pair's counts never decrease.
    const vid_t nv = 1024;
    const auto edges = generateUniform(nv, 20000, 5);
    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 10;
    c.archiveThreads = 1;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());
    XPGraph store(c);
    ASSERT_EQ(store.numNodes(), 2u);
    store.session(0)->addEdges(edges.data(), edges.size());
    store.archiveAll();

    using Key = std::pair<int, uint64_t>;
    const auto byKey = [&store] {
        std::map<Key, std::pair<uint64_t, uint64_t>> lines;
        for (const auto &h : store.hotLines(~0u))
            EXPECT_TRUE(lines.emplace(Key{h.node, h.line},
                                      std::pair{h.reads, h.writes})
                            .second)
                << "node " << h.node << " line " << h.line
                << " listed twice";
        return lines;
    };
    const auto before = byKey();
    bool shared_index = false;
    for (const auto &entry : before) {
        EXPECT_TRUE(entry.first.first == 0 || entry.first.first == 1);
        shared_index |= before.count(Key{1 - entry.first.first,
                                         entry.first.second}) > 0;
    }
    EXPECT_TRUE(shared_index);

    runBfs(store, 0, 1);
    const auto after = byKey();
    for (const auto &[key, counts] : before) {
        const auto it = after.find(key);
        ASSERT_NE(it, after.end());
        EXPECT_GE(it->second.first, counts.first);
        EXPECT_GE(it->second.second, counts.second);
    }
}

// --- bare mutators -----------------------------------------------------

TEST(AttributionTable, BareMutatorsCount)
{
    // The table and heat map count on their own, outside any device: a
    // change that silently disabled attribution everywhere fails here.
    telemetry::AttributionTable table;
    table.add(AccessCategory::QueryRead,
              telemetry::AttrField::AppBytesRead, 64);
    LineHeatTable heat;
    heat.touch(1, AccessCategory::QueryRead, false);
    const AttributionSnapshot snap = table.snapshot();
    EXPECT_EQ(snap[AccessCategory::QueryRead].pcm.appBytesRead, 64u);
    EXPECT_EQ(heat.trackedLines(), 1u);
}

// --- PcmCounters::readAmplification() pin ------------------------------

TEST(AttributionPcmCounters, ReadAmplificationDividesByAppBytesRead)
{
    // Pins the documented definition: media bytes read per app byte
    // *read*. A write-heavy workload (appBytesWritten >> appBytesRead)
    // must not leak into the denominator.
    PcmCounters c;
    c.appBytesRead = 1000;
    c.appBytesWritten = 999999; // must be ignored
    c.mediaBytesRead = 4000;
    c.mediaBytesWritten = 8;
    EXPECT_DOUBLE_EQ(c.readAmplification(), 4.0);
    EXPECT_DOUBLE_EQ(c.writeAmplification(), 8.0 / 999999.0);
}

TEST(AttributionPcmCounters, ZeroDenominatorsDoNotDivideByZero)
{
    // RMW reads with no loads at all: the guard denominator is 1, so the
    // number stays finite and still reports the full media-read count.
    PcmCounters c;
    c.mediaBytesRead = 512;
    EXPECT_DOUBLE_EQ(c.readAmplification(), 512.0);
    EXPECT_DOUBLE_EQ(c.writeAmplification(), 0.0);
}

} // namespace
} // namespace xpg
