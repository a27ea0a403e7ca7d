/**
 * @file
 * Property-based tests (parameterized sweeps): randomized operation
 * streams checked against a reference model, cross-system equivalence
 * between XPGraph and GraphOne, device round-trip properties, edge-log
 * sequences, and crash-point recovery sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <vector>

#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/circular_edge_log.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "pmem/pmem_device.hpp"
#include "temp_dir.hpp"
#include "util/rng.hpp"

namespace xpg {
namespace {

/** Reference model: multiset of live edges per direction. */
class ReferenceGraph
{
  public:
    void
    addEdge(vid_t src, vid_t dst)
    {
        ++out_[src][dst];
        ++in_[dst][src];
    }

    void
    delEdge(vid_t src, vid_t dst)
    {
        auto cancel = [](auto &map, vid_t a, vid_t b) {
            auto it = map[a].find(b);
            if (it != map[a].end() && it->second > 0)
                --it->second;
        };
        cancel(out_, src, dst);
        cancel(in_, dst, src);
    }

    std::vector<vid_t>
    neighbors(bool out, vid_t v) const
    {
        std::vector<vid_t> result;
        const auto &map = out ? out_ : in_;
        auto it = map.find(v);
        if (it == map.end())
            return result;
        for (const auto &[n, count] : it->second)
            for (int64_t i = 0; i < count; ++i)
                result.push_back(n);
        return result;
    }

  private:
    std::map<vid_t, std::map<vid_t, int64_t>> out_;
    std::map<vid_t, std::map<vid_t, int64_t>> in_;
};

/** Random insert/delete stream: deletes target previously inserted
 *  edges with probability ~1/6. */
std::vector<std::pair<bool, Edge>>
randomOps(vid_t nv, unsigned n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<bool, Edge>> ops;
    std::vector<Edge> inserted;
    for (unsigned i = 0; i < n; ++i) {
        if (!inserted.empty() && rng.nextBounded(6) == 0) {
            const Edge e = inserted[rng.nextBounded(inserted.size())];
            ops.emplace_back(false, e);
        } else {
            const Edge e{static_cast<vid_t>(rng.nextBounded(nv)),
                         static_cast<vid_t>(rng.nextBounded(nv))};
            ops.emplace_back(true, e);
            inserted.push_back(e);
        }
    }
    return ops;
}

class RandomOpsSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>>
{
};

TEST_P(RandomOpsSweep, XPGraphMatchesReferenceModel)
{
    const auto [seed, threads] = GetParam();
    const vid_t nv = 128;
    const auto ops = randomOps(nv, 4000, seed);

    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.archiveThreads = threads;
    c.elogCapacityEdges = 1 << 11;
    c.bufferingThresholdEdges = 1 << 8;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, ops.size());
    XPGraph graph(c);
    ReferenceGraph ref;

    {
        auto s = graph.session(0);
        for (const auto &[is_insert, e] : ops) {
            if (is_insert) {
                s->addEdge(e.src, e.dst);
                ref.addEdge(e.src, e.dst);
            } else {
                s->delEdge(e.src, e.dst);
                ref.delEdge(e.src, e.dst);
            }
        }
    }
    graph.bufferAllEdges();

    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < nv; ++v) {
        for (bool out : {true, false}) {
            nebrs.clear();
            if (out)
                graph.getNebrsOut(v, nebrs);
            else
                graph.getNebrsIn(v, nebrs);
            std::sort(nebrs.begin(), nebrs.end());
            auto expect = ref.neighbors(out, v);
            std::sort(expect.begin(), expect.end());
            ASSERT_EQ(nebrs, expect)
                << (out ? "out" : "in") << "-neighbors of " << v
                << " (seed " << seed << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomOpsSweep,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull),
                       ::testing::Values(1u, 4u, 16u)));

class CrossSystemSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CrossSystemSweep, XPGraphAndGraphOneAgree)
{
    const uint64_t seed = GetParam();
    const vid_t nv = 200;
    const auto ops = randomOps(nv, 5000, seed);

    XPGraphConfig xc = XPGraphConfig::persistent(nv, 0);
    xc.archiveThreads = 4;
    xc.elogCapacityEdges = 1 << 11;
    xc.bufferingThresholdEdges = 1 << 8;
    xc.pmemBytesPerNode = recommendedBytesPerNode(xc, ops.size());
    XPGraph xpg(xc);

    GraphOneConfig gc;
    gc.maxVertices = nv;
    gc.archiveThreads = 4;
    gc.elogCapacityEdges = 1 << 11;
    gc.archiveThresholdEdges = 1 << 8;
    gc.bytesPerNode = graphoneRecommendedBytesPerNode(gc, ops.size());
    GraphOne g1(gc);

    {
        auto sx = xpg.session(0);
        auto sg = g1.session(0);
        for (const auto &[is_insert, e] : ops) {
            if (is_insert) {
                sx->addEdge(e.src, e.dst);
                sg->addEdge(e.src, e.dst);
            } else {
                sx->delEdge(e.src, e.dst);
                sg->delEdge(e.src, e.dst);
            }
        }
    }
    xpg.bufferAllEdges();
    g1.archiveAll();

    std::vector<vid_t> a, b;
    for (vid_t v = 0; v < nv; ++v) {
        a.clear();
        b.clear();
        xpg.getNebrsOut(v, a);
        g1.getNebrsOut(v, b);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        ASSERT_EQ(a, b) << "out-neighbors of " << v;
        a.clear();
        b.clear();
        xpg.getNebrsIn(v, a);
        g1.getNebrsIn(v, b);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        ASSERT_EQ(a, b) << "in-neighbors of " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSystemSweep,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull));

/** Device round trip over sizes and (mis)alignments. */
class DeviceRoundTrip
    : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>>
{
};

TEST_P(DeviceRoundTrip, PreservesBytes)
{
    const auto [size, align_off] = GetParam();
    PmemDevice dev("t", 4 << 20, 0, 1);
    Rng rng(size * 31 + align_off);
    std::vector<uint8_t> data(size);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    dev.write(align_off, data.data(), size);
    // Overlapping second write.
    std::vector<uint8_t> patch(size / 2 + 1, 0x5A);
    dev.write(align_off + size / 4, patch.data(), patch.size());
    std::vector<uint8_t> expect = data;
    std::copy(patch.begin(), patch.end(), expect.begin() + size / 4);

    std::vector<uint8_t> back(size);
    dev.read(align_off, back.data(), size);
    EXPECT_EQ(back, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DeviceRoundTrip,
    ::testing::Values(std::pair<uint64_t, uint64_t>{4, 0},
                      std::pair<uint64_t, uint64_t>{4, 3},
                      std::pair<uint64_t, uint64_t>{64, 32},
                      std::pair<uint64_t, uint64_t>{256, 0},
                      std::pair<uint64_t, uint64_t>{256, 255},
                      std::pair<uint64_t, uint64_t>{4096, 1},
                      std::pair<uint64_t, uint64_t>{100000, 777}));

/** Edge-log sequences over capacities: append/mark/read interleavings
 *  keep the pointer invariants and the data intact. */
class EdgeLogSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(EdgeLogSweep, RandomSequenceKeepsInvariants)
{
    const uint64_t capacity = GetParam();
    PmemDevice dev("t", 8 << 20, 0, 1);
    CircularEdgeLog log(dev, 0, capacity, false, /*durable=*/true);
    Rng rng(capacity);
    uint64_t appended = 0;
    std::vector<Edge> shadow; // every edge ever appended, in order

    for (int step = 0; step < 500; ++step) {
        switch (rng.nextBounded(3)) {
          case 0: {
            const uint64_t n = rng.nextBounded(16) + 1;
            std::vector<Edge> batch;
            for (uint64_t i = 0; i < n; ++i)
                batch.push_back(
                    Edge{static_cast<vid_t>(appended + i), 1});
            const uint64_t took = log.append(batch.data(), n);
            EXPECT_LE(took, n);
            for (uint64_t i = 0; i < took; ++i)
                shadow.push_back(batch[i]);
            appended += took;
            break;
          }
          case 1:
            log.markBuffered(log.bufferedUpTo() +
                             rng.nextBounded(log.nonBuffered() + 1));
            break;
          case 2:
            log.markFlushed(log.flushedUpTo() +
                            rng.nextBounded(log.unflushed() + 1));
            break;
        }
        // Invariants (Fig.7).
        ASSERT_LE(log.flushedUpTo(), log.bufferedUpTo());
        ASSERT_LE(log.bufferedUpTo(), log.head());
        ASSERT_LE(log.head() - log.flushedUpTo(), capacity);
        ASSERT_EQ(log.head(), appended);
    }

    // Un-reclaimed suffix must read back exactly.
    std::vector<Edge> back;
    log.readRange(log.flushedUpTo(), log.head(), back);
    for (uint64_t i = 0; i < back.size(); ++i)
        ASSERT_EQ(back[i], shadow[log.flushedUpTo() + i]);
}

INSTANTIATE_TEST_SUITE_P(Capacities, EdgeLogSweep,
                         ::testing::Values(16ull, 64ull, 1024ull,
                                           100ull /*non power of two*/));

/** Crash-point sweep: recovery is correct no matter how many batches
 *  made it before the power failure (distinct edges; see
 *  RecoverDropsDuplicateOfFlushedEdge for the duplicate caveat). */
class CrashPointSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CrashPointSweep, RecoversWhatWasIngested)
{
    const unsigned batches = GetParam();
    const vid_t nv = 100;
    const std::string dir =
        makeTempDir("xpg_crash_sweep_" + std::to_string(batches));

    // Distinct edges, deterministic.
    std::vector<Edge> edges;
    for (vid_t s = 0; s < nv; ++s)
        for (vid_t d = 0; d < 20; ++d)
            edges.push_back(Edge{s, static_cast<vid_t>((s + d + 1) % nv)});

    XPGraphConfig c = XPGraphConfig::persistent(nv, 0);
    c.backingDir = dir;
    c.archiveThreads = 4;
    c.elogCapacityEdges = 1 << 10;
    c.bufferingThresholdEdges = 1 << 7;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, edges.size());

    const uint64_t per_batch = edges.size() / 8;
    const uint64_t ingested =
        std::min<uint64_t>(edges.size(), batches * per_batch);
    {
        XPGraph graph(c);
        graph.session(0)->addEdges(edges.data(), ingested);
        if (batches % 2 == 0)
            graph.bufferAllEdges(); // crash with buffered-but-unflushed
        graph.syncBackings();
    }

    auto recovered = XPGraph::recover(c);
    recovered->bufferAllEdges();
    const Csr out_csr(
        nv, std::span<const Edge>(edges.data(), ingested), false);
    std::vector<vid_t> nebrs;
    for (vid_t v = 0; v < nv; ++v) {
        nebrs.clear();
        recovered->getNebrsOut(v, nebrs);
        std::sort(nebrs.begin(), nebrs.end());
        const auto expect = out_csr.neighbors(v);
        ASSERT_EQ(nebrs.size(), expect.size())
            << "degree of " << v << " after crash at batch " << batches;
        ASSERT_TRUE(
            std::equal(nebrs.begin(), nebrs.end(), expect.begin()));
    }
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Batches, CrashPointSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

} // namespace
} // namespace xpg
