/**
 * @file
 * Analytics algorithms: results over XPGraph and GraphOne must equal the
 * CSR reference; binding strategies must not change results, only cost;
 * small hand-checked graphs pin down exact values.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "analytics/algorithms.hpp"
#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/csr_view.hpp"
#include "graph/generators.hpp"

namespace xpg {
namespace {

/** Small deterministic workload shared by the equivalence tests. */
struct Workload
{
    vid_t nv;
    std::vector<Edge> edges;
};

Workload
makeWorkload()
{
    Workload w;
    w.nv = 300;
    w.edges = generateRmat(9, 9000, RmatParams{}, 97);
    foldVertices(w.edges, w.nv);
    return w;
}

/** Uniform degrees, and too much adjacency for the XPBuffer to hold. */
Workload
makeUniformWorkload()
{
    Workload w;
    w.nv = 4000;
    w.edges = generateUniform(w.nv, 120000, 111);
    return w;
}

std::unique_ptr<XPGraph>
makeXpgraph(const Workload &w)
{
    XPGraphConfig c = XPGraphConfig::persistent(w.nv, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9;
    c.archiveThreads = 4;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, w.edges.size());
    auto g = std::make_unique<XPGraph>(c);
    g->session(0)->addEdges(w.edges.data(), w.edges.size());
    g->bufferAllEdges();
    return g;
}

std::unique_ptr<GraphOne>
makeGraphone(const Workload &w)
{
    GraphOneConfig c;
    c.maxVertices = w.nv;
    c.archiveThreads = 4;
    c.bytesPerNode = graphoneRecommendedBytesPerNode(c, w.edges.size());
    auto g = std::make_unique<GraphOne>(c);
    g->session(0)->addEdges(w.edges.data(), w.edges.size());
    g->archiveAll();
    return g;
}

TEST(Analytics, OneHopCountsMatchReference)
{
    const Workload w = makeWorkload();
    CsrView ref(w.nv, w.edges);
    auto xpg = makeXpgraph(w);
    auto g1 = makeGraphone(w);

    std::vector<vid_t> queries;
    for (vid_t v = 0; v < w.nv; v += 3)
        queries.push_back(v);

    const auto r_ref = runOneHop(ref, queries, 2);
    const auto r_xpg = runOneHop(*xpg, queries, 4);
    const auto r_g1 = runOneHop(*g1, queries, 4);
    EXPECT_EQ(r_xpg.checksum, r_ref.checksum);
    EXPECT_EQ(r_g1.checksum, r_ref.checksum);
    EXPECT_GT(r_xpg.simNs, 0u);
}

TEST(Analytics, OneHopReadsNeighborsFromPmem)
{
    // A one-hop query fetches the neighbors (paper Fig.14), so once
    // the adjacency sits in PMEM it must read media, and every
    // neighbor it counts is a record its round scanned.
    const Workload w = makeUniformWorkload();
    auto xpg = makeXpgraph(w);
    xpg->flushAllVbufs();
    std::vector<vid_t> queries;
    for (vid_t v = 0; v < w.nv; ++v)
        queries.push_back(v);

    const PcmCounters before = xpg->pmemCounters();
    const auto r = runOneHop(*xpg, queries, 4);
    EXPECT_GT((xpg->pmemCounters() - before).mediaBytesRead, 0u);
    ASSERT_EQ(r.rounds.size(), 1u);
    EXPECT_EQ(r.rounds[0].edgesScanned, r.checksum);
    EXPECT_GT(r.op.pcm.mediaBytesRead, 0u);
}

TEST(Analytics, BfsVisitsSameVerticesEverywhere)
{
    const Workload w = makeWorkload();
    CsrView ref(w.nv, w.edges);
    auto xpg = makeXpgraph(w);
    auto g1 = makeGraphone(w);

    const vid_t root = 0;
    const auto r_ref = runBfs(ref, root, 2);
    const auto r_xpg = runBfs(*xpg, root, 4);
    const auto r_g1 = runBfs(*g1, root, 4);
    EXPECT_EQ(r_xpg.touched, r_ref.touched);
    EXPECT_EQ(r_g1.touched, r_ref.touched);
    EXPECT_EQ(r_xpg.iterations, r_ref.iterations);
}

TEST(Analytics, BfsOnPathGraphIsExact)
{
    // 0 -> 1 -> 2 -> 3 ; 4 isolated.
    std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
    CsrView view(5, edges);
    const auto r = runBfs(view, 0, 2);
    EXPECT_EQ(r.touched, 4u);
    EXPECT_EQ(r.iterations, 4u); // three expanding levels + empty check
}

TEST(Analytics, PageRankMatchesReferenceChecksum)
{
    const Workload w = makeWorkload();
    CsrView ref(w.nv, w.edges);
    auto xpg = makeXpgraph(w);
    auto g1 = makeGraphone(w);

    const auto r_ref = runPageRank(ref, 5, 2);
    const auto r_xpg = runPageRank(*xpg, 5, 4);
    const auto r_g1 = runPageRank(*g1, 5, 4);
    // Rank sums must agree to the checksum quantization; summation order
    // inside one vertex differs (sorted in ref vs arrival order in the
    // stores), so allow a tiny FP slack.
    EXPECT_NEAR(static_cast<double>(r_xpg.checksum),
                static_cast<double>(r_ref.checksum), 10.0);
    EXPECT_NEAR(static_cast<double>(r_g1.checksum),
                static_cast<double>(r_ref.checksum), 10.0);
    EXPECT_EQ(r_xpg.iterations, 5u);
    EXPECT_EQ(r_g1.iterations, 5u);
}

TEST(Analytics, PageRankSumsToOne)
{
    const Workload w = makeWorkload();
    CsrView ref(w.nv, w.edges);
    const auto r = runPageRank(ref, 10, 2);
    // Sum of ranks stays ~1 (dangling mass is redistributed as 0.15
    // floor; allow generous slack for dangling-vertex leakage).
    EXPECT_GT(r.checksum, 100000u); // > 0.1 after 1e6 quantization
    EXPECT_LE(r.checksum, 1100000u);
}

TEST(Analytics, ConnectedComponentsCountsExactly)
{
    // Two triangles and an isolated vertex: 3 components.
    std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0},
                            {3, 4}, {4, 5}, {5, 3}};
    CsrView view(7, edges);
    const auto r = runConnectedComponents(view, 2);
    EXPECT_EQ(r.checksum, 3u);
}

TEST(Analytics, ConnectedComponentsMatchesReference)
{
    const Workload w = makeWorkload();
    CsrView ref(w.nv, w.edges);
    auto xpg = makeXpgraph(w);
    auto g1 = makeGraphone(w);

    const auto r_ref = runConnectedComponents(ref, 2);
    const auto r_xpg = runConnectedComponents(*xpg, 4);
    const auto r_g1 = runConnectedComponents(*g1, 4);
    EXPECT_EQ(r_xpg.checksum, r_ref.checksum);
    EXPECT_EQ(r_g1.checksum, r_ref.checksum);
}

TEST(Analytics, BindingStrategiesAgreeOnResults)
{
    const Workload w = makeWorkload();
    auto xpg = makeXpgraph(w);
    const auto bound = runBfs(*xpg, 0, 4, QueryBinding::PerRound);
    const auto unbound = runBfs(*xpg, 0, 4, QueryBinding::None);
    const auto per_vertex = runBfs(*xpg, 0, 4, QueryBinding::PerVertex);
    EXPECT_EQ(bound.touched, unbound.touched);
    EXPECT_EQ(bound.touched, per_vertex.touched);
}

TEST(Analytics, PerVertexBindingIsExpensive)
{
    // The anti-pattern of S III-D: constant thread migration costs far
    // more than the remote accesses it avoids.
    const Workload w = makeWorkload();
    auto xpg = makeXpgraph(w);
    std::vector<vid_t> queries;
    for (vid_t v = 0; v < w.nv; ++v)
        queries.push_back(v);
    const auto per_round =
        runOneHop(*xpg, queries, 4, QueryBinding::PerRound);
    const auto per_vertex =
        runOneHop(*xpg, queries, 4, QueryBinding::PerVertex);
    EXPECT_GT(per_vertex.simNs, 2 * per_round.simNs);
}

TEST(Analytics, QueryBindingBeatsUnboundOnXPGraph)
{
    // Sub-graph placement + per-round binding avoids remote PMEM reads.
    // Needs enough query volume that remote-read savings dominate the
    // per-round classification and one-off binding costs.
    // Uniform degrees isolate the remote-read effect from the load
    // variance that hub vertices add at this tiny scale.
    const Workload w = makeUniformWorkload();
    auto xpg = makeXpgraph(w);
    xpg->flushAllVbufs(); // force queries to hit PMEM
    std::vector<vid_t> queries;
    for (vid_t v = 0; v < w.nv; ++v)
        queries.push_back(v);
    const auto bound = runOneHop(*xpg, queries, 4, QueryBinding::PerRound);
    const auto unbound = runOneHop(*xpg, queries, 4, QueryBinding::None);
    EXPECT_LT(bound.simNs, unbound.simNs);
}

TEST(Analytics, FewerThreadsThanNodesCoversAllVertices)
{
    // Regression: the bound strided path used to drop every NUMA node
    // with no dedicated worker, so 1 querying thread over a 2-node
    // store silently skipped half the vertex space.
    const Workload w = makeWorkload();
    CsrView ref(w.nv, w.edges);
    auto xpg = makeXpgraph(w);
    ASSERT_GE(xpg->numNodes(), 2u);

    std::vector<vid_t> queries;
    for (vid_t v = 0; v < w.nv; ++v)
        queries.push_back(v);

    const auto r_ref = runOneHop(ref, queries, 2);
    const auto one_thread = runOneHop(*xpg, queries, 1,
                                      QueryBinding::PerRound);
    EXPECT_EQ(one_thread.checksum, r_ref.checksum);
}

TEST(Analytics, SchedulePoliciesCoverTheSameVertices)
{
    const Workload w = makeWorkload();
    auto xpg = makeXpgraph(w);

    for (QueryBinding binding :
         {QueryBinding::None, QueryBinding::PerRound}) {
        for (unsigned threads : {1u, 3u, 8u}) {
            uint64_t sums[2] = {0, 0};
            uint64_t counts[2] = {0, 0};
            const SchedulePolicy policies[2] = {SchedulePolicy::Strided,
                                                SchedulePolicy::Balanced};
            for (int p = 0; p < 2; ++p) {
                QueryDriver driver(*xpg, threads, binding, policies[p]);
                std::vector<std::atomic<uint64_t>> sum(threads);
                std::vector<std::atomic<uint64_t>> cnt(threads);
                for (unsigned t = 0; t < threads; ++t) {
                    sum[t] = 0;
                    cnt[t] = 0;
                }
                driver.forAllVertices([&](vid_t v, unsigned t) {
                    sum[t] += v;
                    cnt[t] += 1;
                });
                for (unsigned t = 0; t < threads; ++t) {
                    sums[p] += sum[t];
                    counts[p] += cnt[t];
                }
            }
            EXPECT_EQ(sums[0], sums[1]);
            EXPECT_EQ(counts[0], counts[1]);
            EXPECT_EQ(counts[0], w.nv);
        }
    }
}

TEST(Analytics, BalancedScheduleIsCheaperOnSkewedGraphs)
{
    // The degree-balanced schedule exists to kill the straggler rounds
    // that strided dealing produces on power-law graphs. Two drivers
    // run the same in-edge sweep and differ only in the schedule; the
    // first sweep builds the balanced plan, so the second is timed. At
    // 8 workers over 300 vertices strided dealing spreads the hubs well
    // enough to win; at the testbed's 96 it straggles.
    const Workload w = makeWorkload();
    auto xpg = makeXpgraph(w);
    auto sweepNs = [&](SchedulePolicy policy) {
        QueryDriver driver(*xpg, 96, QueryBinding::Auto, policy);
        const auto sweep = [&](vid_t v, unsigned) {
            xpg->forEachNebrIn(v, [](vid_t) {});
        };
        driver.forAllVertices(sweep);
        return driver.forAllVertices(sweep);
    };
    const uint64_t strided = sweepNs(SchedulePolicy::Strided);
    const uint64_t balanced = sweepNs(SchedulePolicy::Balanced);
    EXPECT_LT(balanced, strided);
}

} // namespace
} // namespace xpg
