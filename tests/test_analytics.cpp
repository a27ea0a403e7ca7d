/**
 * @file
 * Analytics algorithms: results over XPGraph and GraphOne must equal the
 * CSR reference; binding strategies must not change results, only cost;
 * small hand-checked graphs pin down exact values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "analytics/algorithms.hpp"
#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/csr_view.hpp"
#include "graph/generators.hpp"
#include "pmem/numa_topology.hpp"

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
    const auto bound = runBfs(*xpg, 0, 4, QueryBinding::Auto);
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
        runOneHop(*xpg, queries, 4, QueryBinding::Auto);
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
    const auto bound = runOneHop(*xpg, queries, 4, QueryBinding::Auto);
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
                                      QueryBinding::Auto);
    EXPECT_EQ(one_thread.checksum, r_ref.checksum);
}

TEST(Analytics, SchedulePoliciesCoverTheSameVertices)
{
    // The dealing contract of every round, whatever its binding,
    // schedule, worker count and input: each vertex is visited once. A
    // bound round visits a vertex on a worker bound to its node, a
    // per-vertex round rebinds to it at the visit, and an unbound round
    // leaves its workers unbound. A strided slot keeps its list's input
    // order, a balanced slot takes one contiguous run of its id-sorted
    // list, and a per-vertex worker one ceil(n / workers) run of the
    // input. A slot is a worker's share of one node's list (of the one
    // list when unbound).
    const Workload w = makeUniformWorkload(); // room for 700 vertices
    auto xpg = makeXpgraph(w);
    ASSERT_GE(xpg->numNodes(), 2u);

    std::vector<vid_t> all(w.nv);
    std::iota(all.begin(), all.end(), 0);
    std::vector<vid_t> unsorted;
    for (vid_t i = 0; i < 700; ++i)
        unsorted.push_back((i * 1543 + 17) % w.nv);
    std::vector<vid_t> eleven;
    for (vid_t i = 0; i < 11; ++i)
        eleven.push_back((i * 367 + 5) % w.nv);
    ASSERT_FALSE(std::is_sorted(unsorted.begin(), unsorted.end()));

    struct Visit
    {
        vid_t v;
        int node; ///< the worker's binding during the visit
    };
    for (QueryBinding binding : {QueryBinding::None, QueryBinding::Auto,
                                 QueryBinding::PerVertex}) {
        for (SchedulePolicy schedule :
             {SchedulePolicy::Strided, SchedulePolicy::Auto}) {
            for (unsigned threads : {1u, 3u, 8u}) {
                QueryDriver driver(*xpg, threads, binding, schedule);
                for (const std::vector<vid_t> *input :
                     {&all, &unsorted, &eleven}) {
                    SCOPED_TRACE(testing::Message()
                                 << "binding " << static_cast<int>(binding)
                                 << ", schedule "
                                 << static_cast<int>(schedule) << ", "
                                 << threads << " threads, "
                                 << input->size() << " vertices");
                    std::vector<std::vector<Visit>> seen(threads);
                    const auto record = [&](vid_t v, unsigned t) {
                        seen[t].push_back({v, NumaBinding::currentNode()});
                    };
                    if (input == &all)
                        driver.forAllVertices(record);
                    else
                        driver.forEach(*input, record);

                    const bool bound = binding == QueryBinding::Auto;
                    const bool per_vertex =
                        binding == QueryBinding::PerVertex;
                    const bool balanced =
                        !per_vertex && schedule == SchedulePolicy::Auto &&
                        (input == &all || input->size() >= 4 * threads);
                    const uint64_t n = input->size();
                    const uint64_t per = (n + threads - 1) / threads;
                    // Each vertex's place in the input and in its
                    // list's id order.
                    std::vector<uint64_t> pos(w.nv), rank(w.nv);
                    std::vector<std::vector<vid_t>> lists(xpg->numNodes());
                    for (uint64_t i = 0; i < n; ++i) {
                        const vid_t v = (*input)[i];
                        pos[v] = i;
                        lists[bound ? xpg->nodeOfOut(v) : 0].push_back(v);
                    }
                    for (auto &list : lists) {
                        std::sort(list.begin(), list.end());
                        for (uint64_t i = 0; i < list.size(); ++i)
                            rank[list[i]] = i;
                    }

                    std::vector<unsigned> visits(w.nv, 0);
                    uint64_t wrong_node = 0;
                    uint64_t broken_runs = 0;
                    for (unsigned t = 0; t < threads; ++t) {
                        std::map<int, std::vector<vid_t>> slots;
                        for (const Visit &visit : seen[t]) {
                            ++visits[visit.v];
                            const int want = bound || per_vertex
                                                 ? xpg->nodeOfOut(visit.v)
                                                 : kUnboundNode;
                            wrong_node += visit.node != want;
                            slots[bound ? visit.node : 0].push_back(visit.v);
                        }
                        for (const auto &[node, run] : slots) {
                            if (per_vertex)
                                broken_runs += pos[run.front()] != t * per;
                            for (size_t j = 1; j < run.size(); ++j) {
                                const vid_t a = run[j - 1];
                                const vid_t b = run[j];
                                if (balanced)
                                    broken_runs += rank[b] != rank[a] + 1;
                                else if (per_vertex)
                                    broken_runs += pos[b] != pos[a] + 1;
                                else
                                    broken_runs += pos[b] <= pos[a];
                            }
                        }
                    }
                    uint64_t visited_once = 0;
                    uint64_t total = 0;
                    for (vid_t v = 0; v < w.nv; ++v) {
                        visited_once += visits[v] == 1;
                        total += visits[v];
                    }
                    EXPECT_EQ(visited_once, n);
                    EXPECT_EQ(total, n);
                    EXPECT_EQ(wrong_node, 0u);
                    EXPECT_EQ(broken_runs, 0u);
                }
            }
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
    const uint64_t balanced = sweepNs(SchedulePolicy::Auto);
    EXPECT_LT(balanced, strided);
}

} // namespace
} // namespace xpg
