/**
 * @file
 * NUMA-friendly accessing in action (paper S III-D): the same workload
 * ingested and queried under the three placement/binding strategies —
 * no binding, out/in-graph segregation, and hash-partitioned sub-graphs
 * — across socket counts, printing the simulated-time comparison.
 *
 * Run:  ./numa_scaling [edges]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "analytics/algorithms.hpp"
#include "core/xpgraph.hpp"
#include "graph/generators.hpp"
#include "util/table_printer.hpp"

using namespace xpg;

namespace {

struct Outcome
{
    double ingestMs;
    double bfsMs;
    double onehopMs;
};

Outcome
run(const std::vector<Edge> &edges, vid_t users, unsigned nodes,
    NumaPlacement placement, bool bind)
{
    XPGraphConfig config = XPGraphConfig::persistent(users, 0);
    config.numNodes = nodes;
    config.placement = placement;
    config.bindThreads = bind;
    config.archiveThreads = 16;
    config.pmemBytesPerNode = recommendedBytesPerNode(config,
                                                      edges.size());
    XPGraph graph(config);
    graph.session(0)->addEdges(edges.data(), edges.size());
    graph.bufferAllEdges();

    Outcome o;
    o.ingestMs = static_cast<double>(graph.stats().ingestNs()) / 1e6;
    o.bfsMs = static_cast<double>(runBfs(graph, edges[0].src, 32).simNs) /
              1e6;
    std::vector<vid_t> queries;
    for (size_t i = 0; i < edges.size(); i += 16)
        queries.push_back(edges[i].src);
    o.onehopMs =
        static_cast<double>(runOneHop(graph, queries, 32).simNs) / 1e6;
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const uint64_t num_edges =
        argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 500000;
    const vid_t users = 30000;
    auto edges = generateRmat(15, num_edges, RmatParams{}, 0x17);
    foldVertices(edges, users);

    struct Case
    {
        const char *name;
        unsigned nodes;
        NumaPlacement placement;
        bool bind;
    };
    const Case cases[] = {
        {"1 node (no NUMA)", 1, NumaPlacement::SubGraph, true},
        {"2 nodes, no binding", 2, NumaPlacement::SubGraph, false},
        {"2 nodes, out/in split", 2, NumaPlacement::OutInGraph, true},
        {"2 nodes, sub-graphs", 2, NumaPlacement::SubGraph, true},
        {"4 nodes, sub-graphs", 4, NumaPlacement::SubGraph, true},
    };

    TablePrinter table("NUMA strategies on an evolving graph "
                       "(simulated milliseconds)");
    table.header({"configuration", "ingest", "BFS", "1-hop sweep"});
    for (const Case &c : cases) {
        const Outcome o =
            run(edges, users, c.nodes, c.placement, c.bind);
        table.row({c.name, TablePrinter::num(o.ingestMs, 2),
                   TablePrinter::num(o.bfsMs, 3),
                   TablePrinter::num(o.onehopMs, 3)});
    }
    table.print();
    std::printf("\nsub-graph placement + binding should win on every "
                "column once the graph spans sockets (paper Fig.18).\n");
    return 0;
}
