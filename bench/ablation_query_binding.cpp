/**
 * @file
 * Ablation of the query-side binding strategies (paper S III-D): no
 * binding, per-round classification + binding (XPGraph's choice), and
 * the per-vertex rebinding anti-pattern whose thread-migration cost the
 * paper measured at >10x a remote PMEM access.
 */

#include <cstdio>
#include <vector>

#include "analytics/algorithms.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace xpg;
using namespace xpg::bench;

int
main(int argc, char **argv)
{
    printBanner("ablation_query_binding",
                "query thread-binding strategies (S III-D discussion)");

    const Dataset ds = loadDataset(argc > 1 ? argv[1] : "FS");
    auto graph = buildXpgraph(ds, xpgraphConfig(ds, 16));
    graph->flushAllVbufs(); // queries must hit PMEM

    Rng rng(0xAB1);
    std::vector<vid_t> queries;
    for (unsigned i = 0; i < 1 << 14; ++i)
        queries.push_back(
            ds.edges[rng.nextBounded(ds.edges.size())].src);

    struct Strategy
    {
        const char *name;
        QueryBinding binding;
    };
    const Strategy strategies[] = {
        {"unbound threads", QueryBinding::None},
        {"per-round binding (paper)", QueryBinding::Auto},
        {"per-vertex binding", QueryBinding::PerVertex},
    };

    TablePrinter table("One-hop sweep under binding strategies (" +
                       ds.spec.name + ", 96 threads)");
    table.header({"strategy", "time (s)", "vs per-round"});
    uint64_t reference = 0;
    std::vector<std::pair<const char *, uint64_t>> rows;
    for (const auto &s : strategies) {
        const auto r = runOneHop(*graph, queries, 96, s.binding);
        if (s.binding == QueryBinding::Auto)
            reference = r.simNs;
        rows.emplace_back(s.name, r.simNs);
    }
    for (const auto &[name, ns] : rows) {
        table.row({name, TablePrinter::seconds(ns),
                   TablePrinter::num(static_cast<double>(ns) /
                                     static_cast<double>(reference), 2) +
                       "x"});
    }
    table.print();
    std::printf("\nexpected: per-round wins; per-vertex is dominated by "
                "thread-migration cost (paper: >10x a remote access)\n");
    return 0;
}
