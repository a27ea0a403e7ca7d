/**
 * @file
 * Reproduces Fig.18: efficiency of NUMA-friendly graph accessing —
 * ingest time and BFS time for three settings: no NUMA binding,
 * out/in-graph-based binding (NUMA-bind-OIG), and sub-graph-based
 * binding (NUMA-bind-SG).
 *
 * Paper shape: binding improves ingest 5-23% (growing with graph size);
 * both placements ingest similarly; for BFS, OIG *hurts* by 3-29%
 * (load imbalance: all out-reads hit one socket) while SG improves BFS
 * by up to 54%.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analytics/algorithms.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace xpg;
using namespace xpg::bench;

namespace {

struct Setting
{
    const char *name;
    NumaPlacement placement;
    bool bind;
};

struct Outcome
{
    uint64_t ingestNs;
    uint64_t bfsNs;
};

Outcome
run(const Dataset &ds, const Setting &s)
{
    XPGraphConfig c = bench::xpgraphConfig(ds, 16);
    c.placement = s.placement;
    c.bindThreads = s.bind;
    auto graph = buildXpgraph(ds, c);

    Outcome o;
    o.ingestNs = graph->stats().ingestNs();
    Rng rng(0xF18);
    o.bfsNs = 0;
    for (int i = 0; i < 3; ++i) {
        const vid_t root =
            ds.edges[rng.nextBounded(ds.edges.size())].src;
        o.bfsNs += runBfs(*graph, root, 96).simNs;
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    printBanner("fig18_numa_binding",
                "Fig.18 (NUMA binding strategies: ingest and BFS)");

    std::vector<std::string> names = {"FS", "YW", "K29", "K30"};
    if (argc > 1) {
        names.clear();
        for (int i = 1; i < argc; ++i)
            names.push_back(argv[i]);
    }

    const Setting settings[] = {
        {"no-bind", NumaPlacement::SubGraph, false},
        {"NUMA-bind-OIG", NumaPlacement::OutInGraph, true},
        {"NUMA-bind-SG", NumaPlacement::SubGraph, true},
    };

    TablePrinter ingest("Fig.18(a): ingest time (simulated seconds)");
    ingest.header({"dataset", "no-bind", "NUMA-bind-OIG", "NUMA-bind-SG",
                   "SG gain"});
    TablePrinter bfs("Fig.18(b): BFS time, 3 roots (simulated seconds)");
    bfs.header({"dataset", "no-bind", "NUMA-bind-OIG", "NUMA-bind-SG",
                "SG gain", "OIG vs no-bind"});

    for (const auto &name : names) {
        const Dataset ds = loadDataset(name);
        Outcome o[3];
        for (int i = 0; i < 3; ++i)
            o[i] = run(ds, settings[i]);

        auto pct = [](uint64_t base, uint64_t v) {
            return TablePrinter::num(
                       100.0 * (static_cast<double>(base) - v) / base, 1) +
                   "%";
        };
        ingest.row({ds.spec.abbrev, TablePrinter::seconds(o[0].ingestNs),
                    TablePrinter::seconds(o[1].ingestNs),
                    TablePrinter::seconds(o[2].ingestNs),
                    pct(o[0].ingestNs, o[2].ingestNs)});
        bfs.row({ds.spec.abbrev, TablePrinter::seconds(o[0].bfsNs),
                 TablePrinter::seconds(o[1].bfsNs),
                 TablePrinter::seconds(o[2].bfsNs),
                 pct(o[0].bfsNs, o[2].bfsNs),
                 pct(o[0].bfsNs, o[1].bfsNs)});
    }
    ingest.print();
    bfs.print();
    std::printf("\npaper: SG binding gains 5-23%% ingest and up to 54%% "
                "BFS; OIG binding hurts BFS 3-29%% (imbalance)\n");
    return 0;
}
