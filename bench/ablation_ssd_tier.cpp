/**
 * @file
 * Storage-tier ablation: the unchanged XPGraph engine running on modeled
 * DRAM, Optane PMEM (App-Direct), and an NVMe SSD (the substrate of the
 * paper's future-work "SSD-supported XPGraph" and of the disk-based
 * systems in its related work). Quantifies the paper's core premise:
 * byte-addressable persistence sits between DRAM and block storage, and
 * the XPLine-friendly access model is what keeps it near the DRAM end.
 */

#include <cstdio>

#include "analytics/algorithms.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace xpg;
using namespace xpg::bench;

int
main(int argc, char **argv)
{
    printBanner("ablation_ssd_tier",
                "storage tiers under the same engine (future-work "
                "substrate, S V-F)");

    const Dataset ds = loadDataset(argc > 1 ? argv[1] : "TT");

    struct Tier
    {
        const char *name;
        MemKind kind;
    };
    const Tier tiers[] = {
        {"DRAM", MemKind::Dram},
        {"Optane PMEM", MemKind::Pmem},
        {"NVMe SSD", MemKind::Ssd},
    };

    TablePrinter table("XPGraph across storage tiers (" + ds.spec.name +
                       ")");
    table.header({"tier", "ingest (s)", "vs PMEM", "BFS (s)",
                  "media write"});

    uint64_t pmem_ns = 0;
    struct Row
    {
        const char *name;
        uint64_t ingestNs;
        uint64_t bfsNs;
        uint64_t mediaWrite;
    };
    std::vector<Row> rows;
    for (const Tier &tier : tiers) {
        XPGraphConfig c = xpgraphConfig(ds, 16);
        c.memKind = tier.kind;
        auto graph = buildXpgraph(ds, c);
        Rng rng(0x55D);
        const vid_t root =
            ds.edges[rng.nextBounded(ds.edges.size())].src;
        const auto bfs = runBfs(*graph, root, 32);
        Row row{tier.name, graph->stats().ingestNs(), bfs.simNs,
                graph->pmemCounters().mediaBytesWritten};
        if (tier.kind == MemKind::Pmem)
            pmem_ns = row.ingestNs;
        rows.push_back(row);
    }
    for (const Row &row : rows) {
        table.row({row.name, TablePrinter::seconds(row.ingestNs),
                   TablePrinter::num(static_cast<double>(row.ingestNs) /
                                     static_cast<double>(pmem_ns), 2) +
                       "x",
                   TablePrinter::seconds(row.bfsNs),
                   TablePrinter::bytes(row.mediaWrite)});
    }
    table.print();
    std::printf("\nexpected: ingest degrades modestly on SSD (the "
                "vertex-centric batching is block-friendly too) but "
                "queries fall an order of magnitude behind (4 KiB "
                "granularity + flash latency on random reads) — which "
                "is why the paper's future work is SSD-*supported* "
                "tiering, not SSD-resident storage\n");
    return 0;
}
