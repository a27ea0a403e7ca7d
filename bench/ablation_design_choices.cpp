/**
 * @file
 * Ablation study of XPGraph's individual design choices (DESIGN.md S3):
 * each row disables exactly one mechanism and reports the ingest-time and
 * PMEM-traffic cost of losing it.
 *
 *  - full          : everything on (the Fig.11 configuration)
 *  - no-buffering  : 8 B vertex buffers (one neighbor) — every update
 *                    goes almost straight to PMEM, GraphOne-style
 *  - no-hierarchy  : fixed max-size buffers (Fig.16's best) — same speed
 *                    class, much more DRAM
 *  - no-binding    : data partitioned but threads float across sockets
 *  - no-proactive  : no clwb of whole-XPLine adjacency writes; dirty
 *                    lines are written back by eviction in random order
 *  - single-node   : no NUMA partitioning at all
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"

using namespace xpg;
using namespace xpg::bench;

int
main(int argc, char **argv)
{
    printBanner("ablation_design_choices",
                "design-choice ablations (DESIGN.md; extends Fig.16-18)");

    const Dataset ds = loadDataset(argc > 1 ? argv[1] : "FS");

    struct Variant
    {
        const char *name;
        std::function<void(XPGraphConfig &)> tweak;
    };
    const std::vector<Variant> variants = {
        {"full", [](XPGraphConfig &) {}},
        {"no-buffering",
         [](XPGraphConfig &c) {
             c.minVertexBufBytes = 8;
             c.maxVertexBufBytes = 8;
         }},
        {"no-hierarchy (fixed-256)",
         [](XPGraphConfig &c) {
             c.minVertexBufBytes = 256;
             c.maxVertexBufBytes = 256;
         }},
        {"no-binding",
         [](XPGraphConfig &c) { c.bindThreads = false; }},
        {"no-proactive-flush",
         [](XPGraphConfig &c) { c.proactiveFlush = false; }},
        {"single-node",
         [](XPGraphConfig &c) {
             c.numNodes = 1;
             c.placement = NumaPlacement::SubGraph;
         }},
    };

    TablePrinter table("XPGraph design-choice ablation (" +
                       ds.spec.name + ")");
    table.header({"variant", "ingest (s)", "vs full", "media write",
                  "vbuf DRAM"});

    uint64_t full_ns = 0;
    for (const auto &variant : variants) {
        XPGraphConfig c = xpgraphConfig(ds, 16);
        variant.tweak(c);
        const auto o = ingestXpgraph(ds, c, variant.name);
        if (full_ns == 0)
            full_ns = o.ingestNs();
        table.row({variant.name, TablePrinter::seconds(o.ingestNs()),
                   TablePrinter::num(static_cast<double>(o.ingestNs()) /
                                     static_cast<double>(full_ns), 2) +
                       "x",
                   TablePrinter::bytes(o.counters.mediaBytesWritten),
                   TablePrinter::bytes(o.mem.vbufBytes)});
    }
    table.print();
    std::printf("\nexpected: no-buffering is by far the worst (the core "
                "mechanism); no-hierarchy matches full speed at many "
                "times the DRAM; binding/proactive-flush give single- "
                "to double-digit percents\n");
    return 0;
}
