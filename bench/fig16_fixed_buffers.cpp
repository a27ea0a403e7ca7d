/**
 * @file
 * Reproduces Fig.16: the per-vertex buffer size trade-off of the plain
 * vertex-centric buffering strategy (fixed buffer per vertex, S III-B) on
 * YahooWeb — (a) ingest time and (b) DRAM demand vs buffer size, with an
 * out-of-memory point at 512 B.
 *
 * Paper shape: bigger buffers are faster (fewer, larger PMEM flushes) but
 * eat DRAM linearly; a slight time regression appears between 128 B and
 * 256 B (allocation cost), and 512 B exceeds the 128 GB DRAM budget.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace xpg;
using namespace xpg::bench;

int
main(int argc, char **argv)
{
    printBanner("fig16_fixed_buffers",
                "Fig.16 (fixed per-vertex buffer size sweep on YahooWeb)");

    const Dataset ds = loadDataset(argc > 1 ? argv[1] : "YW");

    // DRAM available for vertex buffers: the testbed's 128 GB minus the
    // ~56 GB of engine metadata the paper reports for YahooWeb
    // (Table III), scaled with everything else.
    const uint64_t vbuf_budget =
        ((128ull - 56ull) << 30) >> scaleShift();

    TablePrinter table("Fig.16: fixed vertex-buffer sweep");
    table.header({"buffer size", "ingest (s)", "vbuf DRAM", "status"});

    for (uint32_t bytes : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
        XPGraphConfig c = xpgraphConfig(ds, 16);
        c.minVertexBufBytes = bytes; // min = max: one fixed layer
        c.maxVertexBufBytes = bytes;
        const auto o = ingestXpgraph(ds, c, "fixed");
        const bool oom = o.mem.vbufBytes > vbuf_budget;
        table.row({std::to_string(bytes) + " B",
                   oom ? "OOM" : TablePrinter::seconds(o.ingestNs()),
                   TablePrinter::bytes(o.mem.vbufBytes),
                   oom ? "OOM (over scaled DRAM budget)" : "ok"});
    }
    table.print();
    std::printf("\npaper: larger fixed buffers reduce time but DRAM "
                "grows ~linearly; >50 GB at 256 B, OOM at 512 B\n");
    return 0;
}
