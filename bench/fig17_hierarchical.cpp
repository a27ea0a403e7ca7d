/**
 * @file
 * Reproduces Fig.17: adaptive hierarchical buffer management on YahooWeb
 * — ingest time and DRAM demand for maximum buffer sizes 32..512 B,
 * against the best fixed setting of Fig.16.
 *
 * Paper shape: hierarchical buffers match (even slightly beat) the best
 * fixed configuration's speed at less than half its DRAM demand
 * (YW: 544.72 s / 10.49 GB hierarchical-256 vs 645.42 s / 26.54 GB
 * fixed-128).
 */

#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace xpg;
using namespace xpg::bench;

int
main(int argc, char **argv)
{
    printBanner("fig17_hierarchical",
                "Fig.17 (hierarchical max-buffer sweep on YahooWeb)");

    const Dataset ds = loadDataset(argc > 1 ? argv[1] : "YW");

    TablePrinter table("Fig.17: hierarchical vertex-buffer sweep "
                       "(16 B initial layer)");
    table.header({"config", "ingest (s)", "vbuf DRAM", "total DRAM"});

    // Fixed reference points from Fig.16's sweet spot.
    for (uint32_t fixed : {64u, 128u}) {
        XPGraphConfig c = xpgraphConfig(ds, 16);
        c.minVertexBufBytes = fixed; // min = max: one fixed layer
        c.maxVertexBufBytes = fixed;
        const auto o = ingestXpgraph(ds, c, "fixed");
        table.row({"fixed-" + std::to_string(fixed),
                   TablePrinter::seconds(o.ingestNs()),
                   TablePrinter::bytes(o.mem.vbufBytes),
                   TablePrinter::bytes(o.mem.vbufBytes +
                                       o.mem.metaBytes)});
    }

    for (uint32_t max_bytes : {32u, 64u, 128u, 256u, 512u}) {
        XPGraphConfig c = xpgraphConfig(ds, 16);
        c.minVertexBufBytes = 16;
        c.maxVertexBufBytes = max_bytes;
        const auto o = ingestXpgraph(ds, c, "hier");
        table.row({"hier-16.." + std::to_string(max_bytes),
                   TablePrinter::seconds(o.ingestNs()),
                   TablePrinter::bytes(o.mem.vbufBytes),
                   TablePrinter::bytes(o.mem.vbufBytes +
                                       o.mem.metaBytes)});
    }
    table.print();
    std::printf("\npaper: hierarchical 16..256 matches the best fixed "
                "setting's speed at under half the DRAM\n");
    return 0;
}
