#include "core/config.hpp"

#include "graph/circular_edge_log.hpp"
#include "util/checksum.hpp"
#include "util/logging.hpp"

namespace xpg {

namespace {

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

std::vector<std::string>
XPGraphConfig::validate(bool for_recovery) const
{
    std::vector<std::string> problems;
    auto bad = [&](const std::string &msg) { problems.push_back(msg); };

    if (maxVertices == 0)
        bad("maxVertices is 0: set it to the vertex-id space size "
            "(e.g. XPGraphConfig::persistent(nv, bytes))");
    if (maxVertices > kMaxVid)
        bad("maxVertices " + std::to_string(maxVertices) +
            " exceeds the addressable id space (" +
            std::to_string(kMaxVid) +
            "): bit 31 of a vid is the delete flag");

    if (numNodes < 1)
        bad("numNodes is 0: the modeled topology needs at least one "
            "NUMA node");
    if (placement == NumaPlacement::OutInGraph && numNodes > 2)
        bad("out/in-graph placement puts the out-graph on node 0 and "
            "the in-graph on node 1; use numNodes <= 2 or "
            "NumaPlacement::SubGraph");

    if (pmemBytesPerNode == 0) {
        bad("pmemBytesPerNode is 0: size it with "
            "recommendedBytesPerNode(config, expected_edges)");
    } else if (elogCapacityEdges > 0 && numNodes >= 1) {
        // Every node hosts a log region plus the two index regions;
        // leave the precise fit to layout, but catch obvious misfits.
        const uint64_t log_bytes =
            CircularEdgeLog::regionBytes(elogCapacityEdges);
        if (log_bytes >= pmemBytesPerNode)
            bad("pmemBytesPerNode (" + std::to_string(pmemBytesPerNode) +
                ") is too small to even hold the per-node edge log (" +
                std::to_string(log_bytes) +
                " bytes): grow it with recommendedBytesPerNode()");
    }

    if (memKind == MemKind::MemoryMode && memoryModeCacheBytes == 0)
        bad("memoryModeCacheBytes is 0: Memory Mode needs a DRAM cache "
            "(default 32 MiB)");
    if (memKind == MemKind::Ssd && ssdCacheBlocks == 0)
        bad("ssdCacheBlocks is 0: the SSD model needs a page cache");

    if (elogCapacityEdges == 0)
        bad("elogCapacityEdges is 0: the circular edge log needs "
            "capacity (paper default: 2^30 edges per socket)");
    if (bufferingThresholdEdges == 0)
        bad("bufferingThresholdEdges is 0: a zero threshold would "
            "trigger a buffering phase on every append (paper: 2^16)");
    if (bufferingThresholdEdges > elogCapacityEdges)
        bad("bufferingThresholdEdges (" +
            std::to_string(bufferingThresholdEdges) +
            ") exceeds elogCapacityEdges (" +
            std::to_string(elogCapacityEdges) +
            "): the log would fill before a buffering phase triggers");
    if (!(flushThresholdFrac > 0.0) || flushThresholdFrac > 1.0)
        bad("flushThresholdFrac must be in (0, 1]: it is the buffered "
            "fraction of the log that triggers a flush-all phase");

    if (!isPow2(minVertexBufBytes) || minVertexBufBytes < 8)
        bad("minVertexBufBytes must be a power of two >= 8 (4-byte "
            "header + at least one 4-byte neighbor)");
    if (!isPow2(maxVertexBufBytes))
        bad("maxVertexBufBytes must be a power of two");
    if (maxVertexBufBytes < minVertexBufBytes)
        bad("maxVertexBufBytes (" + std::to_string(maxVertexBufBytes) +
            ") is below minVertexBufBytes (" +
            std::to_string(minVertexBufBytes) +
            "): the hierarchical layers L0..Lmax are empty");
    if (poolBulkBytes < maxVertexBufBytes)
        bad("poolBulkBytes (" + std::to_string(poolBulkBytes) +
            ") is smaller than the largest vertex buffer (" +
            std::to_string(maxVertexBufBytes) +
            "): one pool bulk must fit at least one buffer");
    if (poolLimitBytes < poolBulkBytes)
        bad("poolLimitBytes (" + std::to_string(poolLimitBytes) +
            ") is below poolBulkBytes (" + std::to_string(poolBulkBytes) +
            "): the pool could never acquire its first bulk");

    if (archiveThreads < 1)
        bad("archiveThreads is 0: archiving needs at least one worker");

    if (compressMinDegree < 2)
        bad("compressMinDegree must be >= 2: a compressed chunk needs "
            "at least a first vid and one gap to beat the raw format");

    if (!(compactTombstoneRatio > 0.0) || compactTombstoneRatio > 1.0)
        bad("compactTombstoneRatio must be in (0, 1]: it is the "
            "tombstone fraction that makes a chain a compaction "
            "candidate");
    if (compactMinRecords < 1)
        bad("compactMinRecords must be >= 1: a zero floor would make "
            "every touched vertex a compaction candidate");

    if (watchdogStallMs == 0)
        bad("watchdogStallMs is 0: a zero deadline would flag every "
            "busy component as stalled instantly");
    if (debugWedgeCompactor && !backgroundCompaction)
        bad("debugWedgeCompactor wedges the background compactor "
            "thread: it requires backgroundCompaction");

    if (for_recovery && backingDir.empty())
        bad("recovery requires file-backed devices: set backingDir to "
            "the directory holding the xpgraph_node*.pmem images");

    return problems;
}

uint64_t
XPGraphConfig::geometryFingerprint() const
{
    // Hash exactly the fields that determine the persistent layout
    // (region offsets and sizes) or the durability contract. Tuning
    // knobs that only change runtime behaviour (thresholds, thread
    // counts, buffer sizing) are deliberately excluded so they can be
    // changed across a restart.
    uint64_t h = fnv1a64("xpgraph-geometry-v1", 19);
    const uint64_t fields[] = {
        uint64_t{maxVertices},
        static_cast<uint64_t>(memKind),
        uint64_t{numNodes},
        static_cast<uint64_t>(placement),
        pmemBytesPerNode,
        elogCapacityEdges,
        uint64_t{batteryBacked},
    };
    return fnv1a64(fields, sizeof(fields), h);
}

const XPGraphConfig &
XPGraphConfig::validated(bool for_recovery) const
{
    const std::vector<std::string> problems = validate(for_recovery);
    if (problems.empty())
        return *this;
    std::string joined = "invalid XPGraphConfig:";
    for (const std::string &p : problems)
        joined += "\n  - " + p;
    XPG_FATAL(joined);
}

} // namespace xpg
