/**
 * @file
 * Configuration of an XPGraph engine instance. The three prototype
 * variants of the paper (S IV-C) are presets over the same engine:
 *
 *  - XPGraph    : PMEM devices, strict edge-log overwrite rule.
 *  - XPGraph-B  : PMEM devices, battery-backed DRAM — buffered edges may
 *                 be overwritten in the log.
 *  - XPGraph-D  : modeled DRAM (or Optane Memory Mode) devices, fixed
 *                 64-byte vertex buffers (min = max), no consistency
 *                 requirements.
 *
 * validate()/validated() centralize the range and consistency checks
 * that used to live as ad-hoc asserts in the constructors: callers can
 * inspect the actionable error strings (tests, tools) or let validated()
 * fail fatally with all of them at once.
 */

#ifndef XPG_CORE_CONFIG_HPP
#define XPG_CORE_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "pmem/memory_device.hpp"

namespace xpg {

/** Engine configuration; see the paper sections referenced per field. */
struct XPGraphConfig
{
    /** Vertex-id space size (required). */
    vid_t maxVertices = 0;

    // --- devices / NUMA (S III-D) ---
    MemKind memKind = MemKind::Pmem;
    unsigned numNodes = 2;
    NumaPlacement placement = NumaPlacement::SubGraph;
    /** Bind archive, session and query threads to the data's node;
     *  false is the no-binding baseline of Fig.18. */
    bool bindThreads = true;
    /** Per-node device capacity in bytes (required). */
    uint64_t pmemBytesPerNode = 0;
    /** DRAM cache per node for MemKind::MemoryMode. */
    uint64_t memoryModeCacheBytes = 32ull << 20;
    /** Page-cache blocks per node for MemKind::Ssd (4 KiB each). */
    uint64_t ssdCacheBlocks = 256;
    /** Directory for backing files; empty = volatile mappings. */
    std::string backingDir;

    // --- vertex buffering (S III-B, S III-C) ---
    // A vertex starts on a minVertexBufBytes buffer and doubles it while
    // it is below maxVertexBufBytes (the hierarchical layers L0..Lmax);
    // min = max is the fixed-size buffering of Fig.16.
    /** Smallest (L0) buffer size in bytes. */
    uint32_t minVertexBufBytes = 16;
    /** Largest buffer size in bytes; flush target granularity. */
    uint32_t maxVertexBufBytes = 256;

    // --- vertex buffer memory pool (S III-C, Fig.19) ---
    uint64_t poolBulkBytes = 16ull << 20;
    uint64_t poolLimitBytes = ~0ull;

    // --- circular edge log (S III-B, Fig.7) ---
    /** Per-node log capacity in edges (paper: 8 GiB of 8 B edges). */
    uint64_t elogCapacityEdges = 1ull << 20;
    /** Non-buffered edges that trigger a buffering phase (paper: 2^16). */
    uint64_t bufferingThresholdEdges = 1ull << 16;
    /** Buffered-but-unflushed fraction of the log that triggers a
     *  flush-all phase. */
    double flushThresholdFrac = 0.5;
    /** Battery-backed DRAM: buffered edges may be overwritten (S IV-C). */
    bool batteryBacked = false;

    // --- archiving (S IV-A) ---
    unsigned archiveThreads = 16;
    /** Proactively clwb adjacency writes >= one XPLine (S IV-A); takes
     *  effect on MemKind::Pmem only. */
    bool proactiveFlush = true;
    /**
     * Run archiving (buffering + flushing) on a dedicated background
     * thread, pipelined with session logging. false = archive inline on
     * the client thread at the thresholds (deterministic; the pre-
     * session behaviour). With concurrent sessions, inline archiving
     * already overlaps with the other sessions' logging; the background
     * archiver additionally overlaps with a single session.
     */
    bool pipelinedArchiving = false;
    /**
     * Degree (stored + pending records) from which a newly chained
     * block is archived as a delta+varint compressed chunk (DESIGN.md
     * §11) instead of raw 4-byte records; below it vertices stay raw,
     * and UINT32_MAX never compresses. A tuning knob, not geometry: raw
     * and compressed blocks coexist on one chain and recovery validates
     * both, so it may be changed across restarts.
     */
    uint32_t compressMinDegree = 128;

    // --- background compaction (DESIGN.md §13) ---
    /**
     * Run the crash-safe background compactor: a dedicated thread
     * (pipelined-archiver discipline) rewrites tombstone-heavy chains
     * into fresh chunks via copy-on-write. A tuning knob, not geometry:
     * the journal region is always laid out, so it may be toggled
     * across restarts. Delete-free chains are never touched, so query
     * results are byte-identical with the compactor on or off on an
     * insert-only workload.
     */
    bool backgroundCompaction = false;
    /** Tombstone fraction (tombstones / records) from which a chain is
     *  a compaction candidate. */
    double compactTombstoneRatio = 0.25;
    /** Minimum records a chain must hold before the compactor bothers
     *  rewriting it (tiny chains cost more to rewrite than they waste). */
    uint32_t compactMinRecords = 64;

    // --- operations plane (DESIGN.md §14) ---
    // Tuning, not geometry: these may change across restarts.
    /** A busy component whose heartbeat is older than this is Stalled
     *  (Degraded past half). Host milliseconds. */
    uint32_t watchdogStallMs = 2000;
    /** Writers continuously blocked in waitForLogSpace longer than this
     *  are Degraded (Stalled past 4x). Host milliseconds. */
    uint32_t watchdogBackpressureMs = 500;
    /** A ReadView open longer than this is flagged as an epoch-pin
     *  leak (Degraded). Host milliseconds. */
    uint32_t watchdogViewPinMs = 10000;
    /**
     * Test-only: the background compactor thread declares itself busy
     * and then never beats or works again — a deliberately wedged
     * component for watchdog stall tests and the CI stalled-compactor
     * scenario. Requires backgroundCompaction; never set in
     * production.
     */
    bool debugWedgeCompactor = false;

    /**
     * Check every range/consistency constraint and return the problems
     * as actionable messages (empty = valid). @p for_recovery adds the
     * constraints XPGraph::recover() needs on top of construction.
     */
    std::vector<std::string> validate(bool for_recovery = false) const;

    /**
     * The validated configuration: returns *this unchanged when
     * validate() is clean, otherwise fails fatally listing every
     * problem. Engine constructors and recover() call this instead of
     * ad-hoc asserts.
     */
    const XPGraphConfig &validated(bool for_recovery = false) const;

    /**
     * Fingerprint of every field that shapes the persistent layout or
     * durability contract. Stored in the superblock at creation;
     * recover() rejects a config whose fingerprint differs, because
     * attaching with mismatched geometry silently misinterprets every
     * region offset.
     */
    uint64_t geometryFingerprint() const;

    /** The persistent prototype ("XPGraph"). */
    static XPGraphConfig
    persistent(vid_t max_vertices, uint64_t bytes_per_node)
    {
        XPGraphConfig c;
        c.maxVertices = max_vertices;
        c.pmemBytesPerNode = bytes_per_node;
        return c;
    }

    /** The battery-backed prototype ("XPGraph-B"). */
    static XPGraphConfig
    battery(vid_t max_vertices, uint64_t bytes_per_node)
    {
        XPGraphConfig c = persistent(max_vertices, bytes_per_node);
        c.batteryBacked = true;
        return c;
    }

    /** The DRAM-only prototype ("XPGraph-D"). */
    static XPGraphConfig
    dramOnly(vid_t max_vertices, uint64_t bytes_per_node)
    {
        XPGraphConfig c = persistent(max_vertices, bytes_per_node);
        c.memKind = MemKind::Dram;
        c.batteryBacked = true; // no log-overwrite restrictions
        // paper: fixed 64 B buffers, no migration
        c.minVertexBufBytes = 64;
        c.maxVertexBufBytes = 64;
        return c;
    }
};

} // namespace xpg

#endif // XPG_CORE_CONFIG_HPP
