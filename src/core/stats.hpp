/**
 * @file
 * Statistics reported by the graph stores: simulated phase times (the
 * quantities behind Fig.3a/11/12/15/20), operation counts, and the memory
 * usage breakdown of Table III.
 */

#ifndef XPG_CORE_STATS_HPP
#define XPG_CORE_STATS_HPP

#include <algorithm>
#include <cstdint>

namespace xpg {

/** Simulated-time and operation statistics of an ingest run. */
struct IngestStats
{
    // Simulated nanoseconds. Logging runs on client (session) threads
    // concurrently with archiving (buffering + flushing) worker threads,
    // so the pipelined ingest time is the maximum of the two streams.
    uint64_t loggingNs = 0;    ///< summed over every logging stream
    /**
     * The slowest single logging stream (a session or the default
     * shim). With one client thread this equals loggingNs; with N
     * concurrent sessions it is the wall-clock of the logging side.
     * 0 when the store predates per-stream accounting.
     */
    uint64_t loggingNsMax = 0;
    /**
     * The slowest client *stream*: its logging plus the archive phases
     * it coordinated inline (a client cannot log while it runs a phase
     * itself). With the background archiver or enough concurrent
     * sessions this approaches loggingNsMax; for a lone inline client
     * it approaches loggingNs + archivingNs(). 0 when no client ran.
     */
    uint64_t clientNsMax = 0;
    uint64_t bufferingNs = 0;
    uint64_t flushingNs = 0;
    uint64_t recoveryNs = 0;

    uint64_t edgesLogged = 0;
    uint64_t edgesBuffered = 0;
    uint64_t vbufFlushes = 0;   ///< single-vertex buffer flushes
    uint64_t bufferingPhases = 0;
    uint64_t flushAllPhases = 0;
    uint64_t sessionsOpened = 0; ///< concurrent sessions ever opened

    // --- background compaction (DESIGN.md §13) ---
    uint64_t compactionPasses = 0;  ///< passes run, by any entry point
    uint64_t compactionSlots = 0;   ///< chains rewritten by those passes
    /** Footprint of the old chains those rewrites made unreachable
     *  (logically reclaimed; the bump allocator never reuses it, so
     *  open views keep reading the abandoned blocks safely). */
    uint64_t compactionBytesReclaimed = 0;
    /** Tombstone + cancelled-insert records dropped by the rewrites. */
    uint64_t compactionRecordsDropped = 0;

    /** Archiving = buffering + flushing (paper terminology, S V-B). */
    uint64_t archivingNs() const { return bufferingNs + flushingNs; }

    /** End-to-end ingest time: the slowest client stream (logging plus
     *  any inline-coordinated phases), overlapped with the archiving
     *  workers' phases — archive work a client ran inline serializes
     *  into its stream; everything else pipelines. */
    uint64_t
    ingestNs() const
    {
        uint64_t client_wall = clientNsMax;
        if (client_wall == 0)
            client_wall = loggingNsMax > 0 ? loggingNsMax : loggingNs;
        return std::max(client_wall, archivingNs());
    }

    bool operator==(const IngestStats &) const = default;
};

/**
 * Cumulative compressed-adjacency-chunk statistics (DESIGN.md §11):
 * what the delta+varint codec wrote and decoded. rawBytes is what the
 * same records would have cost as 4-byte raw payloads, so
 * rawBytes - encodedBytes is the media traffic cut at the source.
 */
struct CompressionStats
{
    uint64_t chunksCompressed = 0;  ///< compressed blocks written
    uint64_t recordsCompressed = 0; ///< neighbor records those blocks hold
    uint64_t rawBytes = 0;          ///< 4 B/record cost of the raw format
    uint64_t encodedBytes = 0;      ///< payload bytes actually written
    uint64_t decodeCalls = 0;       ///< compressed payloads decoded
    uint64_t decodedRecords = 0;    ///< records produced by those decodes

    uint64_t
    bytesSaved() const
    {
        return rawBytes > encodedBytes ? rawBytes - encodedBytes : 0;
    }

    /** raw/encoded; 1.0 when nothing was compressed. */
    double
    compressionRatio() const
    {
        if (encodedBytes == 0)
            return 1.0;
        return static_cast<double>(rawBytes) /
               static_cast<double>(encodedBytes);
    }

    /** Encoded payload bytes per stored record (4.0 = raw cost). */
    double
    bytesPerEdge() const
    {
        if (recordsCompressed == 0)
            return 0.0;
        return static_cast<double>(encodedBytes) /
               static_cast<double>(recordsCompressed);
    }

    CompressionStats &
    operator+=(const CompressionStats &o)
    {
        chunksCompressed += o.chunksCompressed;
        recordsCompressed += o.recordsCompressed;
        rawBytes += o.rawBytes;
        encodedBytes += o.encodedBytes;
        decodeCalls += o.decodeCalls;
        decodedRecords += o.decodedRecords;
        return *this;
    }
};

/** Memory usage breakdown (Table III columns). */
struct MemoryUsage
{
    uint64_t metaBytes = 0;  ///< DRAM: vertex state arrays, shard scratch
    uint64_t vbufBytes = 0;  ///< DRAM: vertex buffer pool (peak live)
    uint64_t elogBytes = 0;  ///< PMEM: circular edge log region
    uint64_t pblkBytes = 0;  ///< PMEM: adjacency blocks + vertex index

    bool operator==(const MemoryUsage &) const = default;
};

} // namespace xpg

#endif // XPG_CORE_STATS_HPP
