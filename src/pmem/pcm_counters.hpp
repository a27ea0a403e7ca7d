/**
 * @file
 * Device traffic counters, the moral equivalent of the Intel PCM DIMM
 * counters the paper uses to measure read/write amplification (Fig.3b,
 * Fig.13). appBytes* count what software requested; mediaBytes* count what
 * actually moved to/from the 3D-XPoint media (XPLine granularity).
 */

#ifndef XPG_PMEM_PCM_COUNTERS_HPP
#define XPG_PMEM_PCM_COUNTERS_HPP

#include <cstdint>

#include "util/json_writer.hpp"

namespace xpg {

/** Snapshot of a device's cumulative traffic counters. */
struct PcmCounters
{
    uint64_t appBytesRead = 0;     ///< bytes requested by loads
    uint64_t appBytesWritten = 0;  ///< bytes requested by stores
    uint64_t mediaBytesRead = 0;   ///< XPLine bytes fetched from media
    uint64_t mediaBytesWritten = 0;///< XPLine bytes written to media
    uint64_t mediaReadOps = 0;     ///< XPLine fetches
    uint64_t mediaWriteOps = 0;    ///< XPLine write-backs
    uint64_t bufferHits = 0;       ///< accesses absorbed by the XPBuffer
    uint64_t remoteAccesses = 0;   ///< accesses from a non-local node

    bool operator==(const PcmCounters &) const = default;

    PcmCounters
    operator-(const PcmCounters &o) const
    {
        PcmCounters d;
        d.appBytesRead = appBytesRead - o.appBytesRead;
        d.appBytesWritten = appBytesWritten - o.appBytesWritten;
        d.mediaBytesRead = mediaBytesRead - o.mediaBytesRead;
        d.mediaBytesWritten = mediaBytesWritten - o.mediaBytesWritten;
        d.mediaReadOps = mediaReadOps - o.mediaReadOps;
        d.mediaWriteOps = mediaWriteOps - o.mediaWriteOps;
        d.bufferHits = bufferHits - o.bufferHits;
        d.remoteAccesses = remoteAccesses - o.remoteAccesses;
        return d;
    }

    PcmCounters &
    operator+=(const PcmCounters &o)
    {
        appBytesRead += o.appBytesRead;
        appBytesWritten += o.appBytesWritten;
        mediaBytesRead += o.mediaBytesRead;
        mediaBytesWritten += o.mediaBytesWritten;
        mediaReadOps += o.mediaReadOps;
        mediaWriteOps += o.mediaWriteOps;
        bufferHits += o.bufferHits;
        remoteAccesses += o.remoteAccesses;
        return *this;
    }

    PcmCounters
    operator+(const PcmCounters &o) const
    {
        PcmCounters s = *this;
        s += o;
        return s;
    }

    /**
     * Read amplification: media bytes read per app byte *read* — the
     * symmetric counterpart of writeAmplification() and the paper's
     * Fig. 3b definition. RMW reads triggered by sub-line stores inflate
     * the numerator without touching the denominator, which is exactly
     * the effect the figure measures (so a write-heavy workload can show
     * read amplification far above 1 even though it issues few loads).
     */
    double
    readAmplification() const
    {
        const uint64_t denom = appBytesRead ? appBytesRead : 1;
        return static_cast<double>(mediaBytesRead) /
               static_cast<double>(denom);
    }

    /** Write amplification: media bytes written per app byte written. */
    double
    writeAmplification() const
    {
        const uint64_t denom = appBytesWritten ? appBytesWritten : 1;
        return static_cast<double>(mediaBytesWritten) /
               static_cast<double>(denom);
    }

    /**
     * Export for bench reports and telemetry snapshots: raw counters
     * plus the derived amplification factors, so per-node deltas can
     * be merged (operator+) and emitted without bench-side formatting.
     */
    json::JsonValue
    toJson() const
    {
        json::JsonValue v = json::JsonValue::object();
        v.set("app_bytes_read", appBytesRead);
        v.set("app_bytes_written", appBytesWritten);
        v.set("media_bytes_read", mediaBytesRead);
        v.set("media_bytes_written", mediaBytesWritten);
        v.set("media_read_ops", mediaReadOps);
        v.set("media_write_ops", mediaWriteOps);
        v.set("buffer_hits", bufferHits);
        v.set("remote_accesses", remoteAccesses);
        v.set("read_amplification", readAmplification());
        v.set("write_amplification", writeAmplification());
        return v;
    }
};

} // namespace xpg

#endif // XPG_PMEM_PCM_COUNTERS_HPP
