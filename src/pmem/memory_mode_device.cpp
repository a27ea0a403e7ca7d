#include "pmem/memory_mode_device.hpp"

#include <cstring>

#include "pmem/xpline.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

namespace {

/** One way per set; as many sets as whole XPLines fit the cache,
 *  rounded down to a power of two. */
XPBufferConfig
directMapped(uint64_t cache_bytes)
{
    XPBufferConfig c;
    c.ways = 1;
    c.numSets = 1;
    while (uint64_t{c.numSets} * 2 * kXPLineSize <= cache_bytes)
        c.numSets *= 2;
    return c;
}

} // namespace

MemoryModeDevice::MemoryModeDevice(std::string name, uint64_t capacity,
                                   uint64_t dram_cache_bytes, int node,
                                   unsigned num_nodes,
                                   const CostParams *params)
    : MemoryDevice(std::move(name), capacity, node, num_nodes, ""),
      cache_(directMapped(dram_cache_bytes), nullptr,
             alignUp(capacity, kXPLineSize) / kXPLineSize),
      params_(params ? params : &globalCostParams())
{
}

void
MemoryModeDevice::chargeOutcome(const XPAccessOutcome &out, bool is_write)
{
    using telemetry::AttrField;
    const CostParams &p = *params_;
    // DRAM access happens either way (the cache is inclusive).
    SimClock::charge(p.dramRandomLineNs);
    if (out.hit) {
        count(AttrField::BufferHits, 1);
        return;
    }

    const double remote_r = remoteFactor(p.pmemRemoteReadMult);
    countMediaRead(kXPLineSize);
    if (is_write) {
        // A write miss fetches the full line before merging the store:
        // memory-mode's flavor of sub-line RMW amplification.
        count(AttrField::RmwReads, 1);
    }
    const double read_contention = CostParams::contentionMult(
        declaredReaders(), p.pmemReadFairThreads, p.pmemReadContentionSlope);
    SimClock::chargeScaled(p.pmemMediaReadNs, remote_r * read_contention);

    if (out.evictWrite) {
        countMediaWrite(out.evictedOwner, kXPLineSize);
        const double write_contention = CostParams::contentionMult(
            declaredWriters(), p.pmemWriteFairThreads,
            p.pmemWriteContentionSlope);
        SimClock::chargeScaled(p.pmemMediaWriteNs, write_contention);
    }
}

void
MemoryModeDevice::chargeLoad(uint64_t off, uint64_t size)
{
    forEachLine(off, size, kXPLineSize, [&](uint64_t line, auto...) {
        chargeOutcome(cache_.load(line), false);
    });
}

void
MemoryModeDevice::store(uint64_t off, const std::byte *src, uint64_t size)
{
    forEachLine(off, size, kXPLineSize, [&](uint64_t line, auto...) {
        chargeOutcome(
            cache_.store(line, /*starts_at_base=*/false, ownerTag()), true);
    });
    std::memcpy(raw(off), src, size);
}

} // namespace xpg
