#include "pmem/memory_mode_device.hpp"

#include <cstring>
#include <mutex>

#include "pmem/xpline.hpp"
#include "util/logging.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

MemoryModeDevice::MemoryModeDevice(std::string name, uint64_t capacity,
                                   uint64_t dram_cache_bytes, int node,
                                   unsigned num_nodes,
                                   const CostParams *params)
    : MemoryDevice(std::move(name), capacity, node, num_nodes, ""),
      params_(params ? params : &globalCostParams())
{
    const uint64_t lines = std::max<uint64_t>(1, dram_cache_bytes /
                                                     kXPLineSize);
    tags_.resize(lines);
    locks_ = std::make_unique<SpinLock[]>(kLockShards);
}

bool
MemoryModeDevice::access(uint64_t line, bool is_write)
{
    using telemetry::AttrField;
    const CostParams &p = *params_;
    const uint64_t slot = line % tags_.size();
    bool hit;
    bool victim_dirty = false;
    uint8_t victim_owner = 0;
    {
        std::lock_guard<SpinLock> guard(locks_[slot % kLockShards]);
        Tag &tag = tags_[slot];
        hit = tag.valid && tag.line == line;
        if (!hit) {
            victim_dirty = tag.valid && tag.dirty;
            victim_owner = tag.owner;
            tag.line = line;
            tag.valid = true;
            tag.dirty = is_write;
            tag.owner = is_write ? ownerTag() : uint8_t{0};
        } else if (is_write) {
            tag.dirty = true;
            tag.owner = ownerTag();
        }
    }

    // DRAM access happens either way (the cache is inclusive).
    SimClock::charge(p.dramRandomLineNs);
    if (hit) {
        count(AttrField::BufferHits, 1);
        return true;
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

    if (victim_dirty) {
        countMediaWrite(victim_owner, kXPLineSize);
        const double write_contention = CostParams::contentionMult(
            declaredWriters(), p.pmemWriteFairThreads,
            p.pmemWriteContentionSlope);
        SimClock::chargeScaled(p.pmemMediaWriteNs, write_contention);
    }
    return false;
}

void
MemoryModeDevice::read(uint64_t off, void *dst, uint64_t size)
{
    std::memcpy(dst, readView(off, size), size);
}

const std::byte *
MemoryModeDevice::readView(uint64_t off, uint64_t size)
{
    checkRange(off, size);
    if (size == 0)
        return raw(off);
    count(telemetry::AttrField::AppBytesRead, size);
    const uint64_t first = xplineOf(off);
    const uint64_t last = xplineOf(off + size - 1);
    for (uint64_t line = first; line <= last; ++line)
        access(line, false);
    return raw(off);
}

void
MemoryModeDevice::write(uint64_t off, const void *src, uint64_t size)
{
    checkRange(off, size);
    if (size == 0)
        return;
    count(telemetry::AttrField::AppBytesWritten, size);
    const uint64_t first = xplineOf(off);
    const uint64_t last = xplineOf(off + size - 1);
    for (uint64_t line = first; line <= last; ++line)
        access(line, true);
    std::memcpy(raw(off), src, size);
}

double
MemoryModeDevice::hitRate() const
{
    // Every line access is a hit or a miss, and each miss is one media
    // read.
    const PcmCounters c = counters();
    const uint64_t acc = c.bufferHits + c.mediaReadOps;
    if (acc == 0)
        return 0.0;
    return static_cast<double>(c.bufferHits) / static_cast<double>(acc);
}

} // namespace xpg
