#include "pmem/ssd_device.hpp"

#include <cstring>

#include "util/sim_clock.hpp"

namespace xpg {

namespace {

constexpr uint64_t
blockOf(uint64_t off)
{
    return off / kSsdBlockSize;
}

XPBufferConfig
cacheConfig(uint64_t cache_blocks)
{
    XPBufferConfig c;
    c.ways = 16;
    c.numSets = 1;
    while (c.numSets * c.ways < cache_blocks)
        c.numSets *= 2;
    return c;
}

} // namespace

SsdDevice::SsdDevice(std::string name, uint64_t capacity, int node,
                     unsigned num_nodes, const std::string &backing_path,
                     const SsdParams &params, uint64_t cache_blocks)
    : MemoryDevice(std::move(name), capacity, node, num_nodes,
                   backing_path),
      cache_(cacheConfig(cache_blocks)), params_(params)
{
}

void
SsdDevice::chargeOutcome(const XPAccessOutcome &out, bool is_write)
{
    using telemetry::AttrField;
    if (out.hit) {
        count(AttrField::BufferHits, 1);
        SimClock::charge(params_.cacheHitNs);
        return;
    }
    SimClock::charge(params_.cacheHitNs);
    const unsigned accessors =
        is_write ? declaredWriters() : declaredReaders();
    const double queue = CostParams::contentionMult(
        accessors, params_.fairQueueDepth, params_.queueSlope);
    if (out.rmwRead) {
        countMediaRead(kSsdBlockSize);
        if (is_write)
            count(AttrField::RmwReads, 1);
        SimClock::chargeScaled(params_.readBlockNs, queue);
    }
    if (out.evictWrite) {
        countMediaWrite(out.evictedOwner, kSsdBlockSize);
        SimClock::chargeScaled(params_.writeBlockNs, queue);
    }
}

void
SsdDevice::read(uint64_t off, void *dst, uint64_t size)
{
    std::memcpy(dst, readView(off, size), size);
}

const std::byte *
SsdDevice::readView(uint64_t off, uint64_t size)
{
    checkRange(off, size);
    if (size == 0)
        return raw(off);
    count(telemetry::AttrField::AppBytesRead, size);
    const uint64_t first = blockOf(off);
    const uint64_t last = blockOf(off + size - 1);
    for (uint64_t block = first; block <= last; ++block)
        chargeOutcome(cache_.load(block), false);
    return raw(off);
}

void
SsdDevice::write(uint64_t off, const void *src, uint64_t size)
{
    checkRange(off, size);
    if (size == 0)
        return;
    count(telemetry::AttrField::AppBytesWritten, size);
    const uint64_t first = blockOf(off);
    const uint64_t last = blockOf(off + size - 1);
    uint64_t cursor = off;
    for (uint64_t block = first; block <= last; ++block) {
        const bool starts_at_base = cursor == block * kSsdBlockSize;
        if (!starts_at_base)
            count(telemetry::AttrField::SubLineStores, 1);
        chargeOutcome(cache_.store(block, starts_at_base, ownerTag()), true);
        cursor = (block + 1) * kSsdBlockSize;
    }
    std::memcpy(raw(off), src, size);
}

void
SsdDevice::persist(uint64_t off, uint64_t size)
{
    if (size == 0)
        return;
    checkRange(off, size);
    const uint64_t first = blockOf(off);
    const uint64_t last = blockOf(off + size - 1);
    for (uint64_t block = first; block <= last; ++block) {
        uint8_t owner = ownerTag();
        if (cache_.flushLine(block, &owner)) {
            countMediaWrite(owner, kSsdBlockSize);
            SimClock::charge(params_.writeBlockNs);
        }
    }
}

void
SsdDevice::quiesce()
{
    std::vector<uint8_t> drained_owners;
    cache_.drainDirty(nullptr, &drained_owners);
    for (const uint8_t owner : drained_owners)
        countMediaWrite(owner, kSsdBlockSize);
}

} // namespace xpg
