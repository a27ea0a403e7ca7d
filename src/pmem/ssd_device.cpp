#include "pmem/ssd_device.hpp"

#include <cstring>

#include "util/sim_clock.hpp"

namespace xpg {

namespace {

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
      cache_(cacheConfig(cache_blocks), nullptr,
             alignUp(capacity, kSsdBlockSize) / kSsdBlockSize),
      params_(params)
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
SsdDevice::chargeLoad(uint64_t off, uint64_t size)
{
    forEachLine(off, size, kSsdBlockSize, [&](uint64_t block, auto...) {
        chargeOutcome(cache_.load(block), false);
    });
}

void
SsdDevice::store(uint64_t off, const std::byte *src, uint64_t size)
{
    forEachLine(off, size, kSsdBlockSize,
                [&](uint64_t block, bool starts_at_base, auto...) {
                    if (!starts_at_base)
                        count(telemetry::AttrField::SubLineStores, 1);
                    chargeOutcome(
                        cache_.store(block, starts_at_base, ownerTag()),
                        true);
                });
    std::memcpy(raw(off), src, size);
}

void
SsdDevice::persist(uint64_t off, uint64_t size)
{
    if (size == 0)
        return;
    checkRange(off, size);
    forEachLine(off, size, kSsdBlockSize, [&](uint64_t block, auto...) {
        uint8_t owner = ownerTag();
        if (cache_.flushLine(block, &owner)) {
            countMediaWrite(owner, kSsdBlockSize);
            SimClock::charge(params_.writeBlockNs);
        }
    });
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
