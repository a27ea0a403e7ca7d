#include "pmem/dram_device.hpp"

#include <cstring>

#include "pmem/xpline.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

DramDevice::DramDevice(std::string name, uint64_t capacity, int node,
                       unsigned num_nodes, const CostParams *params)
    : MemoryDevice(std::move(name), capacity, node, num_nodes, ""),
      params_(params ? params : &globalCostParams())
{
}

void
DramDevice::chargeAccess(uint64_t size, bool is_write)
{
    const CostParams &p = *params_;
    const uint64_t lines =
        (size + kCacheLineSize - 1) / kCacheLineSize;
    const uint64_t base =
        p.dramRandomLineNs + (lines > 1 ? (lines - 1) * p.dramSeqLineNs : 0);
    const double remote = remoteFactor(p.dramRemoteMult);
    const unsigned accessors = is_write ? declaredWriters()
                                        : declaredReaders();
    const double contention = CostParams::contentionMult(
        accessors, p.dramFairThreads, p.dramContentionSlope);
    SimClock::chargeScaled(base, remote * contention);
}

void
DramDevice::chargeLoad(uint64_t, uint64_t size)
{
    chargeAccess(size, false);
}

void
DramDevice::store(uint64_t off, const std::byte *src, uint64_t size)
{
    chargeAccess(size, true);
    std::memcpy(raw(off), src, size);
}

void
chargeDramRandom(uint64_t bytes, const CostParams *params)
{
    const CostParams &p = params ? *params : globalCostParams();
    const uint64_t lines = (bytes + kCacheLineSize - 1) / kCacheLineSize;
    SimClock::charge(lines ? p.dramRandomLineNs +
                             (lines - 1) * p.dramSeqLineNs
                           : 0);
}

void
chargeDramSequential(uint64_t bytes, const CostParams *params)
{
    const CostParams &p = params ? *params : globalCostParams();
    const uint64_t lines = (bytes + kCacheLineSize - 1) / kCacheLineSize;
    SimClock::charge(lines * p.dramSeqLineNs);
}

void
chargeDramScattered(uint64_t touches, const CostParams *params)
{
    const CostParams &p = params ? *params : globalCostParams();
    SimClock::charge(touches * p.dramRandomLineNs);
}

} // namespace xpg
