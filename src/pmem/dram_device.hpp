/**
 * @file
 * Modeled DRAM device (used by the volatile variants GraphOne-D and
 * XPGraph-D) plus free helpers for charging DRAM-side costs of engine
 * data structures that are not behind a device (vertex buffers, temporary
 * edge shards).
 */

#ifndef XPG_PMEM_DRAM_DEVICE_HPP
#define XPG_PMEM_DRAM_DEVICE_HPP

#include <string>

#include "pmem/cost_model.hpp"
#include "pmem/memory_device.hpp"

namespace xpg {

/**
 * DRAM device model: no media amplification, one random cache-line cost
 * for the first line of an access and the (much cheaper) sequential rate
 * for subsequent lines; mild bandwidth contention; smaller NUMA penalty.
 */
class DramDevice : public MemoryDevice
{
  public:
    DramDevice(std::string name, uint64_t capacity, int node = 0,
               unsigned num_nodes = 2,
               const CostParams *params = nullptr);

  protected:
    void chargeLoad(uint64_t off, uint64_t size) override;
    void store(uint64_t off, const std::byte *src, uint64_t size) override;

  private:
    void chargeAccess(uint64_t size, bool is_write);

    const CostParams *params_;
};

/** Charge the cost of touching @p bytes of DRAM with poor locality. */
void chargeDramRandom(uint64_t bytes, const CostParams *params = nullptr);

/** Charge the cost of streaming @p bytes through DRAM sequentially. */
void chargeDramSequential(uint64_t bytes, const CostParams *params = nullptr);

/** Charge @p touches independent (cache-missing) DRAM line accesses. */
void chargeDramScattered(uint64_t touches, const CostParams *params = nullptr);

} // namespace xpg

#endif // XPG_PMEM_DRAM_DEVICE_HPP
