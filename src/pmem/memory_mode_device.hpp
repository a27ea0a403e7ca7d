/**
 * @file
 * Optane Memory Mode model (paper Fig.12 "MM"): DRAM acts as a
 * direct-mapped, XPLine-granular cache in front of the PMEM media. The
 * combined memory is volatile — exactly the configuration the paper uses
 * for the capacity-extension comparison of the volatile variants.
 */

#ifndef XPG_PMEM_MEMORY_MODE_DEVICE_HPP
#define XPG_PMEM_MEMORY_MODE_DEVICE_HPP

#include <string>

#include "pmem/cost_model.hpp"
#include "pmem/memory_device.hpp"
#include "pmem/xpbuffer.hpp"

namespace xpg {

/**
 * Memory-Mode device: every access first probes the DRAM cache, an
 * XPBuffer with one way per set; hits cost DRAM latency, misses add an
 * XPLine media read, and dirty conflict evictions add a media write. A
 * write miss always fetches the line before merging the store.
 */
class MemoryModeDevice : public MemoryDevice
{
  public:
    /**
     * @param dram_cache_bytes Size of the DRAM near-memory cache; its
     *        line count is rounded down to a power of two.
     */
    MemoryModeDevice(std::string name, uint64_t capacity,
                     uint64_t dram_cache_bytes, int node = 0,
                     unsigned num_nodes = 2,
                     const CostParams *params = nullptr);

  protected:
    void chargeLoad(uint64_t off, uint64_t size) override;
    void store(uint64_t off, const std::byte *src, uint64_t size) override;

  private:
    /** Charge one line's cache outcome of a load or a store. */
    void chargeOutcome(const XPAccessOutcome &out, bool is_write);

    XPBuffer cache_; ///< the DRAM cache, direct-mapped
    const CostParams *params_;
};

} // namespace xpg

#endif // XPG_PMEM_MEMORY_MODE_DEVICE_HPP
