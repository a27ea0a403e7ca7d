/**
 * @file
 * Optane Memory Mode model (paper Fig.12 "MM"): DRAM acts as a
 * direct-mapped, XPLine-granular cache in front of the PMEM media. The
 * combined memory is volatile — exactly the configuration the paper uses
 * for the capacity-extension comparison of the volatile variants.
 */

#ifndef XPG_PMEM_MEMORY_MODE_DEVICE_HPP
#define XPG_PMEM_MEMORY_MODE_DEVICE_HPP

#include <memory>
#include <string>
#include <vector>

#include "pmem/cost_model.hpp"
#include "pmem/memory_device.hpp"
#include "util/spinlock.hpp"

namespace xpg {

/**
 * Memory-Mode device: every access first probes the DRAM cache; hits cost
 * DRAM latency, misses add an XPLine media read, and dirty conflict
 * evictions add a media write. Tags are direct-mapped with sharded locks.
 */
class MemoryModeDevice : public MemoryDevice
{
  public:
    /**
     * @param dram_cache_bytes Size of the DRAM near-memory cache.
     */
    MemoryModeDevice(std::string name, uint64_t capacity,
                     uint64_t dram_cache_bytes, int node = 0,
                     unsigned num_nodes = 2,
                     const CostParams *params = nullptr);

    void read(uint64_t off, void *dst, uint64_t size) override;
    const std::byte *readView(uint64_t off, uint64_t size) override;
    void write(uint64_t off, const void *src, uint64_t size) override;

    /** Fraction of line accesses served from the DRAM cache. */
    double hitRate() const;

  private:
    static constexpr unsigned kLockShards = 64;

    /** Probe/refill one line; charges costs; returns true on DRAM hit. */
    bool access(uint64_t line, bool is_write);

    struct Tag
    {
        uint64_t line = ~0ull;
        bool valid = false;
        bool dirty = false;
        uint8_t owner = 0; ///< attribution tag of the last dirtying store
    };

    std::vector<Tag> tags_;
    std::unique_ptr<SpinLock[]> locks_;
    const CostParams *params_;
};

} // namespace xpg

#endif // XPG_PMEM_MEMORY_MODE_DEVICE_HPP
