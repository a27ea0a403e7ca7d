/**
 * @file
 * NVMe SSD device model — the substrate of the paper's future-work
 * direction ("we will consider extending the SSD-supported XPGraph",
 * S V-F) and of the disk-based systems its related work compares against.
 *
 * Unlike PMEM's 256 B XPLines, an SSD moves data in 4 KiB blocks through
 * a block layer: every sub-block store is a block read-modify-write, and
 * latency is three orders of magnitude above DRAM. Running the unchanged
 * XPGraph engine on this device quantifies how much of the design's
 * benefit depends on byte-addressable persistence.
 */

#ifndef XPG_PMEM_SSD_DEVICE_HPP
#define XPG_PMEM_SSD_DEVICE_HPP

#include <string>

#include "pmem/cost_model.hpp"
#include "pmem/memory_device.hpp"
#include "pmem/xpbuffer.hpp"

namespace xpg {

/** SSD block size (bytes). */
constexpr uint64_t kSsdBlockSize = 4096;

/** SSD latency parameters (separate from CostParams: a different tier). */
struct SsdParams
{
    /** 4 KiB random read through the block layer + flash. */
    uint64_t readBlockNs = 28000;
    /** 4 KiB program (write-back of a dirty cached block). */
    uint64_t writeBlockNs = 16000;
    /** Hit in the host-side page cache. */
    uint64_t cacheHitNs = 250;
    /** Parallel requests the device sustains without queueing. */
    unsigned fairQueueDepth = 16;
    /** Extra cost fraction per accessor beyond the fair depth. */
    double queueSlope = 0.02;
};

/**
 * Block device with a host page cache (reusing the set-associative cache
 * model at block granularity). Volatile cache, persistent media — the
 * same structure as PmemDevice, three orders of magnitude slower and
 * sixteen times coarser.
 */
class SsdDevice : public MemoryDevice
{
  public:
    SsdDevice(std::string name, uint64_t capacity, int node = 0,
              unsigned num_nodes = 2, const std::string &backing_path = "",
              const SsdParams &params = SsdParams{},
              uint64_t cache_blocks = 1024);

    void persist(uint64_t off, uint64_t size) override;
    void quiesce() override;

  protected:
    void chargeLoad(uint64_t off, uint64_t size) override;
    void store(uint64_t off, const std::byte *src, uint64_t size) override;

  private:
    void chargeOutcome(const XPAccessOutcome &out, bool is_write);

    XPBuffer cache_; ///< page cache, block-granular tags
    SsdParams params_;
};

} // namespace xpg

#endif // XPG_PMEM_SSD_DEVICE_HPP
