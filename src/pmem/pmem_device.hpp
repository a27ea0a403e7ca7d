/**
 * @file
 * The modeled Optane PMEM device (App-Direct mode): XPBuffer in front of
 * 256 B-granular media, with remote-NUMA and store-concurrency penalties.
 */

#ifndef XPG_PMEM_PMEM_DEVICE_HPP
#define XPG_PMEM_PMEM_DEVICE_HPP

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>

#include "pmem/cost_model.hpp"
#include "pmem/fault_plan.hpp"
#include "pmem/memory_device.hpp"
#include "pmem/xpbuffer.hpp"
#include "pmem/xpline.hpp"
#include "telemetry/telemetry.hpp"
#include "util/spinlock.hpp"

namespace xpg {

/**
 * App-Direct PMEM device model.
 *
 * The base class's access path hands each load and store to chargeLoad()
 * and store(), which walk the XPLines with forEachLine (the one place
 * that decides whether a store starts at a line base) and charge each
 * line's XPBuffer outcome in chargeOutcome():
 *  - buffer hit: pmemBufferHitNs
 *  - load miss: a media read at pmemMediaReadNs x remote x read-contention
 *  - store miss off the line base (RMW): a media read at pmemMediaReadNs
 *    x remote
 *  - dirty eviction: pmemMediaWriteNs (or the sequential rate for
 *    stream-allocated lines) x remote, and x write-contention when a
 *    store evicts
 *  - persist(): explicit clwb write-back at the sequential rate
 * A store copies each line's bytes before the next line's store can
 * evict that line, so a write-back always carries the line's final
 * content.
 */
class PmemDevice : public MemoryDevice
{
  public:
    /**
     * @param name Diagnostic name.
     * @param capacity Address-space bytes.
     * @param node Owning NUMA node.
     * @param num_nodes Modeled topology width.
     * @param backing_path Optional file backing for persistence tests.
     * @param buffer_config XPBuffer geometry.
     * @param params Cost parameters; defaults to the process-wide set.
     */
    PmemDevice(std::string name, uint64_t capacity, int node = 0,
               unsigned num_nodes = 2, const std::string &backing_path = "",
               const XPBufferConfig &buffer_config = XPBufferConfig{},
               const CostParams *params = nullptr);

    void persist(uint64_t off, uint64_t size) override;
    void quiesce() override;

    /**
     * Power-cycle model: every line whose latest content never reached
     * the media is reverted to its last durable image — the XPBuffer's
     * dirty lines to their entries' images, then the lines whose
     * write-backs an armed fault plan lost — the XPBuffer is dropped and
     * any armed fault plan is disarmed. After this the backing holds
     * exactly what a real crash would have preserved.
     */
    void powerCycle() override;

    /** Arm counter-driven crash injection (see FaultPlan). */
    bool armFaults(std::shared_ptr<FaultInjector> injector) override;

    /** Bounded per-XPLine heat map. */
    const telemetry::LineHeatTable &heat() const { return heat_; }

  protected:
    void chargeLoad(uint64_t off, uint64_t size) override;
    void store(uint64_t off, const std::byte *src, uint64_t size) override;

  private:
    /** Lazily-resolved per-node telemetry histograms: modeled ns of
     *  each XPLine media write-back / fetch, the per-operation view
     *  under the phase aggregates. */
    void initTelemetryHandles();

    /** Charge one line's XPBuffer outcome of a load or a store. */
    void chargeOutcome(const XPAccessOutcome &out, bool is_write);
    /** True while a fault plan is armed: write-backs then report their
     *  images to noteMediaWrite(). */
    bool
    faultsArmed() const
    {
        return faultsArmed_.load(std::memory_order_relaxed);
    }
    /** Line @p line was written back from media image @p image (armed
     *  fault plan only): decide whether the write lands. */
    void noteMediaWrite(uint64_t line, const XPLineImage &image);
    void applyTornWrite(uint64_t line, XPLineImage &old_image);

    XPBuffer buffer_;
    const CostParams *params_;
    /** Guards faults_ and lost_. */
    mutable SpinLock faultsLock_;
    std::shared_ptr<FaultInjector> faults_;
    std::atomic<bool> faultsArmed_{false};
    /**
     * Media image of every line whose write-back never landed (after the
     * crash tripped, or a dropped or torn triggering write); the first
     * image of a line wins. powerCycle() restores these after the
     * XPBuffer's dirty images.
     */
    std::unordered_map<uint64_t, XPLineImage> lost_;
    telemetry::LineHeatTable heat_;

    telemetry::ShardedHistogram *telWritebackHist_ = nullptr;
    telemetry::ShardedHistogram *telMediaReadHist_ = nullptr;
};

} // namespace xpg

#endif // XPG_PMEM_PMEM_DEVICE_HPP
