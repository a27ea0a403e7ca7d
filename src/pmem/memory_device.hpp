/**
 * @file
 * Abstract modeled memory device, its mmap-based backing store, and the
 * factory that builds every device kind.
 *
 * Every byte an engine keeps "in PMEM" (or in modeled DRAM for the volatile
 * variants) lives behind a MemoryDevice and is accessed exclusively through
 * read()/readView()/write()/persist(). That discipline is what makes the
 * traffic counters and simulated-time charges complete by construction
 * (DESIGN.md S5).
 */

#ifndef XPG_PMEM_MEMORY_DEVICE_HPP
#define XPG_PMEM_MEMORY_DEVICE_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "pmem/fault_plan.hpp"
#include "pmem/pcm_counters.hpp"
#include "telemetry/attribution.hpp"

namespace xpg {

/** What device model backs a store's data. */
enum class MemKind
{
    Pmem,       ///< App-Direct PMEM model (persistent)
    Dram,       ///< DRAM model (volatile; XPGraph-D / GraphOne-D)
    MemoryMode, ///< Optane Memory Mode model (volatile, Fig.12 "MM")
    Ssd,        ///< NVMe SSD model (persistent; the paper's future-work
                ///  "SSD-supported XPGraph" substrate)
};

/**
 * Owns the address space of a device: an anonymous mapping (advised to
 * use huge pages), or a shared file mapping when a path is given (used by
 * crash/recovery experiments — the file survives while all DRAM state is
 * discarded).
 */
class DeviceBacking
{
  public:
    /**
     * @param capacity Size of the address space in bytes.
     * @param path Backing file path; empty means anonymous (volatile).
     */
    DeviceBacking(uint64_t capacity, const std::string &path);
    ~DeviceBacking();

    DeviceBacking(const DeviceBacking &) = delete;
    DeviceBacking &operator=(const DeviceBacking &) = delete;

    std::byte *data() { return data_; }
    const std::byte *data() const { return data_; }
    uint64_t capacity() const { return capacity_; }

    /** msync the mapping (used before a simulated crash). */
    void sync();

  private:
    uint64_t capacity_;
    std::string path_;
    std::byte *data_ = nullptr;
    int fd_ = -1;
};

/**
 * Base class of all modeled devices. read(), readView() and write() are
 * the one access path of every kind: they range-check, return on zero
 * bytes, count the app bytes and copy. For them a device kind supplies
 * only the cost of a load (chargeLoad) and of a store (store, which also
 * lands the bytes), walking the lines it models with forEachLine.
 */
class MemoryDevice
{
  public:
    /**
     * @param name Device name for diagnostics.
     * @param capacity Address-space size in bytes.
     * @param node NUMA node this device belongs to.
     * @param num_nodes Total node count of the modeled topology.
     * @param backing_path Optional backing file (persistence).
     */
    MemoryDevice(std::string name, uint64_t capacity, int node,
                 unsigned num_nodes, const std::string &backing_path);
    virtual ~MemoryDevice() = default;

    MemoryDevice(const MemoryDevice &) = delete;
    MemoryDevice &operator=(const MemoryDevice &) = delete;

    /** Copy @p size bytes at @p off into @p dst, charging modeled cost. */
    void read(uint64_t off, void *dst, uint64_t size);

    /**
     * Zero-copy read: charge exactly like read() but return a pointer to
     * the range instead of copying it out. The pointer stays valid until
     * the next write to the range (queries never run concurrently with
     * updates).
     */
    const std::byte *readView(uint64_t off, uint64_t size);

    /** Copy @p size bytes from @p src to @p off, charging modeled cost. */
    void write(uint64_t off, const void *src, uint64_t size);

    /** clwb-style explicit write-back of the range (default: no-op). */
    virtual void persist(uint64_t off, uint64_t size) {}

    /**
     * Drain internal write buffers in the background (between workload
     * phases): media traffic is counted but no simulated time is charged
     * to the caller. Default: no-op.
     */
    virtual void quiesce() {}

    /**
     * Arm deterministic fault injection (crash after Nth media write).
     * Several devices may share one injector to model machine-wide power
     * loss. Default: unsupported (volatile devices have nothing to lose).
     * @return true when the device supports fault injection.
     */
    virtual bool
    armFaults(std::shared_ptr<FaultInjector> /*injector*/)
    {
        return false;
    }

    /**
     * Simulated power cycle: revert every byte that never reached durable
     * media to its last durable image and drop all internal buffers.
     * Default: no-op (volatile devices are not recovered from).
     */
    virtual void powerCycle() {}

    /** Typed helpers for fixed-layout metadata. */
    template <typename T>
    T
    readPod(uint64_t off)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        read(off, &value, sizeof(T));
        return value;
    }

    template <typename T>
    void
    writePod(uint64_t off, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(off, &value, sizeof(T));
    }

    const std::string &name() const { return name_; }
    uint64_t capacity() const { return backing_.capacity(); }
    int node() const { return node_; }
    unsigned numNodes() const { return numNodes_; }

    /** Declare how many threads will concurrently store to this device. */
    void
    setDeclaredWriters(unsigned n)
    {
        declaredWriters_.store(n ? n : 1, std::memory_order_relaxed);
    }

    /** Declare how many threads will concurrently load from this device. */
    void
    setDeclaredReaders(unsigned n)
    {
        declaredReaders_.store(n ? n : 1, std::memory_order_relaxed);
    }

    /** Snapshot of cumulative traffic counters. */
    PcmCounters counters() const { return attr_.total(); }

    /**
     * Per-category attribution of those same counters: a subclass counts
     * each increment in the row of the calling thread's AccessScope
     * category, and counters() is the rows summed, so they reproduce it
     * exactly.
     */
    telemetry::AttributionSnapshot attribution() const
    {
        return attr_.snapshot();
    }

    /**
     * Publish counters() into the telemetry registry as per-node
     * gauges labeled {store, node}. Engines call this from their
     * publishTelemetry() hook.
     */
    void publishTelemetry(const char *store, int node_label) const;

    /** msync the backing (before a simulated crash). */
    void syncBacking() { backing_.sync(); }

  protected:
    /** Charge a load of the in-range, non-empty [@p off, +@p size). */
    virtual void chargeLoad(uint64_t off, uint64_t size) = 0;

    /** Charge a store of the in-range, non-empty [@p off, +@p size) and
     *  land @p src's bytes there. */
    virtual void store(uint64_t off, const std::byte *src,
                       uint64_t size) = 0;

    /**
     * The one line walk: call @p fn(line, starts_at_base, at, chunk) for
     * each @p granule-sized line the non-empty [@p off, +@p size)
     * touches, in address order. @p at is the range's first byte in the
     * line and @p chunk its byte count there; starts_at_base is true when
     * @p at is the line's base (every line but possibly the first).
     */
    template <typename Fn>
    static void
    forEachLine(uint64_t off, uint64_t size, uint64_t granule, Fn &&fn)
    {
        const uint64_t end = off + size;
        for (uint64_t at = off; at < end;) {
            const uint64_t line = at / granule;
            const uint64_t chunk = std::min(end, (line + 1) * granule) - at;
            fn(line, at == line * granule, at, chunk);
            at += chunk;
        }
    }

    /** Raw pointer into the backing (subclass memcpy only). */
    std::byte *raw(uint64_t off) { return backing_.data() + off; }

    /** Bounds-check an access. */
    void checkRange(uint64_t off, uint64_t size) const;

    /**
     * Multiplier >= 1 expressing how remote the calling thread is:
     * 1.0 for a local-bound thread, the full remote multiplier for a
     * remote-bound thread, and the topology-average for unbound threads.
     * Bumps the remote counter when > 1.
     */
    double remoteFactor(double remote_mult);

    unsigned
    declaredWriters() const
    {
        return declaredWriters_.load(std::memory_order_relaxed);
    }

    unsigned
    declaredReaders() const
    {
        return declaredReaders_.load(std::memory_order_relaxed);
    }

    /** Count @p n into field @p f of the calling scope's category. */
    void
    count(telemetry::AttrField f, uint64_t n)
    {
        attr_.add(telemetry::AccessScope::current(), f, n);
    }

    /** Count into an explicit category (eviction blame). */
    void
    countFor(telemetry::AccessCategory c, telemetry::AttrField f,
             uint64_t n)
    {
        attr_.add(c, f, n);
    }

    /** One media fetch of @p bytes, by the calling scope. */
    void
    countMediaRead(uint64_t bytes)
    {
        count(telemetry::AttrField::MediaReadOps, 1);
        count(telemetry::AttrField::MediaBytesRead, bytes);
    }

    /** One media write-back of @p bytes, blamed on the line's owner. */
    void
    countMediaWrite(uint8_t owner, uint64_t bytes)
    {
        countFor(ownerCategory(owner), telemetry::AttrField::MediaWriteOps,
                 1);
        countFor(ownerCategory(owner),
                 telemetry::AttrField::MediaBytesWritten, bytes);
    }

    /** The calling scope's category as an XPBuffer owner tag. */
    static uint8_t
    ownerTag()
    {
        return static_cast<uint8_t>(telemetry::AccessScope::current());
    }

    /** Owner tag back to a category (bad tags fall back to Other). */
    static telemetry::AccessCategory
    ownerCategory(uint8_t tag)
    {
        return tag < telemetry::kAccessCategoryCount
                   ? static_cast<telemetry::AccessCategory>(tag)
                   : telemetry::AccessCategory::Other;
    }

  private:
    /// The device's traffic counters, per category (attribution layer);
    /// counters() sums its rows.
    telemetry::AttributionTable attr_;
    std::string name_;
    int node_;
    unsigned numNodes_;
    std::atomic<unsigned> declaredWriters_{1};
    std::atomic<unsigned> declaredReaders_{1};
    DeviceBacking backing_;
};

/**
 * Build a device of kind @p kind: the one place a store gets its devices.
 * @param name Device name for diagnostics.
 * @param capacity Address-space size in bytes.
 * @param node NUMA node the device belongs to.
 * @param num_nodes Total node count of the modeled topology.
 * @param path Backing file of a persistent kind (Pmem, Ssd); empty means
 *        volatile. The volatile kinds ignore it.
 * @param cache_bytes Cache in front of the media: Memory Mode's DRAM
 *        cache, or the SSD's page cache (4 KiB blocks). Pmem and Dram
 *        ignore it.
 */
std::unique_ptr<MemoryDevice> makeDevice(MemKind kind, std::string name,
                                         uint64_t capacity, int node,
                                         unsigned num_nodes,
                                         const std::string &path = "",
                                         uint64_t cache_bytes = 0);

} // namespace xpg

#endif // XPG_PMEM_MEMORY_DEVICE_HPP
