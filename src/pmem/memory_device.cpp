#include "pmem/memory_device.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#include "pmem/dram_device.hpp"
#include "pmem/memory_mode_device.hpp"
#include "pmem/numa_topology.hpp"
#include "pmem/pmem_device.hpp"
#include "pmem/ssd_device.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace xpg {

DeviceBacking::DeviceBacking(uint64_t capacity, const std::string &path)
    : capacity_(capacity), path_(path)
{
    XPG_ASSERT(capacity > 0, "device capacity must be positive");
    void *mem = MAP_FAILED;
    if (path_.empty()) {
        mem = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        // Best-effort hint: huge pages cut the first-touch faults of a
        // fresh image and widen the TLB's reach over it. Nothing
        // depends on it being honoured (DESIGN.md §5).
        if (mem != MAP_FAILED)
            ::madvise(mem, capacity_, MADV_HUGEPAGE);
    } else {
        fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
        if (fd_ < 0)
            XPG_FATAL("cannot open backing file " + path_);
        if (::ftruncate(fd_, static_cast<off_t>(capacity_)) != 0)
            XPG_FATAL("cannot size backing file " + path_);
        mem = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd_, 0);
    }
    if (mem == MAP_FAILED)
        XPG_FATAL("mmap of device backing failed (" + path_ + ")");
    data_ = static_cast<std::byte *>(mem);
}

DeviceBacking::~DeviceBacking()
{
    if (data_)
        ::munmap(data_, capacity_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
DeviceBacking::sync()
{
    if (data_ && fd_ >= 0)
        ::msync(data_, capacity_, MS_SYNC);
}

MemoryDevice::MemoryDevice(std::string name, uint64_t capacity, int node,
                           unsigned num_nodes,
                           const std::string &backing_path)
    : name_(std::move(name)), node_(node),
      numNodes_(num_nodes ? num_nodes : 1),
      backing_(capacity, backing_path)
{
}

const std::byte *
MemoryDevice::readView(uint64_t off, uint64_t size)
{
    checkRange(off, size);
    if (size != 0) {
        count(telemetry::AttrField::AppBytesRead, size);
        chargeLoad(off, size);
    }
    return raw(off);
}

void
MemoryDevice::read(uint64_t off, void *dst, uint64_t size)
{
    const std::byte *src = readView(off, size);
    if (size != 0)
        std::memcpy(dst, src, size);
}

void
MemoryDevice::write(uint64_t off, const void *src, uint64_t size)
{
    checkRange(off, size);
    if (size == 0)
        return;
    count(telemetry::AttrField::AppBytesWritten, size);
    store(off, static_cast<const std::byte *>(src), size);
}

void
MemoryDevice::checkRange(uint64_t off, uint64_t size) const
{
    if (off + size > backing_.capacity() || off + size < off) {
        XPG_PANIC("device '" + name_ + "' access out of range: off=" +
                  std::to_string(off) + " size=" + std::to_string(size) +
                  " capacity=" + std::to_string(backing_.capacity()));
    }
}

double
MemoryDevice::remoteFactor(double remote_mult)
{
    const int bound = NumaBinding::currentNode();
    if (bound == node_)
        return 1.0;
    if (bound != kUnboundNode) {
        count(telemetry::AttrField::RemoteAccesses, 1);
        return remote_mult;
    }
    if (numNodes_ <= 1)
        return 1.0;
    // An unbound thread floats across sockets; on average (P-1)/P of its
    // accesses to this device land remote.
    const double remote_frac =
        static_cast<double>(numNodes_ - 1) / static_cast<double>(numNodes_);
    count(telemetry::AttrField::RemoteAccesses, 1);
    return 1.0 + remote_frac * (remote_mult - 1.0);
}

void
MemoryDevice::publishTelemetry(const char *store, int node_label) const
{
    auto &tel = telemetry::Telemetry::instance().metrics();
    const telemetry::Labels labels{.store = store, .node = node_label};
    const PcmCounters c = counters();
    tel.gauge("pmem.app_bytes_read", labels).set(c.appBytesRead);
    tel.gauge("pmem.app_bytes_written", labels).set(c.appBytesWritten);
    tel.gauge("pmem.media_bytes_read", labels).set(c.mediaBytesRead);
    tel.gauge("pmem.media_bytes_written", labels).set(c.mediaBytesWritten);
    tel.gauge("pmem.media_read_ops", labels).set(c.mediaReadOps);
    tel.gauge("pmem.media_write_ops", labels).set(c.mediaWriteOps);
    tel.gauge("pmem.buffer_hits", labels).set(c.bufferHits);
    tel.gauge("pmem.remote_accesses", labels).set(c.remoteAccesses);

    // Per-category attribution gauges, named attr.<category>.<field>
    // with the same {store, node} labels; empty categories are skipped
    // so the registry only grows for activity that happened.
    const telemetry::AttributionSnapshot a = attribution();
    for (const telemetry::AccessCategory cat :
         telemetry::allAccessCategories()) {
        const telemetry::AttributionRow &row = a[cat];
        if (row.empty())
            continue;
        const std::string prefix =
            std::string("attr.") + telemetry::accessCategoryName(cat) + ".";
        tel.gauge(prefix + "app_bytes_read", labels)
            .set(row.pcm.appBytesRead);
        tel.gauge(prefix + "app_bytes_written", labels)
            .set(row.pcm.appBytesWritten);
        tel.gauge(prefix + "media_bytes_read", labels)
            .set(row.pcm.mediaBytesRead);
        tel.gauge(prefix + "media_bytes_written", labels)
            .set(row.pcm.mediaBytesWritten);
        tel.gauge(prefix + "rmw_reads", labels).set(row.rmwReads);
        tel.gauge(prefix + "sub_line_stores", labels)
            .set(row.subLineStores);
    }
}

std::unique_ptr<MemoryDevice>
makeDevice(MemKind kind, std::string name, uint64_t capacity, int node,
           unsigned num_nodes, const std::string &path,
           uint64_t cache_bytes)
{
    switch (kind) {
      case MemKind::Pmem:
        return std::make_unique<PmemDevice>(std::move(name), capacity,
                                            node, num_nodes, path);
      case MemKind::Dram:
        return std::make_unique<DramDevice>(std::move(name), capacity,
                                            node, num_nodes);
      case MemKind::MemoryMode:
        return std::make_unique<MemoryModeDevice>(
            std::move(name), capacity, cache_bytes, node, num_nodes);
      case MemKind::Ssd:
        return std::make_unique<SsdDevice>(
            std::move(name), capacity, node, num_nodes, path, SsdParams{},
            cache_bytes / kSsdBlockSize);
    }
    XPG_PANIC("unreachable mem kind");
}

} // namespace xpg
