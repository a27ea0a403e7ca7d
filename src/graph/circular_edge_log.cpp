#include "graph/circular_edge_log.hpp"

#include <algorithm>
#include <cstddef>
#include <mutex>

#include "pmem/xpline.hpp"
#include "telemetry/attribution.hpp"
#include "util/checksum.hpp"
#include "util/logging.hpp"

namespace xpg {

uint64_t
CircularEdgeLog::Header::computeChecksum() const
{
    return fnv1a64(this, offsetof(Header, checksum));
}

bool
CircularEdgeLog::Header::valid() const
{
    return magic == kMagic && capacityEdges > 0 &&
           checksum == computeChecksum() && flushedUpTo <= bufferedUpTo &&
           bufferedUpTo <= head;
}

uint64_t
CircularEdgeLog::regionBytes(uint64_t capacity_edges)
{
    // Two header copies (one XPLine each) followed by the slot array.
    return 2 * kXPLineSize + capacity_edges * sizeof(Edge);
}

CircularEdgeLog::CircularEdgeLog(MemoryDevice &dev, uint64_t region_off,
                                 uint64_t capacity_edges,
                                 bool battery_backed, bool durable)
    : dev_(&dev), regionOff_(region_off), capacityEdges_(capacity_edges),
      batteryBacked_(battery_backed), durable_(durable)
{
    XPG_ASSERT(capacity_edges > 0, "log capacity must be positive");
    XPG_ASSERT(region_off % kXPLineSize == 0,
               "log region must be XPLine-aligned");
    // Seed both copies so recovery never reads uninitialized memory as a
    // header candidate.
    persistHeader();
    persistHeader();
}

CircularEdgeLog::CircularEdgeLog(RecoverTag, MemoryDevice &dev,
                                 uint64_t region_off, bool battery_backed,
                                 const Header &h)
    : dev_(&dev), regionOff_(region_off), capacityEdges_(h.capacityEdges),
      batteryBacked_(battery_backed), durable_(true),
      generation_(h.generation)
{
    reservedHead_.store(h.head, std::memory_order_relaxed);
    publishedHead_.store(h.head, std::memory_order_relaxed);
    bufferedUpTo_.store(h.bufferedUpTo, std::memory_order_relaxed);
    flushedUpTo_.store(h.flushedUpTo, std::memory_order_relaxed);
}

CircularEdgeLog::CircularEdgeLog(CircularEdgeLog &&other) noexcept
    : dev_(other.dev_), regionOff_(other.regionOff_),
      capacityEdges_(other.capacityEdges_),
      batteryBacked_(other.batteryBacked_), durable_(other.durable_),
      generation_(other.generation_)
{
    reservedHead_.store(other.reservedHead_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    publishedHead_.store(
        other.publishedHead_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    bufferedUpTo_.store(other.bufferedUpTo_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    flushedUpTo_.store(other.flushedUpTo_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    externalFloor_.store(
        other.externalFloor_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
}

std::optional<CircularEdgeLog>
CircularEdgeLog::tryRecover(MemoryDevice &dev, uint64_t region_off,
                            bool battery_backed, std::string *error,
                            uint64_t *copies_rejected)
{
    // A crash can tear the header copy that was being written; the other
    // copy is then the last fully persisted one. Adopt the valid copy
    // with the highest generation.
    XPG_ATTR_SCOPE(attrScope, RecoveryReplay);
    const Header a = dev.readPod<Header>(region_off);
    const Header b = dev.readPod<Header>(region_off + kXPLineSize);
    const bool a_ok = a.valid();
    const bool b_ok = b.valid();
    if (copies_rejected)
        *copies_rejected += static_cast<uint64_t>(!a_ok) + !b_ok;
    if (!a_ok && !b_ok) {
        if (error)
            *error = "edge log header corrupt on '" + dev.name() +
                     "': no valid header copy (not a log region, or both "
                     "copies torn)";
        return std::nullopt;
    }
    const Header &h =
        (a_ok && (!b_ok || a.generation >= b.generation)) ? a : b;
    return CircularEdgeLog(RecoverTag{}, dev, region_off, battery_backed,
                           h);
}

uint64_t
CircularEdgeLog::slotOff(uint64_t pos) const
{
    return regionOff_ + 2 * kXPLineSize +
           (pos % capacityEdges_) * sizeof(Edge);
}

void
CircularEdgeLog::persistHeader()
{
    if (!durable_)
        return;
    std::lock_guard<SpinLock> guard(headerLock_);
    Header h{kMagic,
             capacityEdges_,
             publishedHead_.load(std::memory_order_acquire),
             bufferedUpTo_.load(std::memory_order_relaxed),
             flushedUpTo_.load(std::memory_order_relaxed),
             ++generation_,
             0};
    h.checksum = h.computeChecksum();
    const uint64_t off =
        regionOff_ + (h.generation & 1 ? kXPLineSize : 0);
    XPG_ATTR_SCOPE(attrScope, Superblock);
    dev_->writePod<Header>(off, h);
    dev_->persist(off, sizeof(Header));
}

void
CircularEdgeLog::persistSlots(uint64_t pos, uint64_t n)
{
    XPG_ATTR_SCOPE(attrScope, EdgeLogAppend);
    uint64_t done = 0;
    while (done < n) {
        const uint64_t p = pos + done;
        const uint64_t slot = p % capacityEdges_;
        const uint64_t run = std::min(n - done, capacityEdges_ - slot);
        dev_->persist(slotOff(p), run * sizeof(Edge));
        done += run;
    }
}

uint64_t
CircularEdgeLog::tryReserve(uint64_t n, uint64_t &pos)
{
    uint64_t cur = reservedHead_.load(std::memory_order_relaxed);
    for (;;) {
        // The reclaim bound only grows (the view registry guarantees the
        // external floor never decreases), so a stale read stays
        // conservative. Capping reservations at bound + capacity is also
        // what makes view windows safe to serve from the ring: a slot
        // holding a position at or above the floor is never reused.
        const uint64_t free = capacityEdges_ - (cur - reclaimBound());
        const uint64_t take = std::min(n, free);
        if (take == 0)
            return 0;
        if (reservedHead_.compare_exchange_weak(
                cur, cur + take, std::memory_order_relaxed,
                std::memory_order_relaxed)) {
            pos = cur;
            return take;
        }
    }
}

void
CircularEdgeLog::writeReserved(uint64_t pos, const Edge *edges, uint64_t n)
{
    XPG_ATTR_SCOPE(attrScope, EdgeLogAppend);
    uint64_t written = 0;
    while (written < n) {
        // Contiguous run up to the physical wrap point.
        const uint64_t p = pos + written;
        const uint64_t slot = p % capacityEdges_;
        const uint64_t run = std::min(n - written, capacityEdges_ - slot);
        dev_->write(slotOff(p), edges + written, run * sizeof(Edge));
        written += run;
    }
}

void
CircularEdgeLog::publish(uint64_t pos, uint64_t n)
{
    // Durability fence: the slots must be on the media before any header
    // that covers them can be persisted — once our CAS lands, a later
    // publisher may immediately persist a header with head >= pos + n.
    // Persisting before the CAS keeps the invariant "every persisted
    // header describes only durable slots" (prefix consistency).
    if (durable_)
        persistSlots(pos, n);
    // Ordered publish: the published head is a contiguous prefix, so a
    // reservation waits for every earlier one. Reservations are
    // short-lived (reserve -> write -> publish), so the spin is bounded.
    uint64_t expected = pos;
    while (!publishedHead_.compare_exchange_weak(
        expected, pos + n, std::memory_order_release,
        std::memory_order_relaxed)) {
        expected = pos;
    }
    persistHeader();
}

uint64_t
CircularEdgeLog::append(const Edge *edges, uint64_t n)
{
    uint64_t pos = 0;
    const uint64_t take = tryReserve(n, pos);
    if (take == 0)
        return 0;
    writeReserved(pos, edges, take);
    publish(pos, take);
    return take;
}

void
CircularEdgeLog::readRange(uint64_t from, uint64_t to,
                           std::vector<Edge> &out) const
{
    XPG_ASSERT(from <= to && to <= head(), "log read range invalid");
    XPG_ASSERT(to - from <= capacityEdges_, "log read range too wide");
    const size_t base = out.size();
    out.resize(base + (to - from));
    readRangeInto(from, to, out.data() + base);
}

void
CircularEdgeLog::readRangeInto(uint64_t from, uint64_t to,
                               Edge *out) const
{
    XPG_ASSERT(from <= to && to <= head(), "log read range invalid");
    XPG_ASSERT(to - from <= capacityEdges_, "log read range too wide");
    uint64_t read = 0;
    while (from + read < to) {
        const uint64_t pos = from + read;
        const uint64_t slot = pos % capacityEdges_;
        const uint64_t run =
            std::min(to - pos, capacityEdges_ - slot);
        dev_->read(slotOff(pos), out + read, run * sizeof(Edge));
        read += run;
    }
}

void
CircularEdgeLog::markBuffered(uint64_t up_to)
{
    XPG_ASSERT(up_to >= bufferedUpTo() && up_to <= head(),
               "markBuffered out of order");
    bufferedUpTo_.store(up_to, std::memory_order_release);
    persistHeader();
}

void
CircularEdgeLog::markFlushed(uint64_t up_to)
{
    XPG_ASSERT(up_to >= flushedUpTo() && up_to <= bufferedUpTo(),
               "markFlushed out of order");
    flushedUpTo_.store(up_to, std::memory_order_release);
    persistHeader();
}

void
CircularEdgeLog::truncateHead(uint64_t new_head)
{
    XPG_ASSERT(new_head >= bufferedUpTo() && new_head <= head(),
               "truncateHead out of range");
    publishedHead_.store(new_head, std::memory_order_release);
    reservedHead_.store(new_head, std::memory_order_release);
    persistHeader();
}

void
CircularEdgeLog::rewindBuffered(uint64_t up_to)
{
    XPG_ASSERT(up_to >= flushedUpTo() && up_to <= bufferedUpTo() &&
                   head() - up_to <= capacityEdges_,
               "rewindBuffered out of range");
    bufferedUpTo_.store(up_to, std::memory_order_release);
    persistHeader();
}

} // namespace xpg
