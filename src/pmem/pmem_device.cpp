#include "pmem/pmem_device.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <vector>

#include "pmem/xpline.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

PmemDevice::PmemDevice(std::string name, uint64_t capacity, int node,
                       unsigned num_nodes, const std::string &backing_path,
                       const XPBufferConfig &buffer_config,
                       const CostParams *params)
    : MemoryDevice(std::move(name), capacity, node, num_nodes, backing_path),
      buffer_(buffer_config, raw(0)),
      params_(params ? params : &globalCostParams())
{
    initTelemetryHandles();
}

void
PmemDevice::initTelemetryHandles()
{
    telWritebackHist_ = XPG_TEL_HISTOGRAM(
        "pmem.xpline_writeback_ns",
        (telemetry::Labels{.node = node()}));
    telMediaReadHist_ = XPG_TEL_HISTOGRAM(
        "pmem.xpline_read_ns", (telemetry::Labels{.node = node()}));
}

void
PmemDevice::chargeStoreOutcome(const XPAccessOutcome &out)
{
    using telemetry::AttrField;
    const CostParams &p = *params_;
    if (out.hit) {
        count(AttrField::BufferHits, 1);
        SimClock::charge(p.pmemBufferHitNs);
        return;
    }
    SimClock::charge(p.pmemBufferHitNs);
    const double remote = remoteFactor(p.pmemRemoteWriteMult);
    if (out.rmwRead) {
        // The sub-line-store detector: this media read exists only
        // because a store began off the line base, so the full line of
        // read amplification is blamed on the storing category.
        countMediaRead(kXPLineSize);
        count(AttrField::RmwReads, 1);
        const uint64_t readNs = CostParams::scaledNs(p.pmemMediaReadNs,
                                                     remote);
        SimClock::charge(readNs);
        XPG_TEL_RECORD(telMediaReadHist_, readNs);
    }
    if (out.evictWrite) {
        countMediaWrite(out.evictedOwner, kXPLineSize);
        const uint64_t base =
            out.evictSeq ? p.pmemMediaWriteSeqNs : p.pmemMediaWriteNs;
        const double slope = out.evictSeq ? p.pmemSeqWriteContentionSlope
                                          : p.pmemWriteContentionSlope;
        const double contention = CostParams::contentionMult(
            declaredWriters(), p.pmemWriteFairThreads, slope);
        const uint64_t writeNs =
            CostParams::scaledNs(base, remote * contention);
        SimClock::charge(writeNs);
        XPG_TEL_RECORD(telWritebackHist_, writeNs);
    }
}

void
PmemDevice::chargeLoadOutcome(const XPAccessOutcome &out)
{
    using telemetry::AttrField;
    const CostParams &p = *params_;
    if (out.hit) {
        count(AttrField::BufferHits, 1);
        SimClock::charge(p.pmemBufferHitNs);
        return;
    }
    SimClock::charge(p.pmemBufferHitNs);
    const double remote = remoteFactor(p.pmemRemoteReadMult);
    if (out.rmwRead) {
        // A load miss, not an RMW: media read bytes land in the loading
        // category but rmwReads stays untouched.
        countMediaRead(kXPLineSize);
        const double contention = CostParams::contentionMult(
            declaredReaders(), p.pmemReadFairThreads,
            p.pmemReadContentionSlope);
        const uint64_t readNs =
            CostParams::scaledNs(p.pmemMediaReadNs, remote * contention);
        SimClock::charge(readNs);
        XPG_TEL_RECORD(telMediaReadHist_, readNs);
    }
    if (out.evictWrite) {
        countMediaWrite(out.evictedOwner, kXPLineSize);
        const uint64_t base =
            out.evictSeq ? p.pmemMediaWriteSeqNs : p.pmemMediaWriteNs;
        const uint64_t writeNs = CostParams::scaledNs(base, remote);
        SimClock::charge(writeNs);
        XPG_TEL_RECORD(telWritebackHist_, writeNs);
    }
}

void
PmemDevice::applyTornWrite(uint64_t line, XPLineImage &old_image)
{
    // The media write tears: only an 8-byte-aligned prefix or suffix of
    // the line's new content lands; the rest keeps the old durable bytes.
    // 8-byte units never tear, modeling PMEM's 8 B failure atomicity.
    const FaultPlan &plan = faults_->plan();
    uint64_t keep = std::min<uint64_t>(plan.tornBytes & ~uint64_t{7},
                                       kXPLineSize);
    const std::byte *cur = raw(line * kXPLineSize);
    if (plan.torn == FaultPlan::TornMode::Prefix)
        std::memcpy(old_image.data(), cur, keep);
    else
        std::memcpy(old_image.data() + (kXPLineSize - keep),
                    cur + (kXPLineSize - keep), keep);
}

void
PmemDevice::noteMediaWrite(uint64_t line, const XPLineImage &image)
{
    std::lock_guard<SpinLock> guard(faultsLock_);
    if (!faults_)
        return;
    const bool trigger = faults_->onMediaWrite();
    const FaultPlan::TornMode torn =
        trigger ? faults_->plan().torn : FaultPlan::TornMode::None;
    // Before the crash every write lands, and so does a whole
    // triggering write: the line's bytes are now its durable content.
    if (trigger ? torn == FaultPlan::TornMode::None : !faults_->crashed()) {
        lost_.erase(line);
        return;
    }
    // The write never lands (power already failed, or the triggering
    // write is dropped or torn): the media keeps its earlier image.
    XPLineImage &kept = lost_.try_emplace(line, image).first->second;
    if (torn == FaultPlan::TornMode::Prefix ||
        torn == FaultPlan::TornMode::Suffix)
        applyTornWrite(line, kept);
}

void
PmemDevice::chargeRead(uint64_t off, uint64_t size)
{
    count(telemetry::AttrField::AppBytesRead, size);
    const bool armed = faultsArmed();
    XPLineImage victim;
    const uint64_t first = xplineOf(off);
    const uint64_t last = xplineOf(off + size - 1);
    for (uint64_t line = first; line <= last; ++line) {
        heat_.touch(line, scopeCategory(), false);
        const XPAccessOutcome out = buffer_.load(line, armed ? &victim
                                                             : nullptr);
        chargeLoadOutcome(out);
        if (armed && out.evictWrite)
            noteMediaWrite(out.evictedLine, victim);
    }
}

void
PmemDevice::read(uint64_t off, void *dst, uint64_t size)
{
    checkRange(off, size);
    if (size == 0)
        return;
    chargeRead(off, size);
    std::memcpy(dst, raw(off), size);
}

const std::byte *
PmemDevice::readView(uint64_t off, uint64_t size)
{
    checkRange(off, size);
    if (size != 0)
        chargeRead(off, size);
    return raw(off);
}

void
PmemDevice::write(uint64_t off, const void *src, uint64_t size)
{
    checkRange(off, size);
    if (size == 0)
        return;
    count(telemetry::AttrField::AppBytesWritten, size);
    const uint8_t owner = ownerTag();
    const bool armed = faultsArmed();
    XPLineImage victim;
    // Per-line store + copy: an eviction caused by a later line of this
    // same write must write back the *final* content of the evicted line,
    // so each line's bytes land in the backing before the next line's
    // store can pick it as a victim.
    const std::byte *cursor_src = static_cast<const std::byte *>(src);
    uint64_t cursor = off;
    const uint64_t end = off + size;
    while (cursor < end) {
        const uint64_t line = xplineOf(cursor);
        const uint64_t line_end = (line + 1) * kXPLineSize;
        const uint64_t chunk = std::min(end, line_end) - cursor;
        const bool starts_at_base = (cursor == line * kXPLineSize);
        if (!starts_at_base)
            count(telemetry::AttrField::SubLineStores, 1);
        heat_.touch(line, ownerCategory(owner), true);
        // The store captures the line's pre-store bytes as its media
        // image when it goes clean -> dirty.
        const XPAccessOutcome out = buffer_.store(
            line, starts_at_base, owner, armed ? &victim : nullptr);
        chargeStoreOutcome(out);
        if (armed && out.evictWrite)
            noteMediaWrite(out.evictedLine, victim);
        std::memcpy(raw(cursor), cursor_src, chunk);
        cursor_src += chunk;
        cursor += chunk;
    }
}

void
PmemDevice::quiesce()
{
    const bool armed = faultsArmed();
    std::vector<uint64_t> drained_lines;
    std::vector<uint8_t> drained_owners;
    std::vector<XPLineImage> drained_images;
    buffer_.drainDirty(armed ? &drained_lines : nullptr, &drained_owners,
                       armed ? &drained_images : nullptr);
    for (const uint8_t owner : drained_owners)
        countMediaWrite(owner, kXPLineSize);
    for (size_t i = 0; i < drained_lines.size(); ++i)
        noteMediaWrite(drained_lines[i], drained_images[i]);
}

void
PmemDevice::persist(uint64_t off, uint64_t size)
{
    if (size == 0)
        return;
    checkRange(off, size);
    const CostParams &p = *params_;
    const bool armed = faultsArmed();
    XPLineImage image;
    const uint64_t first = xplineOf(off);
    const uint64_t last = xplineOf(off + size - 1);
    for (uint64_t line = first; line <= last; ++line) {
        uint8_t owner = ownerTag();
        if (buffer_.flushLine(line, &owner, armed ? &image : nullptr)) {
            countMediaWrite(owner, kXPLineSize);
            if (armed)
                noteMediaWrite(line, image);
            const double remote = remoteFactor(p.pmemRemoteWriteMult);
            const double contention = CostParams::contentionMult(
                declaredWriters(), p.pmemWriteFairThreads,
                p.pmemSeqWriteContentionSlope);
            SimClock::chargeScaled(p.pmemMediaWriteSeqNs,
                                   remote * contention);
        }
    }
}

void
PmemDevice::powerCycle()
{
    std::lock_guard<SpinLock> guard(faultsLock_);
    buffer_.reset(); // dirty lines revert to their entries' images
    // Lost write-backs last: a lost line dirtied again captured volatile
    // bytes as its entry image; the image kept here is the durable one.
    for (const auto &[line, image] : lost_)
        std::memcpy(raw(line * kXPLineSize), image.data(), kXPLineSize);
    lost_.clear();
    faults_.reset();
    faultsArmed_.store(false, std::memory_order_relaxed);
}

bool
PmemDevice::armFaults(std::shared_ptr<FaultInjector> injector)
{
    std::lock_guard<SpinLock> guard(faultsLock_);
    faults_ = std::move(injector);
    faultsArmed_.store(faults_ != nullptr, std::memory_order_relaxed);
    return true;
}

bool
PmemDevice::crashTriggered() const
{
    std::lock_guard<SpinLock> guard(faultsLock_);
    return faults_ && faults_->crashed();
}

} // namespace xpg
