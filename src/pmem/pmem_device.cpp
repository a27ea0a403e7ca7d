#include "pmem/pmem_device.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <vector>
#include "util/sim_clock.hpp"

namespace xpg {

PmemDevice::PmemDevice(std::string name, uint64_t capacity, int node,
                       unsigned num_nodes, const std::string &backing_path,
                       const XPBufferConfig &buffer_config,
                       const CostParams *params)
    : MemoryDevice(std::move(name), capacity, node, num_nodes, backing_path),
      buffer_(buffer_config, raw(0),
              alignUp(capacity, kXPLineSize) / kXPLineSize),
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
PmemDevice::chargeOutcome(const XPAccessOutcome &out, bool is_write)
{
    using telemetry::AttrField;
    const CostParams &p = *params_;
    SimClock::charge(p.pmemBufferHitNs);
    if (out.hit) {
        count(AttrField::BufferHits, 1);
        return;
    }
    const double remote = remoteFactor(is_write ? p.pmemRemoteWriteMult
                                                : p.pmemRemoteReadMult);
    if (out.rmwRead) {
        // A store's miss fetches the line only because the store began
        // off the line base (the sub-line-store detector): the full line
        // of read amplification is blamed on the storing category. A
        // load miss moves the same bytes but is not an RMW.
        countMediaRead(kXPLineSize);
        if (is_write)
            count(AttrField::RmwReads, 1);
        const double contention =
            is_write ? 1.0
                     : CostParams::contentionMult(declaredReaders(),
                                                  p.pmemReadFairThreads,
                                                  p.pmemReadContentionSlope);
        const uint64_t readNs =
            CostParams::scaledNs(p.pmemMediaReadNs, remote * contention);
        SimClock::charge(readNs);
        telMediaReadHist_->record(readNs);
    }
    if (out.evictWrite) {
        countMediaWrite(out.evictedOwner, kXPLineSize);
        const uint64_t base =
            out.evictSeq ? p.pmemMediaWriteSeqNs : p.pmemMediaWriteNs;
        const double slope = out.evictSeq ? p.pmemSeqWriteContentionSlope
                                          : p.pmemWriteContentionSlope;
        const double contention =
            is_write ? CostParams::contentionMult(
                           declaredWriters(), p.pmemWriteFairThreads, slope)
                     : 1.0;
        const uint64_t writeNs =
            CostParams::scaledNs(base, remote * contention);
        SimClock::charge(writeNs);
        telWritebackHist_->record(writeNs);
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
PmemDevice::chargeLoad(uint64_t off, uint64_t size)
{
    const bool armed = faultsArmed();
    XPLineImage victim;
    forEachLine(off, size, kXPLineSize, [&](uint64_t line, auto...) {
        heat_.touch(line, telemetry::AccessScope::current(), false);
        const XPAccessOutcome out =
            buffer_.load(line, armed ? &victim : nullptr);
        chargeOutcome(out, false);
        if (armed && out.evictWrite)
            noteMediaWrite(out.evictedLine, victim);
    });
}

void
PmemDevice::store(uint64_t off, const std::byte *src, uint64_t size)
{
    const uint8_t owner = ownerTag();
    const bool armed = faultsArmed();
    XPLineImage victim;
    forEachLine(off, size, kXPLineSize, [&](uint64_t line, bool starts_at_base,
                                            uint64_t at, uint64_t chunk) {
        if (!starts_at_base)
            count(telemetry::AttrField::SubLineStores, 1);
        heat_.touch(line, ownerCategory(owner), true);
        // The store captures the line's pre-store bytes as its media
        // image when it goes clean -> dirty.
        const XPAccessOutcome out = buffer_.store(
            line, starts_at_base, owner, armed ? &victim : nullptr);
        chargeOutcome(out, true);
        if (armed && out.evictWrite)
            noteMediaWrite(out.evictedLine, victim);
        // Land the line's bytes before the next line's store can pick it
        // as a victim: a write-back carries the line's final content.
        std::memcpy(raw(at), src + (at - off), chunk);
    });
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
    forEachLine(off, size, kXPLineSize, [&](uint64_t line, auto...) {
        uint8_t owner = ownerTag();
        if (!buffer_.flushLine(line, &owner, armed ? &image : nullptr))
            return;
        countMediaWrite(owner, kXPLineSize);
        if (armed)
            noteMediaWrite(line, image);
        const double remote = remoteFactor(p.pmemRemoteWriteMult);
        const double contention = CostParams::contentionMult(
            declaredWriters(), p.pmemWriteFairThreads,
            p.pmemSeqWriteContentionSlope);
        SimClock::chargeScaled(p.pmemMediaWriteSeqNs, remote * contention);
    });
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

} // namespace xpg
