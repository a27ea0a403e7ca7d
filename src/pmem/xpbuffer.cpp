#include "pmem/xpbuffer.hpp"

#include <cstring>
#include <mutex>

#include "util/logging.hpp"

namespace xpg {

XPBuffer::XPBuffer(const XPBufferConfig &config, std::byte *media)
    : config_(config), media_(media)
{
    XPG_ASSERT(config_.numSets > 0 &&
               (config_.numSets & (config_.numSets - 1)) == 0,
               "numSets must be a power of two");
    XPG_ASSERT(config_.ways > 0, "ways must be positive");
    sets_ = std::make_unique<Set[]>(config_.numSets);
    for (unsigned s = 0; s < config_.numSets; ++s) {
        sets_[s].entries.resize(config_.ways);
        if (media_)
            sets_[s].images.resize(config_.ways);
    }
}

XPBuffer::Set &
XPBuffer::setFor(uint64_t line)
{
    return sets_[line & (config_.numSets - 1)];
}

XPBuffer::Entry &
XPBuffer::victimIn(Set &set) const
{
    Entry *victim = &set.entries[0];
    for (auto &e : set.entries) {
        if (!e.valid)
            return e;
        if (e.lru < victim->lru)
            victim = &e;
    }
    return *victim;
}

void
XPBuffer::captureImage(Set &set, const Entry &e) const
{
    if (media_)
        std::memcpy(set.images[&e - set.entries.data()].data(),
                    media_ + e.line * kXPLineSize, kXPLineSize);
}

void
XPBuffer::copyImage(const Set &set, const Entry &e, XPLineImage *image) const
{
    if (media_ && image)
        *image = set.images[&e - set.entries.data()];
}

void
XPBuffer::evict(const Set &set, const Entry &victim, XPAccessOutcome &out,
                XPLineImage *image) const
{
    if (victim.valid && victim.dirty) {
        out.evictWrite = true;
        out.evictSeq = victim.seqAlloc;
        out.evictedLine = victim.line;
        out.evictedOwner = victim.owner;
        copyImage(set, victim, image);
    }
}

XPAccessOutcome
XPBuffer::store(uint64_t line, bool starts_at_base, uint8_t owner,
                XPLineImage *victim_image)
{
    Set &set = setFor(line);
    std::lock_guard<SpinLock> guard(set.lock);
    ++set.lruTick;

    for (auto &e : set.entries) {
        if (e.valid && e.line == line) {
            XPAccessOutcome out;
            out.hit = true;
            out.dirtied = !e.dirty;
            if (out.dirtied)
                captureImage(set, e);
            e.dirty = true;
            e.owner = owner;
            e.lru = set.lruTick;
            return out;
        }
    }

    XPAccessOutcome out;
    Entry &victim = victimIn(set);
    evict(set, victim, out, victim_image);
    out.rmwRead = !starts_at_base;
    out.dirtied = true;
    victim.line = line;
    victim.valid = true;
    victim.dirty = true;
    victim.seqAlloc = starts_at_base;
    victim.owner = owner;
    victim.lru = set.lruTick;
    captureImage(set, victim);
    return out;
}

XPAccessOutcome
XPBuffer::load(uint64_t line, XPLineImage *victim_image)
{
    Set &set = setFor(line);
    std::lock_guard<SpinLock> guard(set.lock);
    ++set.lruTick;

    for (auto &e : set.entries) {
        if (e.valid && e.line == line) {
            e.lru = set.lruTick;
            XPAccessOutcome out;
            out.hit = true;
            return out;
        }
    }

    XPAccessOutcome out;
    Entry &victim = victimIn(set);
    evict(set, victim, out, victim_image);
    out.rmwRead = true;
    victim.line = line;
    victim.valid = true;
    victim.dirty = false;
    victim.seqAlloc = false;
    victim.owner = 0;
    victim.lru = set.lruTick;
    return out;
}

bool
XPBuffer::flushLine(uint64_t line, uint8_t *owner, XPLineImage *image)
{
    Set &set = setFor(line);
    std::lock_guard<SpinLock> guard(set.lock);
    for (auto &e : set.entries) {
        if (e.valid && e.line == line && e.dirty) {
            e.dirty = false;
            if (owner)
                *owner = e.owner;
            copyImage(set, e, image);
            return true;
        }
    }
    return false;
}

unsigned
XPBuffer::validLines() const
{
    unsigned count = 0;
    for (unsigned s = 0; s < config_.numSets; ++s) {
        std::lock_guard<SpinLock> guard(sets_[s].lock);
        for (const auto &e : sets_[s].entries)
            if (e.valid)
                ++count;
    }
    return count;
}

unsigned
XPBuffer::drainDirty(std::vector<uint64_t> *lines,
                     std::vector<uint8_t> *owners,
                     std::vector<XPLineImage> *images)
{
    unsigned drained = 0;
    for (unsigned s = 0; s < config_.numSets; ++s) {
        Set &set = sets_[s];
        std::lock_guard<SpinLock> guard(set.lock);
        for (auto &e : set.entries) {
            if (e.valid && e.dirty) {
                e.dirty = false;
                ++drained;
                if (lines)
                    lines->push_back(e.line);
                if (owners)
                    owners->push_back(e.owner);
                if (images && media_)
                    copyImage(set, e, &images->emplace_back());
            }
        }
    }
    return drained;
}

void
XPBuffer::reset()
{
    for (unsigned s = 0; s < config_.numSets; ++s) {
        Set &set = sets_[s];
        std::lock_guard<SpinLock> guard(set.lock);
        for (auto &e : set.entries) {
            if (media_ && e.valid && e.dirty)
                std::memcpy(media_ + e.line * kXPLineSize,
                            set.images[&e - set.entries.data()].data(),
                            kXPLineSize);
            e = Entry{};
        }
        set.lruTick = 0;
    }
}

} // namespace xpg
