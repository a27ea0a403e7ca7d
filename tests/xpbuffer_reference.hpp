/**
 * @file
 * The reference XPBuffer model for tests: the entry-vector buffer the
 * packed XPBuffer replaced, kept as the specification of its outcomes.
 * Each set is a vector of entries with a per-set tick; an access stamps
 * its entry with the next tick, and a miss takes the first invalid way,
 * else the valid way with the smallest stamp. Single-threaded, with no
 * locks; XPBuffer.MatchesReferenceOnRandomStreams replays one seeded
 * stream through both and compares everything they report.
 */

#ifndef XPG_TESTS_XPBUFFER_REFERENCE_HPP
#define XPG_TESTS_XPBUFFER_REFERENCE_HPP

#include <cstring>
#include <vector>

#include "pmem/xpbuffer.hpp"

namespace xpg {

class ReferenceXPBuffer
{
  public:
    explicit ReferenceXPBuffer(const XPBufferConfig &config,
                               std::byte *media = nullptr)
        : config_(config), media_(media), sets_(config.numSets)
    {
        for (Set &set : sets_) {
            set.entries.resize(config_.ways);
            if (media_)
                set.images.resize(config_.ways);
        }
    }

    XPAccessOutcome
    store(uint64_t line, bool starts_at_base, uint8_t owner = 0,
          XPLineImage *victim_image = nullptr)
    {
        Set &set = setFor(line);
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
    load(uint64_t line, XPLineImage *victim_image = nullptr)
    {
        Set &set = setFor(line);
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
    flushLine(uint64_t line, uint8_t *owner = nullptr,
              XPLineImage *image = nullptr)
    {
        Set &set = setFor(line);
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
    validLines() const
    {
        unsigned count = 0;
        for (const Set &set : sets_)
            for (const auto &e : set.entries)
                count += e.valid;
        return count;
    }

    unsigned
    drainDirty(std::vector<uint64_t> *lines = nullptr,
               std::vector<uint8_t> *owners = nullptr,
               std::vector<XPLineImage> *images = nullptr)
    {
        unsigned drained = 0;
        for (Set &set : sets_) {
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
    reset()
    {
        for (Set &set : sets_) {
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

  private:
    struct Entry
    {
        uint64_t line = 0;
        uint32_t lru = 0;
        bool valid = false;
        bool dirty = false;
        bool seqAlloc = false;
        uint8_t owner = 0;
    };

    struct Set
    {
        std::vector<Entry> entries;
        std::vector<XPLineImage> images;
        uint32_t lruTick = 0;
    };

    Set &setFor(uint64_t line) { return sets_[line & (config_.numSets - 1)]; }

    static Entry &
    victimIn(Set &set)
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
    captureImage(Set &set, const Entry &e) const
    {
        if (media_)
            std::memcpy(set.images[&e - set.entries.data()].data(),
                        media_ + e.line * kXPLineSize, kXPLineSize);
    }

    void
    copyImage(const Set &set, const Entry &e, XPLineImage *image) const
    {
        if (media_ && image)
            *image = set.images[&e - set.entries.data()];
    }

    void
    evict(const Set &set, const Entry &victim, XPAccessOutcome &out,
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

    XPBufferConfig config_;
    std::byte *media_;
    std::vector<Set> sets_;
};

} // namespace xpg

#endif // XPG_TESTS_XPBUFFER_REFERENCE_HPP
