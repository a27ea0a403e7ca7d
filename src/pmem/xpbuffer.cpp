#include "pmem/xpbuffer.hpp"

#include <bit>
#include <cstring>
#include <mutex>

#include "util/logging.hpp"

namespace xpg {

namespace {

constexpr uint64_t kNibbleOnes = 0x1111111111111111ull;

/** Bit w set iff tags[w] == tag (every way, valid or not). */
inline unsigned
matchingWays(const std::array<uint32_t, XPBuffer::kMaxWays> &tags,
             uint32_t tag)
{
    // Four 4-lane compares (one SIMD compare each where the target has
    // one); lane i of quad q keeps its way's bit 4q + i, and the OR of
    // the four lanes, taken as two 64-bit halves, is the mask. A quad
    // may alias the tags and needs only their alignment.
    using Quad =
        uint32_t __attribute__((vector_size(16), aligned(4), may_alias));
    using Halves = uint64_t __attribute__((vector_size(16)));
    const auto *quads = reinterpret_cast<const Quad *>(tags.data());
    const Quad lane = {1, 2, 4, 8};
    const auto halves = reinterpret_cast<Halves>(
        (reinterpret_cast<Quad>(quads[0] == tag) & lane) |
        (reinterpret_cast<Quad>(quads[1] == tag) & lane << 4) |
        (reinterpret_cast<Quad>(quads[2] == tag) & lane << 8) |
        (reinterpret_cast<Quad>(quads[3] == tag) & lane << 12));
    const uint64_t bits = halves[0] | halves[1];
    return static_cast<unsigned>(bits | bits >> 32);
}

/** LRU order @p order with way @p way moved to the front. */
inline uint64_t
touched(uint64_t order, unsigned way)
{
    // x has a zero nibble where order holds way; the lowest flagged
    // nibble of the zero-nibble test is exact (borrows only run upward).
    const uint64_t x = order ^ (kNibbleOnes * way);
    const uint64_t zero = (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
    const unsigned shift = std::countr_zero(zero) & ~3u;
    const uint64_t below = (uint64_t{1} << shift) - 1;
    return (order & (~below << 4)) | ((order & below) << 4) | way;
}

} // namespace

XPBuffer::XPBuffer(const XPBufferConfig &config, std::byte *media,
                   uint64_t lines)
    : config_(config), media_(media)
{
    XPG_ASSERT(config_.numSets > 0 &&
               (config_.numSets & (config_.numSets - 1)) == 0,
               "numSets must be a power of two");
    XPG_ASSERT(config_.ways > 0 && config_.ways <= kMaxWays,
               "ways must be 1 to 16");
    XPG_ASSERT(lines <= (uint64_t{1} << 32) * config_.numSets,
               "device lines exceed the XPBuffer tag range");
    setShift_ = std::countr_zero(config_.numSets);
    waysMask_ = static_cast<uint16_t>((1u << config_.ways) - 1);
    uint64_t order = ~uint64_t{0};
    for (unsigned w = 0; w < config_.ways; ++w)
        order = (order & ~(uint64_t{0xF} << 4 * w)) | uint64_t{w} << 4 * w;
    sets_ = std::make_unique<Set[]>(config_.numSets);
    for (unsigned s = 0; s < config_.numSets; ++s)
        sets_[s].order = order;
    if (media_)
        images_ = std::make_unique<XPLineImage[]>(uint64_t{config_.numSets} *
                                                  config_.ways);
}

unsigned
XPBuffer::victimIn(const Set &set) const
{
    if (const unsigned invalid = ~set.valid & waysMask_)
        return std::countr_zero(invalid);
    return (set.order >> 4 * (config_.ways - 1)) & 0xF;
}

void
XPBuffer::captureImage(uint64_t s, unsigned way, uint64_t line)
{
    if (media_)
        std::memcpy(images_[s * config_.ways + way].data(),
                    media_ + line * kXPLineSize, kXPLineSize);
}

void
XPBuffer::copyImage(uint64_t s, unsigned way, XPLineImage *image) const
{
    if (media_ && image)
        *image = images_[s * config_.ways + way];
}

void
XPBuffer::evict(uint64_t s, unsigned way, XPAccessOutcome &out,
                XPLineImage *image) const
{
    const Set &set = sets_[s];
    if (set.dirty >> way & 1) {
        out.evictWrite = true;
        out.evictSeq = set.seqAlloc >> way & 1;
        out.evictedLine = lineOf(s, way);
        out.evictedOwner = set.owner[way];
        copyImage(s, way, image);
    }
}

XPAccessOutcome
XPBuffer::store(uint64_t line, bool starts_at_base, uint8_t owner,
                XPLineImage *victim_image)
{
    const uint64_t s = line & (config_.numSets - 1);
    const auto tag = static_cast<uint32_t>(line >> setShift_);
    Set &set = sets_[s];
    std::lock_guard<SpinLock> guard(set.lock);

    XPAccessOutcome out;
    unsigned way;
    if (const unsigned hits = matchingWays(set.tag, tag) & set.valid) {
        way = std::countr_zero(hits);
        out.hit = true;
        out.dirtied = !(set.dirty >> way & 1);
    } else {
        way = victimIn(set);
        evict(s, way, out, victim_image);
        out.rmwRead = !starts_at_base;
        out.dirtied = true;
        set.tag[way] = tag;
        set.valid |= 1u << way;
        if (starts_at_base)
            set.seqAlloc |= 1u << way;
        else
            set.seqAlloc &= ~(1u << way);
    }
    if (out.dirtied)
        captureImage(s, way, line);
    set.dirty |= 1u << way;
    set.owner[way] = owner;
    set.order = touched(set.order, way);
    return out;
}

XPAccessOutcome
XPBuffer::load(uint64_t line, XPLineImage *victim_image)
{
    const uint64_t s = line & (config_.numSets - 1);
    const auto tag = static_cast<uint32_t>(line >> setShift_);
    Set &set = sets_[s];
    std::lock_guard<SpinLock> guard(set.lock);

    XPAccessOutcome out;
    unsigned way;
    if (const unsigned hits = matchingWays(set.tag, tag) & set.valid) {
        way = std::countr_zero(hits);
        out.hit = true;
    } else {
        way = victimIn(set);
        evict(s, way, out, victim_image);
        out.rmwRead = true;
        set.tag[way] = tag;
        set.valid |= 1u << way;
        set.dirty &= ~(1u << way);
        set.seqAlloc &= ~(1u << way);
        set.owner[way] = 0;
    }
    set.order = touched(set.order, way);
    return out;
}

bool
XPBuffer::flushLine(uint64_t line, uint8_t *owner, XPLineImage *image)
{
    const uint64_t s = line & (config_.numSets - 1);
    const auto tag = static_cast<uint32_t>(line >> setShift_);
    Set &set = sets_[s];
    std::lock_guard<SpinLock> guard(set.lock);
    const unsigned dirty = matchingWays(set.tag, tag) & set.dirty;
    if (!dirty)
        return false;
    const unsigned way = std::countr_zero(dirty);
    set.dirty &= ~(1u << way);
    if (owner)
        *owner = set.owner[way];
    copyImage(s, way, image);
    return true;
}

unsigned
XPBuffer::validLines() const
{
    unsigned count = 0;
    for (unsigned s = 0; s < config_.numSets; ++s) {
        std::lock_guard<SpinLock> guard(sets_[s].lock);
        count += std::popcount(sets_[s].valid);
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
        for (unsigned dirty = set.dirty; dirty; dirty &= dirty - 1) {
            const unsigned way = std::countr_zero(dirty);
            ++drained;
            if (lines)
                lines->push_back(lineOf(s, way));
            if (owners)
                owners->push_back(set.owner[way]);
            if (images && media_)
                copyImage(s, way, &images->emplace_back());
        }
        set.dirty = 0;
    }
    return drained;
}

void
XPBuffer::reset()
{
    for (unsigned s = 0; s < config_.numSets; ++s) {
        Set &set = sets_[s];
        std::lock_guard<SpinLock> guard(set.lock);
        for (unsigned dirty = media_ ? set.dirty : 0; dirty;
             dirty &= dirty - 1) {
            const unsigned way = std::countr_zero(dirty);
            std::memcpy(media_ + lineOf(s, way) * kXPLineSize,
                        images_[s * config_.ways + way].data(), kXPLineSize);
        }
        // The rest needs no reset: every fill rewrites a way's tag, owner
        // and stream bit, and by the time a set is full again its order
        // ranks only ways touched since.
        set.valid = set.dirty = 0;
    }
}

} // namespace xpg
