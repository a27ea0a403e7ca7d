/**
 * @file
 * Model of the Optane DIMM's internal XPBuffer: a small write-combining
 * cache of 256 B XPLines sitting between the iMC and the 3D-XPoint media.
 *
 * The buffer is the mechanism behind the paper's read/write amplification
 * observation (S II-A): a sub-line store that misses costs a full XPLine
 * read-modify-write, while stores that coalesce inside the buffer reach the
 * media as a single line write.
 *
 * Modeling simplification: the RMW media read is charged at allocation time
 * iff the triggering store does not begin at the line base. Streaming
 * writes (which always start lines at their base and then fill them) are
 * thereby recognized without per-byte coverage tracking. A line-base store
 * that leaves its line part-filled until eviction is miscounted as free;
 * ROADMAP.md's open item on exact XPLine coverage measures how often that
 * happens (for XPGraph it is far from rare) and how to count it.
 *
 * Crash model: a buffer built over the device's bytes (PmemDevice) keeps,
 * for every dirty way, the image the media holds for that line — the
 * line's bytes as they were when it went clean -> dirty. Stores land in
 * the device's bytes at once, so a power failure (reset()) writes those
 * images back and every store that never left the buffer disappears. A
 * write-back needs no bookkeeping: once the way is clean, the bytes are
 * the media content.
 *
 * Host layout: every modeled XPLine access consults one set, from any
 * thread, so a set is packed into two cache lines. The first holds all
 * that an access writes: the lock, the per-way valid, dirty and
 * stream-allocation bits, the owner tags and the LRU order. The second
 * holds the line tags, written only by a miss. A hit therefore moves one
 * shared cache line between cores and a miss two. The crash images sit
 * in a side array, off both lines.
 */

#ifndef XPG_PMEM_XPBUFFER_HPP
#define XPG_PMEM_XPBUFFER_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pmem/xpline.hpp"
#include "util/spinlock.hpp"

namespace xpg {

/**
 * Geometry of the XPBuffer. Total lines = numSets * ways. The default
 * (32 sets x 16 ways = 512 lines = 128 KiB) models the write-combining
 * buffers of one socket's Optane DIMMs taken together.
 */
struct XPBufferConfig
{
    unsigned numSets = 32; ///< must be a power of two
    unsigned ways = 16;    ///< 1 to XPBuffer::kMaxWays
};

/** One XPLine's bytes (a crash-model media image). */
using XPLineImage = std::array<std::byte, kXPLineSize>;

/** What a single line access did at the media boundary. */
struct XPAccessOutcome
{
    bool hit = false;         ///< absorbed by the buffer
    bool rmwRead = false;     ///< line fetched from media (RMW or load miss)
    bool evictWrite = false;  ///< a dirty victim was written back
    bool evictSeq = false;    ///< ...and that victim was stream-allocated
    bool dirtied = false;     ///< the accessed line went clean -> dirty
    uint64_t evictedLine = 0; ///< victim line index (valid iff evictWrite)
    uint8_t evictedOwner = 0; ///< victim's owner tag (valid iff evictWrite)
};

/**
 * Set-associative LRU cache of XPLine indices with per-set locking.
 * Thread-safe; cost charging is the caller's (device's) job — this class
 * only reports what happened.
 */
class XPBuffer
{
  public:
    /** Ways per set at most: one bit per way in a 16-bit mask, one
     *  nibble per way in the 64-bit LRU order. */
    static constexpr unsigned kMaxWays = 16;

    /**
     * @param config Geometry.
     * @param media When non-null, the bytes the lines live in (line L at
     *        media + L * kXPLineSize): dirty lines then keep crash
     *        images (see the file comment). Null keeps none (the SSD
     *        page cache, Memory Mode's DRAM cache).
     * @param lines How many lines the buffer may be asked about (line
     *        indices below it): the device's line count. A set keeps the
     *        32 bits of a line index above the set bits as the line's
     *        tag, so more than 2^32 * numSets lines panics here; accesses
     *        are not checked. The default, 2^32, fits every geometry.
     */
    explicit XPBuffer(const XPBufferConfig &config = XPBufferConfig{},
                      std::byte *media = nullptr,
                      uint64_t lines = uint64_t{1} << 32);

    /**
     * A store touching line @p line.
     * @param line XPLine index.
     * @param starts_at_base true when the store's first byte is the line
     *        base (streaming allocation: no RMW read).
     * @param owner Opaque owner tag remembered with the line (the device
     *        passes the current attribution category); a later eviction
     *        reports it via XPAccessOutcome::evictedOwner so the
     *        write-back is blamed on the code path that dirtied the
     *        line, not the one that evicted it.
     * @param victim When non-null and a dirty victim is written back,
     *        receives the victim's media image (crash images only).
     */
    XPAccessOutcome store(uint64_t line, bool starts_at_base,
                          uint8_t owner = 0, XPLineImage *victim = nullptr);

    /** A load touching line @p line; misses allocate the line clean.
     *  @p victim as for store(). */
    XPAccessOutcome load(uint64_t line, XPLineImage *victim = nullptr);

    /**
     * Explicit write-back (clwb-style) of @p line if present and dirty.
     * @param owner When non-null and a write was issued, receives the
     *        line's owner tag.
     * @param image When non-null and a write was issued, receives the
     *        line's media image before the write (crash images only).
     * @return true when a media write was issued.
     */
    bool flushLine(uint64_t line, uint8_t *owner = nullptr,
                   XPLineImage *image = nullptr);

    /** Number of currently valid lines (for tests). */
    unsigned validLines() const;

    /**
     * Write back every dirty line (background drain between phases).
     * @param drained When non-null, the written-back line indices are
     *        appended.
     * @param owners When non-null, the owner tag of each drained line is
     *        appended in lockstep with @p drained.
     * @param images When non-null, each drained line's media image before
     *        the write is appended in lockstep (crash images only).
     * @return the number of lines written back.
     */
    unsigned drainDirty(std::vector<uint64_t> *drained = nullptr,
                        std::vector<uint8_t> *owners = nullptr,
                        std::vector<XPLineImage> *images = nullptr);

    /**
     * Power failure: drop all lines, writing back nothing. With crash
     * images, every dirty line's bytes are first restored to its media
     * image.
     */
    void reset();

  private:
    /** One set: the line an access writes, then the tags line. */
    struct alignas(128) Set
    {
        mutable SpinLock lock;
        uint16_t valid = 0;    ///< bit w: way w holds a line
        uint16_t dirty = 0;    ///< bit w: way w is dirty (implies valid)
        uint16_t seqAlloc = 0; ///< bit w: way w allocated by a base store
        /** Way indices as nibbles, least significant = most recently
         *  touched; nibbles past the last way hold 0xF. */
        uint64_t order = 0;
        std::array<uint8_t, kMaxWays> owner{}; ///< tag of the last store
        /** Line index >> log2(numSets), per way. */
        alignas(64) std::array<uint32_t, kMaxWays> tag{};
    };
    static_assert(sizeof(Set) == 2 * 64, "a set is two cache lines");

    /** Way to fill on a miss in a locked set: the lowest invalid way,
     *  else the least recently touched. */
    unsigned victimIn(const Set &set) const;
    /** Report way @p way of locked set @p s, picked for a miss, as a
     *  dirty write-back in @p out when it is dirty (its image into
     *  @p image). */
    void evict(uint64_t s, unsigned way, XPAccessOutcome &out,
               XPLineImage *image) const;
    /** Line @p line, in way @p way of set @p s, goes clean -> dirty:
     *  keep its media image. */
    void captureImage(uint64_t s, unsigned way, uint64_t line);
    /** Copy way @p way of set @p s's image out, when images are kept. */
    void copyImage(uint64_t s, unsigned way, XPLineImage *image) const;
    uint64_t lineOf(uint64_t s, unsigned way) const
    {
        return uint64_t{sets_[s].tag[way]} << setShift_ | s;
    }

    XPBufferConfig config_;
    std::byte *media_;
    unsigned setShift_; ///< log2(numSets)
    uint16_t waysMask_; ///< one bit per way
    std::unique_ptr<Set[]> sets_;
    /** Media image of set s, way w at s * ways + w (crash images only). */
    std::unique_ptr<XPLineImage[]> images_;
};

} // namespace xpg

#endif // XPG_PMEM_XPBUFFER_HPP
