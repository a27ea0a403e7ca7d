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
 * thereby recognized without per-byte coverage tracking; the only pattern
 * miscounted is a random line-base store followed by eviction, which is
 * ~1/64 of random traffic.
 *
 * Crash model: a buffer built over the device's bytes (PmemDevice) keeps,
 * in every dirty entry, the image the media holds for that line — the
 * line's bytes as they were when it went clean -> dirty. Stores land in
 * the device's bytes at once, so a power failure (reset()) writes those
 * images back and every store that never left the buffer disappears. A
 * write-back needs no bookkeeping: once the entry is clean, the bytes are
 * the media content.
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
    unsigned ways = 16;
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
    /**
     * @param config Geometry.
     * @param media When non-null, the bytes the lines live in (line L at
     *        media + L * kXPLineSize): dirty entries then keep crash
     *        images (see the file comment). Null keeps none (the SSD
     *        page cache, Memory Mode's DRAM cache).
     */
    explicit XPBuffer(const XPBufferConfig &config = XPBufferConfig{},
                      std::byte *media = nullptr);

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
    struct Entry
    {
        uint64_t line = 0;
        uint32_t lru = 0;
        bool valid = false;
        bool dirty = false;
        bool seqAlloc = false;
        uint8_t owner = 0; ///< attribution tag of the last store
    };

    /** One set per cache line, so neighbouring sets' locks never share
     *  one. */
    struct alignas(64) Set
    {
        std::vector<Entry> entries;
        /** Media image per way (crash images only; else empty). */
        std::vector<XPLineImage> images;
        uint32_t lruTick = 0;
        mutable SpinLock lock;
    };

    Set &setFor(uint64_t line);
    /** Pick victim way in a locked set: first invalid, else LRU. */
    Entry &victimIn(Set &set) const;
    /** Evict @p victim of a locked set for a miss, reporting a dirty
     *  write-back in @p out (and its image in @p image). */
    void evict(const Set &set, const Entry &victim, XPAccessOutcome &out,
               XPLineImage *image) const;
    /** A line of a locked set goes clean -> dirty: keep its image. */
    void captureImage(Set &set, const Entry &e) const;
    /** Copy @p e's image out of a locked set, when images are kept. */
    void copyImage(const Set &set, const Entry &e, XPLineImage *image) const;

    XPBufferConfig config_;
    std::byte *media_;
    std::unique_ptr<Set[]> sets_;
};

} // namespace xpg

#endif // XPG_PMEM_XPBUFFER_HPP
