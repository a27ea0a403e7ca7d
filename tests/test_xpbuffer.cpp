/**
 * @file
 * XPBuffer model invariants: hit/miss behaviour, RMW accounting, LRU
 * eviction, explicit flush, and the streaming-allocation rule; the
 * packed buffer against the reference model on seeded streams; its
 * geometry checks; and its sets under concurrent access.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "pmem/xpbuffer.hpp"
#include "util/rng.hpp"
#include "xpbuffer_reference.hpp"

namespace xpg {
namespace {

XPBufferConfig
tinyConfig(unsigned sets = 1, unsigned ways = 4)
{
    XPBufferConfig c;
    c.numSets = sets;
    c.ways = ways;
    return c;
}

TEST(XPBuffer, FirstStoreMisses)
{
    XPBuffer buf(tinyConfig());
    const auto out = buf.store(7, /*starts_at_base=*/false);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.rmwRead); // sub-line store needs the rest of the line
    EXPECT_FALSE(out.evictWrite);
}

TEST(XPBuffer, StreamingAllocationSkipsRmwRead)
{
    XPBuffer buf(tinyConfig());
    const auto out = buf.store(7, /*starts_at_base=*/true);
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.rmwRead);
}

TEST(XPBuffer, RepeatStoreHits)
{
    XPBuffer buf(tinyConfig());
    buf.store(7, false);
    const auto out = buf.store(7, false);
    EXPECT_TRUE(out.hit);
    EXPECT_FALSE(out.rmwRead);
}

TEST(XPBuffer, LoadAfterStoreHits)
{
    XPBuffer buf(tinyConfig());
    buf.store(7, true);
    EXPECT_TRUE(buf.load(7).hit);
}

TEST(XPBuffer, LoadMissFetchesLine)
{
    XPBuffer buf(tinyConfig());
    const auto out = buf.load(42);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.rmwRead);
    EXPECT_FALSE(out.evictWrite);
}

TEST(XPBuffer, DirtyEvictionWritesBack)
{
    XPBuffer buf(tinyConfig(1, 2));
    buf.store(1, false);
    buf.store(2, false);
    // Set is full of dirty lines; a third line must evict one.
    const auto out = buf.store(3, false);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.evictWrite);
}

TEST(XPBuffer, CleanEvictionDoesNotWriteBack)
{
    XPBuffer buf(tinyConfig(1, 2));
    buf.load(1);
    buf.load(2);
    const auto out = buf.load(3);
    EXPECT_FALSE(out.evictWrite);
}

TEST(XPBuffer, EvictionIsLru)
{
    XPBuffer buf(tinyConfig(1, 2));
    buf.store(1, false);
    buf.store(2, false);
    buf.store(1, false); // refresh line 1; line 2 becomes LRU
    buf.store(3, false); // evicts line 2
    EXPECT_TRUE(buf.store(1, false).hit);
    EXPECT_FALSE(buf.store(2, false).hit);
}

TEST(XPBuffer, SequentialAllocationTagTravelsToEviction)
{
    XPBuffer buf(tinyConfig(1, 1));
    buf.store(1, /*starts_at_base=*/true);
    const auto out = buf.store(2, false);
    EXPECT_TRUE(out.evictWrite);
    EXPECT_TRUE(out.evictSeq);
    const auto out2 = buf.store(3, false);
    EXPECT_TRUE(out2.evictWrite);
    EXPECT_FALSE(out2.evictSeq); // line 2 was randomly allocated
}

TEST(XPBuffer, FlushLineWritesBackOnce)
{
    XPBuffer buf(tinyConfig());
    buf.store(9, false);
    EXPECT_TRUE(buf.flushLine(9));
    EXPECT_FALSE(buf.flushLine(9)); // already clean
    EXPECT_FALSE(buf.flushLine(1234)); // absent
}

TEST(XPBuffer, FlushedLineEvictsClean)
{
    XPBuffer buf(tinyConfig(1, 1));
    buf.store(9, false);
    buf.flushLine(9);
    const auto out = buf.store(10, false);
    EXPECT_FALSE(out.evictWrite);
}

TEST(XPBuffer, ValidLinesCountsAndResetClears)
{
    XPBuffer buf(tinyConfig(2, 2));
    buf.store(0, false);
    buf.store(1, false);
    buf.store(2, false);
    EXPECT_EQ(buf.validLines(), 3u);
    buf.reset();
    EXPECT_EQ(buf.validLines(), 0u);
    EXPECT_FALSE(buf.store(0, false).hit);
}

TEST(XPBuffer, DistinctSetsDoNotConflict)
{
    XPBuffer buf(tinyConfig(2, 1));
    buf.store(0, false); // set 0
    buf.store(1, false); // set 1
    EXPECT_TRUE(buf.store(0, false).hit);
    EXPECT_TRUE(buf.store(1, false).hit);
}

TEST(XPBuffer, StoreReportsDirtiedTransition)
{
    XPBuffer buf(tinyConfig());
    EXPECT_TRUE(buf.store(5, false).dirtied); // miss allocates dirty
    EXPECT_FALSE(buf.store(5, false).dirtied); // already dirty
    buf.flushLine(5);
    EXPECT_TRUE(buf.store(5, false).dirtied); // clean -> dirty again
    EXPECT_FALSE(buf.load(6).dirtied);         // loads allocate clean
}

TEST(XPBuffer, EvictionReportsVictimLine)
{
    XPBuffer buf(tinyConfig(1, 1));
    buf.store(9, false);
    const auto out = buf.store(10, false);
    ASSERT_TRUE(out.evictWrite);
    EXPECT_EQ(out.evictedLine, 9u);
}

TEST(XPBuffer, DrainDirtyReportsDrainedLines)
{
    XPBuffer buf(tinyConfig(2, 2));
    buf.store(0, false);
    buf.store(1, false);
    buf.load(2); // clean: must not be drained
    std::vector<uint64_t> drained;
    EXPECT_EQ(buf.drainDirty(&drained), 2u);
    std::sort(drained.begin(), drained.end());
    EXPECT_EQ(drained, (std::vector<uint64_t>{0, 1}));
    EXPECT_EQ(buf.drainDirty(&drained), 0u); // all clean now
    EXPECT_EQ(drained.size(), 2u);
}

bool
sameOutcome(const XPAccessOutcome &a, const XPAccessOutcome &b)
{
    return a.hit == b.hit && a.rmwRead == b.rmwRead &&
           a.evictWrite == b.evictWrite && a.evictSeq == b.evictSeq &&
           a.dirtied == b.dirtied && a.evictedLine == b.evictedLine &&
           a.evictedOwner == b.evictedOwner;
}

/**
 * One seeded stream of stores, loads, flushes, drains and power failures
 * through the packed buffer and the reference model, with media images
 * when @p images: every outcome, image, owner, drained sequence and
 * restored media byte must agree. Lines come from 2-8x the capacity,
 * seven in ten from a hot subset of half the capacity.
 */
void
expectMatchesReference(unsigned sets, unsigned ways, bool images,
                       uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << sets << "x" << ways << " images "
                                    << images << " seed " << seed);
    Rng rng(seed);
    const uint64_t capacity = uint64_t{sets} * ways;
    const uint64_t range = capacity * (2 + rng.nextBounded(7));
    const uint64_t hot = std::max<uint64_t>(1, capacity / 2);
    std::vector<std::byte> mediaA(images ? range * kXPLineSize : 0);
    std::vector<std::byte> mediaB(mediaA.size());
    XPBuffer packed(tinyConfig(sets, ways), images ? mediaA.data() : nullptr);
    ReferenceXPBuffer ref(tinyConfig(sets, ways),
                          images ? mediaB.data() : nullptr);
    XPLineImage imageA{}, imageB{};
    XPLineImage *victimA = images ? &imageA : nullptr;
    XPLineImage *victimB = images ? &imageB : nullptr;

    constexpr unsigned kOps = 200000;
    for (unsigned op = 0; op < kOps; ++op) {
        const uint64_t line = rng.nextBounded(10) < 7
                                  ? rng.nextBounded(hot)
                                  : rng.nextBounded(range);
        const uint64_t kind = rng.nextBounded(1000);
        if (kind < 450) {
            const bool base = rng.nextBounded(2);
            const auto owner = static_cast<uint8_t>(rng.nextBounded(16));
            const XPAccessOutcome a = packed.store(line, base, owner, victimA);
            const XPAccessOutcome b = ref.store(line, base, owner, victimB);
            ASSERT_TRUE(sameOutcome(a, b)) << "store, op " << op;
            if (images && b.evictWrite) {
                ASSERT_EQ(imageA, imageB) << "store victim, op " << op;
            }
            if (images) {
                // The device lands the store's bytes after the access.
                const uint64_t at =
                    line * kXPLineSize + 8 * rng.nextBounded(kXPLineSize / 8);
                const uint64_t value = rng.next();
                std::memcpy(&mediaA[at], &value, sizeof value);
                std::memcpy(&mediaB[at], &value, sizeof value);
            }
        } else if (kind < 900) {
            const XPAccessOutcome a = packed.load(line, victimA);
            const XPAccessOutcome b = ref.load(line, victimB);
            ASSERT_TRUE(sameOutcome(a, b)) << "load, op " << op;
            if (images && b.evictWrite) {
                ASSERT_EQ(imageA, imageB) << "load victim, op " << op;
            }
        } else if (kind < 980) {
            uint8_t ownerA = 0xEE, ownerB = 0xEE;
            const bool a = packed.flushLine(line, &ownerA, victimA);
            const bool b = ref.flushLine(line, &ownerB, victimB);
            ASSERT_EQ(a, b) << "flushLine, op " << op;
            ASSERT_EQ(ownerA, ownerB) << "flushLine owner, op " << op;
            if (images && b) {
                ASSERT_EQ(imageA, imageB) << "flushLine image, op " << op;
            }
        } else if (kind < 999) {
            std::vector<uint64_t> linesA, linesB;
            std::vector<uint8_t> ownersA, ownersB;
            std::vector<XPLineImage> imagesA, imagesB;
            ASSERT_EQ(packed.drainDirty(&linesA, &ownersA, &imagesA),
                      ref.drainDirty(&linesB, &ownersB, &imagesB))
                << "drainDirty, op " << op;
            ASSERT_EQ(linesA, linesB) << "drained lines, op " << op;
            ASSERT_EQ(ownersA, ownersB) << "drained owners, op " << op;
            ASSERT_EQ(imagesA, imagesB) << "drained images, op " << op;
        } else if (rng.nextBounded(4) == 0) {
            packed.reset();
            ref.reset();
            ASSERT_EQ(mediaA, mediaB) << "media after reset, op " << op;
        }
        if (op % 997 == 0) {
            ASSERT_EQ(packed.validLines(), ref.validLines()) << "op " << op;
        }
    }
    ASSERT_EQ(packed.validLines(), ref.validLines());
    packed.reset();
    ref.reset();
    EXPECT_EQ(mediaA, mediaB);
}

TEST(XPBuffer, MatchesReferenceOnRandomStreams)
{
    // Every geometry in use: PMEM's 32x16, the tests' small buffers,
    // and Memory Mode's direct-mapped sets.
    const std::pair<unsigned, unsigned> geometries[] = {
        {1, 1}, {1, 2}, {1, 4}, {2, 16}, {32, 16}, {1024, 1}};
    uint64_t seed = 1;
    for (const auto &[sets, ways] : geometries)
        for (const bool images : {false, true})
            expectMatchesReference(sets, ways, images, seed++);
}

TEST(XPBuffer, SeventeenWaysAreRejected)
{
    EXPECT_DEATH(XPBuffer(tinyConfig(1, 17)), "ways must be 1 to 16");
}

TEST(XPBuffer, DeviceLinesBeyondTheTagRangeAreRejected)
{
    // One set tags 2^32 lines, so one line more is refused.
    EXPECT_DEATH(XPBuffer(tinyConfig(1, 16), nullptr, (uint64_t{1} << 32) + 1),
                 "tag range");
    // Two sets tag 2^33 lines, the last one included.
    const uint64_t lines = uint64_t{1} << 33;
    XPBuffer buf(tinyConfig(2, 16), nullptr, lines);
    buf.store(lines - 1, true);
    std::vector<uint64_t> drained;
    buf.drainDirty(&drained);
    EXPECT_EQ(drained, std::vector<uint64_t>{lines - 1});
}

/**
 * Eight threads race mixed loads and stores over overlapping lines of
 * one 32x16 buffer: every access must report exactly a hit or a miss,
 * and afterwards no line may sit in the buffer twice.
 */
TEST(XPBuffer, ConcurrentAccessesKeepSetsConsistent)
{
    XPBuffer buf;
    constexpr unsigned kThreads = 8;
    constexpr unsigned kAccesses = 100000;
    std::vector<unsigned> hits(kThreads), misses(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(100 + t);
            for (unsigned i = 0; i < kAccesses; ++i) {
                // Threads share lines [0, 1024) and overlap pairwise
                // above it.
                const uint64_t line = rng.nextBounded(2) == 0
                                          ? rng.nextBounded(1024)
                                          : 1024 * (1 + t / 2) +
                                                rng.nextBounded(1024);
                const bool is_store = rng.nextBounded(2);
                const bool base = rng.nextBounded(2);
                const XPAccessOutcome out =
                    is_store ? buf.store(line, base, static_cast<uint8_t>(t))
                             : buf.load(line);
                if (out.hit && !out.rmwRead && !out.evictWrite)
                    ++hits[t];
                else if (!out.hit &&
                         (is_store ? out.dirtied && out.rmwRead == !base
                                   : out.rmwRead && !out.dirtied))
                    ++misses[t];
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(hits[t] + misses[t], kAccesses) << "thread " << t;
    EXPECT_LE(buf.validLines(), 512u);
    std::vector<uint64_t> drained;
    buf.drainDirty(&drained);
    EXPECT_EQ(std::set<uint64_t>(drained.begin(), drained.end()).size(),
              drained.size());
}

} // namespace
} // namespace xpg
