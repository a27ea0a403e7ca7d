#include "core/adjacency_store.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "graph/tombstones.hpp"
#include "pmem/xpline.hpp"
#include "telemetry/attribution.hpp"
#include "util/checksum.hpp"
#include "util/logging.hpp"

namespace xpg {

namespace {

/** Largest capacity a single block may grow to (records). */
constexpr uint32_t kMaxBlockRecords = 16384;

/** Scratch assembly buffer for freshly written blocks. */
thread_local std::vector<std::byte> t_blockScratch;

/** Scratch for the sorted copy of a run being compressed. */
thread_local std::vector<vid_t> t_sortScratch;

/** Scratch for the encoded payload of a run being compressed. */
thread_local std::vector<std::byte> t_encodeScratch;

/** Pack a commit word: live count plus checksum over those records. */
inline uint64_t
packCommit(uint32_t count, uint32_t sum)
{
    return uint64_t{count} | (uint64_t{sum} << 32);
}

/** Additive position-mixed checksum over records [from, to). */
inline uint32_t
sumRecords(const vid_t *recs, uint32_t from, uint32_t to, uint32_t base)
{
    uint32_t sum = base;
    for (uint32_t i = from; i < to; ++i)
        sum += recordSum32(recs[i], i);
    return sum;
}

/** Whether a run holds any delete tombstone (those runs stay raw: the
 *  codec stores sorted insert-only gaps and bit 31 is the delete flag). */
inline bool
hasDeleteRecord(const vid_t *recs, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        if (isDelete(recs[i]))
            return true;
    return false;
}

} // namespace

AdjacencyStore::AdjacencyStore(MemoryDevice &dev, PmemAllocator &alloc,
                               uint64_t index_off, uint64_t num_slots,
                               bool proactive_flush,
                               CompressionPolicy policy)
    : dev_(&dev), alloc_(&alloc), indexOff_(index_off),
      numSlots_(num_slots), proactiveFlush_(proactive_flush),
      policy_(policy)
{
    XPG_ASSERT(index_off % kXPLineSize == 0,
               "index region must be XPLine-aligned");
}

uint64_t
AdjacencyStore::blockBytes(uint32_t capacity)
{
    const uint64_t raw_bytes =
        sizeof(BlockHeader) + uint64_t{capacity} * sizeof(vid_t);
    return alignUp(raw_bytes, raw_bytes >= kXPLineSize ? kXPLineSize : 64);
}

uint64_t
AdjacencyStore::compressedBlockBytes(uint32_t payload_bytes)
{
    const uint64_t raw_bytes = sizeof(BlockHeader) + uint64_t{payload_bytes};
    return alignUp(raw_bytes, raw_bytes >= kXPLineSize ? kXPLineSize : 64);
}

CompressionStats
AdjacencyStore::compressionStats() const
{
    CompressionStats s;
    s.chunksCompressed = codec_.sum(kChunksCompressed);
    s.recordsCompressed = codec_.sum(kRecordsCompressed);
    s.rawBytes = s.recordsCompressed * sizeof(vid_t);
    s.encodedBytes = codec_.sum(kEncodedBytes);
    s.decodeCalls = codec_.sum(kDecodeCalls);
    s.decodedRecords = codec_.sum(kDecodedRecords);
    return s;
}

uint64_t
AdjacencyStore::indexEntryOff(uint64_t slot) const
{
    XPG_ASSERT(slot < numSlots_, "slot out of range");
    return indexOff_ + slot * sizeof(IndexEntry);
}

void
AdjacencyStore::persistIndex(uint64_t slot, const VertexChain &chain)
{
    XPG_ATTR_SCOPE(attrScope, VertexMeta);
    dev_->writePod<IndexEntry>(indexEntryOff(slot),
                               IndexEntry{chain.head, chain.tail});
}

uint32_t
AdjacencyStore::newBlockCapacity(uint32_t pending, uint32_t stored) const
{
    // Degree-proportional sizing, capped at kMaxBlockRecords: the block
    // covers the pending flush plus the vertex's current stored degree
    // so chain length stays logarithmic. Low-degree vertices get small
    // blocks (Table III shows only ~1.2x space overhead over CSR, so
    // there is no big per-vertex floor); blocks of at least one XPLine
    // are rounded to whole XPLines for line-aligned streaming.
    const uint32_t min_records = 12; // three 64 B units of records
    uint32_t target = std::max(pending, std::min(stored, kMaxBlockRecords));
    target = std::max(target, min_records);
    const uint64_t bytes = blockBytes(target);
    return static_cast<uint32_t>((bytes - sizeof(BlockHeader)) /
                                 sizeof(vid_t));
}

uint64_t
AdjacencyStore::writeBlock(const vid_t *nebrs, uint32_t n,
                           uint32_t capacity,
                           telemetry::AccessCategory cat)
{
    XPG_ATTR_SCOPE_DYN(attrScope, cat);
    const uint64_t bytes = blockBytes(capacity);
    const uint64_t align = bytes >= kXPLineSize ? kXPLineSize : 64;
    const uint64_t off = alloc_->alloc(bytes, align);

    // Assemble header + records in scratch and write them as one stream
    // starting at the XPLine base (no read-modify-write).
    const uint64_t init_bytes = sizeof(BlockHeader) + n * sizeof(vid_t);
    t_blockScratch.resize(init_bytes);
    auto *hdr = reinterpret_cast<BlockHeader *>(t_blockScratch.data());
    hdr->magic = kBlockMagic;
    hdr->capacity = capacity;
    hdr->next = kNullOffset;
    hdr->commit[0] = packCommit(n, sumRecords(nebrs, 0, n, 0));
    hdr->commit[1] = 0;
    if (n > 0) // a chain compacted to empty passes no records at all
        std::memcpy(t_blockScratch.data() + sizeof(BlockHeader), nebrs,
                    n * sizeof(vid_t));
    dev_->write(off, t_blockScratch.data(), init_bytes);
    if (proactiveFlush_ && init_bytes >= kXPLineSize)
        dev_->persist(off, init_bytes);
    return off;
}

bool
AdjacencyStore::shouldCompress(const vid_t *nebrs, uint32_t n,
                               uint32_t stored) const
{
    if (n < 2)
        return false;
    // Degree-aware: only hubs whose stored + pending records reach the
    // threshold pay the (cheap) sort+encode; cold vertices keep the raw
    // format and its tail-fill behavior untouched.
    if (uint64_t{stored} + n < policy_.minDegree)
        return false;
    return !hasDeleteRecord(nebrs, n);
}

uint64_t
AdjacencyStore::writeCompressedBlock(const vid_t *nebrs, uint32_t n,
                                     uint32_t &payload_bytes,
                                     telemetry::AccessCategory cat)
{
    // Sort a copy (the caller's run is a vertex-buffer payload or the
    // compaction survivor list; neither may be reordered in place) and
    // delta+varint encode it into the payload scratch.
    t_sortScratch.assign(nebrs, nebrs + n);
    std::sort(t_sortScratch.begin(), t_sortScratch.end());
    t_encodeScratch.clear();
    const uint64_t payload =
        adjcodec::encodeRun(t_sortScratch.data(), n, t_encodeScratch);
    payload_bytes = static_cast<uint32_t>(payload);

    const uint64_t bytes = compressedBlockBytes(payload_bytes);
    const uint64_t align = bytes >= kXPLineSize ? kXPLineSize : 64;
    const uint64_t off = alloc_->alloc(bytes, align);

    // One sealed stream: header + exact-fit payload + zero pad to the
    // allocation footprint leave as a single aligned write (no slack,
    // no later sub-line tail stores; for XPLine-sized blocks the write
    // covers whole lines, so the media RMW disappears too). The commit
    // word checksums the encoded bytes, so a torn chunk fails
    // validation exactly like a torn raw block.
    const uint64_t init_bytes = bytes;
    t_blockScratch.assign(init_bytes, std::byte{0});
    auto *hdr = reinterpret_cast<BlockHeader *>(t_blockScratch.data());
    hdr->magic = kCompressedMagic;
    hdr->capacity = payload_bytes;
    hdr->next = kNullOffset;
    hdr->commit[0] = packCommit(
        n, adjcodec::payloadChecksum(t_encodeScratch.data(),
                                     payload_bytes));
    hdr->commit[1] = 0;
    std::memcpy(t_blockScratch.data() + sizeof(BlockHeader),
                t_encodeScratch.data(), payload_bytes);
    // The block write stays caller-attributed (AdjacencyArchive for
    // appends, Compaction for compaction rewrites): it replaces
    // the raw-block write one-for-one, keeping the row comparable
    // across formats; AdjacencyCodec owns the decode-side reads.
    {
        XPG_ATTR_SCOPE_DYN(attrScope, cat);
        dev_->write(off, t_blockScratch.data(), init_bytes);
        if (proactiveFlush_ && init_bytes >= kXPLineSize)
            dev_->persist(off, init_bytes);
    }

    codec_.add(kChunksCompressed, 1);
    codec_.add(kRecordsCompressed, n);
    codec_.add(kEncodedBytes, payload_bytes);
    return off;
}

void
AdjacencyStore::linkNewBlock(uint64_t slot, uint64_t off,
                             VertexChain &chain)
{
    const bool first_block = chain.empty();
    if (!first_block) {
        // Link from the previous tail; that header line is usually
        // still buffered from its own write.
        dev_->writePod<uint64_t>(chain.tail + offsetof(BlockHeader, next),
                                 off);
    }
    if (first_block)
        chain.head = off;
    chain.tail = off;
    // The persistent index holds only the chain head (written once
    // per vertex); the tail is recovered by walking the chain, so
    // growing a chain costs no random index write.
    if (first_block)
        persistIndex(slot, chain);
}

void
AdjacencyStore::append(uint64_t slot, const vid_t *nebrs, uint32_t n,
                       VertexChain &chain)
{
    XPG_ATTR_SCOPE(attrScope, AdjacencyArchive);
    uint32_t remaining = n;
    const vid_t *cursor = nebrs;

    // Fill the tail block's free space first. Compressed tails are
    // sealed (tailCapacity == tailCount), so this branch is raw-only.
    if (!chain.empty() && chain.tailCount < chain.tailCapacity &&
        remaining > 0) {
        const uint32_t take = std::min(
            remaining, chain.tailCapacity - chain.tailCount);
        const uint64_t data_off = chain.tail + sizeof(BlockHeader) +
                                  uint64_t{chain.tailCount} *
                                      sizeof(vid_t);
        dev_->write(data_off, cursor, take * sizeof(vid_t));
        // Commit the grown count with a single 8-byte word carrying the
        // incrementally extended record checksum, into the commit slot
        // *not* holding the previous commit: if this commit reaches the
        // media but part of the payload does not, recovery falls back to
        // the other slot's intact commit.
        uint32_t sum = chain.tailSum;
        for (uint32_t i = 0; i < take; ++i)
            sum += recordSum32(cursor[i], chain.tailCount + i);
        chain.tailCount += take;
        chain.tailSum = sum;
        chain.tailCommitSlot ^= 1;
        chain.records += take;
        dev_->writePod<uint64_t>(
            chain.tail + offsetof(BlockHeader, commit) +
                uint64_t{chain.tailCommitSlot} * sizeof(uint64_t),
            packCommit(chain.tailCount, sum));
        if (proactiveFlush_ && take * sizeof(vid_t) >= kXPLineSize)
            dev_->persist(data_off, take * sizeof(vid_t));
        cursor += take;
        remaining -= take;
    }

    if (remaining > 0 && shouldCompress(cursor, remaining, chain.records)) {
        // Hub run without tombstones: the whole remainder becomes one
        // sealed compressed chunk.
        uint32_t payload_bytes = 0;
        const uint64_t off =
            writeCompressedBlock(cursor, remaining, payload_bytes);
        linkNewBlock(slot, off, chain);
        chain.tailCount = remaining;
        chain.tailCapacity = remaining; // sealed: no tail-fill slack
        chain.tailSum = adjcodec::payloadChecksum(t_encodeScratch.data(),
                                                  payload_bytes);
        chain.tailCommitSlot = 0;
        chain.records += remaining;
        return;
    }

    while (remaining > 0) {
        const uint32_t capacity =
            newBlockCapacity(remaining, chain.records);
        const uint32_t take = std::min(remaining, capacity);
        const uint64_t off = writeBlock(cursor, take, capacity);

        linkNewBlock(slot, off, chain);
        chain.tailCount = take;
        chain.tailCapacity = capacity;
        chain.tailSum = sumRecords(cursor, 0, take, 0);
        chain.tailCommitSlot = 0;
        chain.records += take;

        cursor += take;
        remaining -= take;
    }
}

bool
AdjacencyStore::contains(const VertexChain &chain, vid_t nebr) const
{
    thread_local std::vector<vid_t> scratch;
    uint64_t off = chain.head;
    while (off != kNullOffset) {
        const auto hdr = dev_->readPod<BlockHeader>(off);
        if (hdr.compressed()) {
            bool found = false;
            visitCompressed(off, hdr, [&](vid_t v) {
                if (v == nebr)
                    found = true;
            });
            if (found)
                return true;
        } else {
            const uint32_t count = hdr.liveCount();
            scratch.resize(count);
            if (count > 0) {
                dev_->read(off + sizeof(BlockHeader), scratch.data(),
                           uint64_t{count} * sizeof(vid_t));
                for (vid_t v : scratch)
                    if (v == nebr)
                        return true;
            }
        }
        off = hdr.next;
    }
    return false;
}

CompactResult
AdjacencyStore::compact(uint64_t slot, VertexChain &chain,
                        const CompactHooks *hooks)
{
    CompactResult res;
    if (chain.empty())
        return res;
    constexpr auto cat = telemetry::AccessCategory::Compaction;
    XPG_ATTR_SCOPE(attrScope, Compaction);

    // Footprint of the chain being replaced: logically reclaimed once
    // the head swings (the bump allocator never reuses the space, which
    // is what keeps captured views readable across this rewrite).
    {
        uint64_t off = chain.head;
        while (off != kNullOffset) {
            const auto hdr = dev_->readPod<BlockHeader>(off);
            ++res.blocksAbandoned;
            res.bytesAbandoned += footprintOf(hdr);
            off = hdr.next;
        }
    }

    std::vector<vid_t> raw;
    readRaw(chain, raw);
    res.recordsBefore = static_cast<uint32_t>(raw.size());

    // Apply tombstones: each delete record cancels one earlier insert.
    std::vector<vid_t> live;
    live.reserve(raw.size());
    cancelTombstones(raw, live);

    const uint32_t n = static_cast<uint32_t>(live.size());
    res.recordsAfter = n;
    const uint64_t old_head = chain.head;
    uint64_t off;
    uint64_t durable_bytes;
    uint32_t tail_capacity;
    uint32_t tail_sum;
    // The survivor list is insert-only, so an eligible hub compacts into
    // one compressed chunk — the big read-amplification win for query
    // scans over compacted hubs.
    if (n >= 2 && n >= policy_.minDegree) {
        uint32_t payload_bytes = 0;
        off = writeCompressedBlock(live.data(), n, payload_bytes, cat);
        durable_bytes = sizeof(BlockHeader) + payload_bytes;
        tail_capacity = n; // sealed
        tail_sum = adjcodec::payloadChecksum(t_encodeScratch.data(),
                                             payload_bytes);
    } else {
        const uint32_t capacity = newBlockCapacity(n ? n : 1, 0);
        off = writeBlock(live.data(), n, capacity, cat);
        durable_bytes = sizeof(BlockHeader) + uint64_t{n} * sizeof(vid_t);
        tail_capacity = capacity;
        tail_sum = sumRecords(live.data(), 0, n, 0);
    }
    // Durability fence: compaction swings the index head away from a
    // chain whose edges may be flushed (no longer replayable from the
    // log), so the new block must be fully durable *before* the entry
    // can point at it — otherwise a crash between the two writes loses
    // the old (still durable) chain and the new one together.
    dev_->persist(off, durable_bytes);
    // The journal arms here: new chain durable, old chain still
    // authoritative. A crash between preCommit and postCommit is the
    // torn window recovery resolves from the journal entry.
    if (hooks && hooks->preCommit)
        hooks->preCommit(slot, old_head, off);
    chain.head = off;
    chain.tail = off;
    chain.tailCount = n;
    chain.tailCapacity = tail_capacity;
    chain.tailSum = tail_sum;
    chain.tailCommitSlot = 0;
    chain.records = n;
    persistIndex(slot, chain);
    dev_->persist(indexEntryOff(slot), sizeof(IndexEntry));
    if (hooks && hooks->postCommit)
        hooks->postCommit(slot);
    return res;
}

uint64_t
AdjacencyStore::indexHead(uint64_t slot) const
{
    return dev_->readPod<IndexEntry>(indexEntryOff(slot)).head;
}

uint64_t
AdjacencyStore::countChainBlocks(uint64_t head) const
{
    uint64_t n = 0;
    uint64_t off = head;
    // The hop bound caps a (never observed) next-link cycle in a
    // corrupted chain; any real chain is orders of magnitude shorter.
    while (off != kNullOffset && n < (1u << 20)) {
        if (off + sizeof(BlockHeader) > dev_->capacity())
            break;
        const auto hdr = dev_->readPod<BlockHeader>(off);
        if (hdr.magic != kBlockMagic && hdr.magic != kCompressedMagic)
            break;
        ++n;
        off = hdr.next;
    }
    return n;
}

bool
AdjacencyStore::validateBlock(uint64_t off, BlockHeader &hdr,
                              uint32_t &count, uint32_t &sum,
                              uint8_t &slot, ChainScan &scan) const
{
    const uint64_t region_start = alloc_->regionStart();
    const uint64_t region_end = alloc_->regionEnd();
    if (off < region_start || off % 64 != 0 ||
        off + sizeof(BlockHeader) > region_end)
        return false;
    hdr = dev_->readPod<BlockHeader>(off);
    if ((hdr.magic != kBlockMagic && hdr.magic != kCompressedMagic) ||
        hdr.capacity == 0)
        return false;
    if (off + footprintOf(hdr) > region_end)
        return false;
    if (hdr.next != kNullOffset &&
        (hdr.next < region_start || hdr.next % 64 != 0 ||
         hdr.next + sizeof(BlockHeader) > region_end))
        return false;

    if (hdr.compressed()) {
        // A compressed chunk is sealed with a single commit whose
        // checksum covers the encoded payload; a valid non-empty commit
        // must also decode cleanly to exactly its count. A torn chunk
        // (commit durable, payload not — or vice versa) fails both and
        // falls back to the vacuous zero commit, i.e. the chunk holds
        // nothing durable, exactly like a torn fresh raw block.
        thread_local std::vector<std::byte> payload;
        payload.resize(hdr.capacity);
        {
            XPG_ATTR_SCOPE(codecScope, AdjacencyCodec);
            dev_->read(off + sizeof(BlockHeader), payload.data(),
                       hdr.capacity);
        }
        const uint32_t declared = std::min(
            std::max(static_cast<uint32_t>(hdr.commit[0]),
                     static_cast<uint32_t>(hdr.commit[1])),
            hdr.capacity);
        bool adopted = false;
        for (int s = 0; s < 2; ++s) {
            const uint32_t c = static_cast<uint32_t>(hdr.commit[s]);
            const uint32_t want =
                static_cast<uint32_t>(hdr.commit[s] >> 32);
            if (c == 0 && want == 0) {
                if (!adopted) {
                    count = 0;
                    sum = 0;
                    slot = static_cast<uint8_t>(s);
                    adopted = true;
                }
                continue;
            }
            if (c > hdr.capacity) // >= 1 payload byte per record
                continue;
            if (adjcodec::payloadChecksum(payload.data(), hdr.capacity) !=
                want)
                continue;
            uint32_t decoded = 0;
            if (!adjcodec::decodeRun(payload.data(), hdr.capacity,
                                     [&](vid_t) { ++decoded; }) ||
                decoded != c)
                continue;
            if (!adopted || c > count) {
                count = c;
                sum = want;
                slot = static_cast<uint8_t>(s);
                adopted = true;
            }
        }
        if (adopted && count < declared)
            scan.recordsTruncated += declared - count;
        return adopted;
    }

    // Adopt the commit word with the largest verifying count; a torn
    // payload under the newer commit falls back to the older one. A
    // commit whose count exceeds the capacity is garbage by definition.
    thread_local std::vector<vid_t> scratch;
    const uint32_t count_a = static_cast<uint32_t>(hdr.commit[0]);
    const uint32_t count_b = static_cast<uint32_t>(hdr.commit[1]);
    const uint32_t read_count =
        std::min(std::max(count_a, count_b), hdr.capacity);
    scratch.resize(read_count);
    if (read_count > 0)
        dev_->read(off + sizeof(BlockHeader), scratch.data(),
                   uint64_t{read_count} * sizeof(vid_t));
    bool adopted = false;
    for (int s = 0; s < 2; ++s) {
        const uint32_t c = static_cast<uint32_t>(hdr.commit[s]);
        const uint32_t want = static_cast<uint32_t>(hdr.commit[s] >> 32);
        if (c > hdr.capacity)
            continue;
        if (sumRecords(scratch.data(), 0, c, 0) != want)
            continue;
        if (!adopted || c > count) {
            count = c;
            sum = want;
            slot = static_cast<uint8_t>(s);
            adopted = true;
        }
    }
    if (adopted && count < read_count)
        scan.recordsTruncated += read_count - count;
    return adopted;
}

VertexChain
AdjacencyStore::loadChainValidated(uint64_t slot, ChainScan &scan)
{
    const auto entry = dev_->readPod<IndexEntry>(indexEntryOff(slot));
    VertexChain chain;
    uint64_t off = entry.head;
    uint64_t prev = kNullOffset;
    while (off != kNullOffset) {
        BlockHeader hdr{};
        uint32_t count = 0;
        uint32_t sum = 0;
        uint8_t commit_slot = 0;
        if (!validateBlock(off, hdr, count, sum, commit_slot, scan)) {
            // Truncate to the last consistent prefix and repair the
            // dangling pointer on the device, so the garbage block can
            // never be resurrected (or cross-linked once the allocator
            // reuses its space) by a later recovery.
            ++scan.blocksDropped;
            if (prev == kNullOffset) {
                if (entry.head != kNullOffset)
                    ++scan.invalidIndexEntries;
                chain = VertexChain{};
                dev_->writePod<IndexEntry>(
                    indexEntryOff(slot),
                    IndexEntry{kNullOffset, kNullOffset});
                dev_->persist(indexEntryOff(slot), sizeof(IndexEntry));
            } else {
                dev_->writePod<uint64_t>(
                    prev + offsetof(BlockHeader, next), kNullOffset);
                dev_->persist(prev + offsetof(BlockHeader, next),
                              sizeof(uint64_t));
            }
            break;
        }
        if (chain.head == kNullOffset)
            chain.head = off;
        chain.records += count;
        const uint64_t footprint = footprintOf(hdr);
        scan.referencedBytes += footprint;
        scan.maxReferencedEnd =
            std::max(scan.maxReferencedEnd, off + footprint);
        chain.tail = off;
        chain.tailCount = count;
        // A surviving compressed chunk is sealed: report it full so the
        // raw tail-fill path can never write into its payload.
        chain.tailCapacity = hdr.compressed() ? count : hdr.capacity;
        chain.tailSum = sum;
        chain.tailCommitSlot = commit_slot;
        prev = off;
        off = hdr.next;
    }
    return chain;
}

} // namespace xpg
