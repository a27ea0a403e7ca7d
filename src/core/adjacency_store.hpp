/**
 * @file
 * PMEM-resident per-vertex adjacency storage: chained blocks plus a
 * persistent vertex index, one store per (NUMA partition, direction).
 *
 * Blocks are only appended (whole vertex-buffer flushes), so writes are
 * XPLine-aligned streams — the access pattern the whole design exists to
 * produce. The persistent index (16 bytes per vertex slot: chain head and
 * tail offsets) is what makes recovery an index rebuild instead of a full
 * re-archive (paper S V-D).
 *
 * Two block formats coexist on the same chain (DESIGN.md §11):
 *  - raw blocks (kBlockMagic): 4-byte records, tail-filled in place with
 *    dual alternating commit words;
 *  - compressed chunks (kCompressedMagic): a sorted insert-only run,
 *    delta-encoded and varint-packed (adjacency_codec.hpp). Compressed
 *    chunks are *sealed* exact-fit writes — header + payload leave the
 *    CPU as one aligned stream, are never tail-filled, and their commit
 *    word checksums the encoded payload so a torn chunk is rejected by
 *    recovery exactly like a torn raw block.
 * The format choice is degree-aware (CompressionPolicy): hub runs are
 * compressed, low-degree vertices stay raw.
 */

#ifndef XPG_CORE_ADJACENCY_STORE_HPP
#define XPG_CORE_ADJACENCY_STORE_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "core/adjacency_codec.hpp"
#include "core/stats.hpp"
#include "graph/types.hpp"
#include "pmem/memory_device.hpp"
#include "pmem/pmem_allocator.hpp"
#include "telemetry/attribution.hpp"
#include "util/thread_shards.hpp"

namespace xpg {

/** DRAM-cached view of one vertex's PMEM block chain. */
struct VertexChain
{
    uint64_t head = kNullOffset;  ///< first block, kNullOffset if none
    uint64_t tail = kNullOffset;  ///< last block
    uint32_t tailCount = 0;       ///< records stored in the tail block
    uint32_t tailCapacity = 0;    ///< record capacity of the tail block
    uint32_t records = 0;         ///< records across the whole chain
    uint32_t tailSum = 0;         ///< running record checksum of the tail
    uint8_t tailCommitSlot = 0;   ///< commit word holding the tail commit

    bool empty() const { return head == kNullOffset; }
};

/** What a validated chain scan found and repaired (recovery report). */
struct ChainScan
{
    uint64_t blocksDropped = 0;     ///< blocks failing validation, unlinked
    uint64_t recordsTruncated = 0;  ///< records rolled back to older commit
    uint64_t invalidIndexEntries = 0; ///< index heads out of bounds
    uint64_t referencedBytes = 0;   ///< footprint of surviving blocks
    uint64_t maxReferencedEnd = 0;  ///< highest offset a block reaches
};

/**
 * When the archiver writes a vertex's run as a compressed chunk instead
 * of a raw block. Compression applies only when a *new* block is chained
 * (raw tail slack is always filled first — cheapest in media traffic),
 * only to runs without delete records, and only once the vertex's
 * degree (stored + pending) reaches minDegree: hubs are where the
 * archive traffic concentrates and where sorted runs delta-encode well;
 * low-degree vertices keep the raw format and the untouched
 * hierarchical vertex-buffer path.
 */
struct CompressionPolicy
{
    /** Stored + pending records gating compression; the default,
     *  above every degree, never compresses (byte-exact legacy
     *  behavior). */
    uint32_t minDegree = UINT32_MAX;
};

/**
 * Callbacks bracketing compact()'s commit point — the engine's
 * crash-safety journal plants itself here (DESIGN.md §13):
 *  - preCommit fires once the replacement block is *fully durable* but
 *    before the index head swings away from the old chain;
 *  - postCommit fires once the swung index entry is durable.
 * A crash before preCommit leaves the old chain authoritative (the new
 * block is a leak); a crash between the two leaves a journal entry that
 * recovery resolves to whichever head the index already holds.
 */
struct CompactHooks
{
    std::function<void(uint64_t slot, uint64_t old_head,
                       uint64_t new_head)>
        preCommit;
    std::function<void(uint64_t slot)> postCommit;
};

/** What one chain compaction did (compaction stats + bench rows). */
struct CompactResult
{
    uint32_t recordsBefore = 0;  ///< records on the replaced chain
    uint32_t recordsAfter = 0;   ///< survivors on the new chain
    uint32_t blocksAbandoned = 0; ///< old blocks made unreachable
    uint64_t bytesAbandoned = 0; ///< their device footprint
};

/**
 * Append-only adjacency block chains over a device region.
 * Thread-safety: concurrent calls must target distinct slots (guaranteed
 * by edge sharding); the allocator and device are themselves thread-safe.
 */
class AdjacencyStore
{
  public:
    /**
     * On-device block header. A block is self-validating: the live
     * record count is not a bare integer but a *commit word* packing
     * count (low 32) and a position-mixed checksum (high 32) — written
     * as a single 8-byte store, which PMEM's failure atomicity makes
     * untearable. Raw blocks alternate two commit words so an in-place
     * tail append that crashes mid-way (payload partially durable, new
     * commit durable) falls back to the previous commit instead of
     * invalidating records committed long ago; recovery adopts the
     * commit with the largest verifying count. Compressed chunks are
     * sealed at write time: only commit[0] is ever set, and its checksum
     * covers the encoded payload bytes rather than 4-byte records.
     *
     * `capacity` is format-dependent: record capacity for raw blocks,
     * exact payload *byte* length for compressed chunks (sealed blocks
     * have no slack, which is also what lets readers charge exactly the
     * encoded bytes).
     */
    struct BlockHeader
    {
        uint32_t magic;     ///< kBlockMagic or kCompressedMagic
        uint32_t capacity;  ///< records (raw) / payload bytes (compressed)
        uint64_t next;      ///< next block offset or kNullOffset
        uint64_t commit[2]; ///< alternating {count | sum32 << 32} words

        /** Runtime record count (coherent backing: larger commit wins). */
        uint32_t
        liveCount() const
        {
            const uint32_t a = static_cast<uint32_t>(commit[0]);
            const uint32_t b = static_cast<uint32_t>(commit[1]);
            return a > b ? a : b;
        }

        bool compressed() const { return magic == kCompressedMagic; }
    };
    static_assert(sizeof(BlockHeader) == 32);

    static constexpr uint32_t kBlockMagic = 0x42415058u;      // "XPAB"
    static constexpr uint32_t kCompressedMagic = 0x43415058u; // "XPAC"

    /** Aligned device footprint of a raw block with @p capacity records. */
    static uint64_t blockBytes(uint32_t capacity);

    /** Aligned device footprint of a compressed chunk whose payload
     *  (run header + varint stream) is @p payload_bytes long. */
    static uint64_t compressedBlockBytes(uint32_t payload_bytes);

    /** Footprint of @p hdr's block, whichever format it uses. */
    static uint64_t
    footprintOf(const BlockHeader &hdr)
    {
        return hdr.compressed() ? compressedBlockBytes(hdr.capacity)
                                : blockBytes(hdr.capacity);
    }

    /**
     * Persistent per-slot index entry. Only `head` is authoritative:
     * it is written once when the chain is created (and on compaction),
     * so chain growth costs no random index writes; recovery finds the
     * tail by walking the chain's next pointers. `tail` is a hint that
     * is only refreshed on compaction.
     */
    struct IndexEntry
    {
        uint64_t head;
        uint64_t tail;
    };
    static_assert(sizeof(IndexEntry) == 16);

    /** Bytes of persistent index needed for @p num_slots. */
    static uint64_t
    indexBytes(uint64_t num_slots)
    {
        return num_slots * sizeof(IndexEntry);
    }

    /**
     * @param dev Device holding index and blocks.
     * @param alloc Block allocator (region on the same device).
     * @param index_off Device offset of the persistent index region.
     * @param num_slots Vertex slots this store owns.
     * @param proactive_flush clwb adjacency writes of >= one XPLine.
     * @param policy When archived runs become compressed chunks.
     */
    AdjacencyStore(MemoryDevice &dev, PmemAllocator &alloc,
                   uint64_t index_off, uint64_t num_slots,
                   bool proactive_flush, CompressionPolicy policy = {});

    /** Cumulative codec activity of this store (encode + decode). */
    CompressionStats compressionStats() const;

    /**
     * Append @p n neighbor records to @p slot's chain, filling the tail
     * block first and allocating degree-proportional new blocks as
     * needed. Updates @p chain (the caller's DRAM mirror) and the
     * persistent index.
     */
    void append(uint64_t slot, const vid_t *nebrs, uint32_t n,
                VertexChain &chain);

    /**
     * Stream every record of @p chain (including delete tombstones)
     * through @p fn(vid_t) in place via zero-copy device views (every
     * device charges a view exactly like a copying read). Compressed
     * chunks decode in place from the (smaller) payload view, so
     * queries read fewer media bytes than the raw format would; their
     * records come out in ascending order (within the chunk).
     *
     * With @p frozen, @p chain is a *captured* mirror and only its
     * frozen prefix is streamed — the point-in-time read used by open
     * views while the archiver keeps appending to the live chain. Safe
     * without any synchronization because appends only ever touch bytes
     * the capture excludes:
     *
     *  - append() fills the tail block's slack before linking a new
     *    block, so when a block's `next` is written the block was full —
     *    every non-tail block (header fields and payload) is immutable
     *    after capture and is read like any other.
     *  - The captured tail may still be tail-filled concurrently, so
     *    only its first records are visited: @p chain.tailCount bounds
     *    the payload read, and neither its commit words nor its `next`
     *    (both mutable) are ever read — only the magic/capacity words,
     *    which are written once at block creation. All concurrent
     *    writes land at byte addresses this traversal never touches.
     *
     * Old blocks abandoned by compact() stay readable forever (the
     * allocator never reuses space), so a captured chain outlives
     * concurrent compaction too.
     * @return records visited.
     */
    template <typename F>
    uint32_t
    forEachRaw(const VertexChain &chain, F &&fn, bool frozen = false) const
    {
        uint32_t total = 0;
        uint64_t off = chain.head;
        while (off != kNullOffset) {
            const BlockHeader hdr = frozen && off == chain.tail
                                        ? frozenTailHeader(chain)
                                        : dev_->readPod<BlockHeader>(off);
            if (hdr.compressed()) {
                total += visitCompressed(off, hdr, fn);
            } else {
                const uint32_t count = hdr.liveCount();
                if (count > 0) {
                    const auto *recs = reinterpret_cast<const vid_t *>(
                        dev_->readView(off + sizeof(BlockHeader),
                                       uint64_t{count} * sizeof(vid_t)));
                    for (uint32_t i = 0; i < count; ++i)
                        fn(recs[i]);
                }
                total += count;
            }
            off = hdr.next;
        }
        return total;
    }

    /** forEachRaw() appended to @p out. @return records appended. */
    uint32_t
    readRaw(const VertexChain &chain, std::vector<vid_t> &out) const
    {
        return forEachRaw(chain, [&out](vid_t v) { out.push_back(v); });
    }

    /** Whether the chain contains record @p nebr (recovery dedup). */
    bool contains(const VertexChain &chain, vid_t nebr) const;

    /**
     * Rewrite @p slot's chain as a single block with tombstones applied
     * (Table I compact_adjs). Old blocks are abandoned to the
     * log-structured allocator (never reused, so captured views keep
     * reading them). The output run is insert-only, so an eligible
     * vertex compacts into one compressed chunk. Copy-on-write order:
     * new block written + persisted, then (@p hooks->preCommit) the
     * index head swings and is persisted (@p hooks->postCommit) — a
     * crash at any media write leaves the old or the new chain fully
     * intact. The rewrite's traffic is blamed on Compaction.
     */
    CompactResult compact(uint64_t slot, VertexChain &chain,
                          const CompactHooks *hooks = nullptr);

    /**
     * Rebuild the DRAM chain mirror of @p slot from the device, crash-safe:
     * validates every block (magic, bounds, commit checksum — for
     * compressed chunks the checksum covers the encoded payload and the
     * varint stream must decode cleanly) and truncates the chain at the
     * first invalid one, repairing the dangling link / index entry on the
     * device so a later crash cannot resurrect the garbage. Thread-safe
     * for distinct slots; @p scan accumulates what was found (caller
     * merges).
     */
    VertexChain loadChainValidated(uint64_t slot, ChainScan &scan);

    /** The persistent index head of @p slot as currently on the device
     *  (not the DRAM mirror) — what recovery compares a compaction
     *  journal entry's newHead against to classify the torn side. */
    uint64_t indexHead(uint64_t slot) const;

    /** Blocks reachable from @p head via next links, stopping at the
     *  first header failing the cheap shape checks (magic, in-device
     *  bounds). Sizes a reclaimed chain during recovery; bounded, and
     *  safe on garbage. */
    uint64_t countChainBlocks(uint64_t head) const;

  private:
    uint64_t indexEntryOff(uint64_t slot) const;
    void persistIndex(uint64_t slot, const VertexChain &chain);

    /**
     * Validate one block at @p off. On success fills count/sum/slot of
     * the adopted commit and returns true.
     */
    bool validateBlock(uint64_t off, BlockHeader &hdr, uint32_t &count,
                       uint32_t &sum, uint8_t &slot, ChainScan &scan) const;

    /** Record capacity for a new block given pending and stored counts. */
    uint32_t newBlockCapacity(uint32_t pending, uint32_t stored) const;

    /** Allocate and write a fresh raw block holding @p n records;
     *  @p cat is the category the write traffic is blamed on. */
    uint64_t writeBlock(const vid_t *nebrs, uint32_t n, uint32_t capacity,
                        telemetry::AccessCategory cat =
                            telemetry::AccessCategory::AdjacencyArchive);

    /** Whether @p policy_ compresses this run when chaining a new block:
     *  enabled, degree reached, and no delete records in the run. */
    bool shouldCompress(const vid_t *nebrs, uint32_t n,
                        uint32_t stored) const;

    /** Allocate and write a sealed compressed chunk of the run
     *  (sorted copy, delta+varint encode, checksummed commit).
     *  @return the block offset. */
    uint64_t writeCompressedBlock(const vid_t *nebrs, uint32_t n,
                                  uint32_t &payload_bytes,
                                  telemetry::AccessCategory cat =
                                      telemetry::AccessCategory::
                                          AdjacencyArchive);

    /** Link a fresh block at @p off into @p chain (shared by the raw
     *  and compressed paths); persists the index for a first block. */
    void linkNewBlock(uint64_t slot, uint64_t off, VertexChain &chain);

    /**
     * The captured tail's header as a frozen forEachRaw() sees it: only
     * the creation-time magic and capacity come from the device; the
     * captured count and the end of the chain stand in for the racing
     * commit words and `next`.
     */
    BlockHeader
    frozenTailHeader(const VertexChain &chain) const
    {
        BlockHeader hdr{};
        hdr.magic = dev_->readPod<uint32_t>(chain.tail);
        hdr.capacity =
            dev_->readPod<uint32_t>(chain.tail + sizeof(uint32_t));
        hdr.next = kNullOffset;
        hdr.commit[0] = chain.tailCount;
        return hdr;
    }

    /** Decode the chunk at @p off through @p fn, charging exactly the
     *  payload bytes under the AdjacencyCodec scope. */
    template <typename F>
    uint32_t
    visitCompressed(uint64_t off, const BlockHeader &hdr, F &&fn) const
    {
        const uint32_t count = hdr.liveCount();
        if (count == 0 || hdr.capacity == 0)
            return 0;
        XPG_ATTR_SCOPE(codecScope, AdjacencyCodec);
        const std::byte *payload =
            dev_->readView(off + sizeof(BlockHeader), hdr.capacity);
        uint32_t emitted = 0;
        adjcodec::decodeRun(payload, hdr.capacity, [&](vid_t v) {
            fn(v);
            ++emitted;
        });
        codec_.add(kDecodeCalls, 1);
        codec_.add(kDecodedRecords, emitted);
        return emitted;
    }

    MemoryDevice *dev_;
    PmemAllocator *alloc_;
    uint64_t indexOff_;
    uint64_t numSlots_;
    bool proactiveFlush_;
    CompressionPolicy policy_;

    // codec accounting in per-thread cells (archive workers encode,
    // queries decode on many threads; exact totals in any order)
    enum : unsigned
    {
        kChunksCompressed,
        kRecordsCompressed,
        kEncodedBytes,
        kDecodeCalls,
        kDecodedRecords,
    };
    mutable ShardedCounters<5> codec_;
};

} // namespace xpg

#endif // XPG_CORE_ADJACENCY_STORE_HPP
