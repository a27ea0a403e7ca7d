/**
 * @file
 * Delta + varint codec for compressed adjacency chunk payloads
 * (DESIGN.md §11). A *run* is a sorted batch of insert records (no
 * delete tombstones) flushed for one vertex; it is stored as
 *
 *   RunHeader { count, encodedBytes }            (8 bytes)
 *   varint(first_vid), varint(gap_1), ..., varint(gap_{count-1})
 *
 * where gap_i = vid_i - vid_{i-1} (>= 0; 0 encodes a duplicate record).
 * Sorted hub runs have small gaps, so most records cost 1-2 bytes on the
 * media instead of the 4 raw bytes — the at-the-source cut to archive
 * write traffic that Fig. 3b motivates.
 *
 * Decoding is defensive by construction: decodeRun() never reads past
 * the payload it is given, rejects malformed varints (> 5 bytes or
 * overflow), and requires the stream to consume exactly the byte count
 * the header declares. Torn or truncated payloads additionally fail the
 * block commit checksum (see AdjacencyStore), so a decode here only ever
 * sees self-consistent bytes — the checks are the second line of defense.
 *
 * Header-only: shared by the store's zero-copy visitors, the unit
 * tests, and the codec micro-benchmark.
 */

#ifndef XPG_CORE_ADJACENCY_CODEC_HPP
#define XPG_CORE_ADJACENCY_CODEC_HPP

#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/types.hpp"
#include "util/checksum.hpp"

namespace xpg {
namespace adjcodec {

/** Leading fixed-size header of an encoded run. */
struct RunHeader
{
    uint32_t count;        ///< decoded record count (== block commit count)
    uint32_t encodedBytes; ///< varint stream bytes following this header
};
static_assert(sizeof(RunHeader) == 8);

/** Longest LEB128 encoding of a uint32 value. */
inline constexpr unsigned kMaxVarintBytes = 5;

/** Append the LEB128 encoding of @p v to @p out. */
inline void
encodeValue(std::vector<std::byte> &out, uint32_t v)
{
    while (v >= 0x80u) {
        out.push_back(static_cast<std::byte>((v & 0x7Fu) | 0x80u));
        v >>= 7;
    }
    out.push_back(static_cast<std::byte>(v));
}

/**
 * Decode one LEB128 value from [@p p, @p end).
 * @return bytes consumed, or 0 when the stream is truncated, longer than
 *         kMaxVarintBytes, or overflows 32 bits.
 */
inline unsigned
decodeValue(const std::byte *p, const std::byte *end, uint32_t &v)
{
    uint64_t acc = 0;
    unsigned shift = 0;
    for (unsigned i = 0; i < kMaxVarintBytes; ++i) {
        if (p + i >= end)
            return 0;
        const uint8_t b = static_cast<uint8_t>(p[i]);
        acc |= uint64_t{b & 0x7Fu} << shift;
        if ((b & 0x80u) == 0) {
            if (acc > UINT32_MAX)
                return 0;
            v = static_cast<uint32_t>(acc);
            return i + 1;
        }
        shift += 7;
    }
    return 0; // fifth byte still had the continuation bit set
}

/**
 * Encode @p n sorted records as one run appended to @p out.
 * @p sorted must be ascending, contain no delete records, and n >= 1.
 * @return total payload bytes appended (header + stream).
 */
inline uint64_t
encodeRun(const vid_t *sorted, uint32_t n, std::vector<std::byte> &out)
{
    const size_t base = out.size();
    out.resize(base + sizeof(RunHeader)); // header back-patched below
    encodeValue(out, sorted[0]);
    for (uint32_t i = 1; i < n; ++i)
        encodeValue(out, sorted[i] - sorted[i - 1]);
    const RunHeader hdr{
        n, static_cast<uint32_t>(out.size() - base - sizeof(RunHeader))};
    std::memcpy(out.data() + base, &hdr, sizeof(hdr));
    return out.size() - base;
}

/**
 * Decode one run occupying exactly [@p payload, @p payload +
 * @p payload_bytes), calling @p fn(vid_t) for each record in ascending
 * order. @return false when the header is inconsistent with the payload
 * size, a varint is malformed, or the accumulated ids overflow vid range
 * — without having read out of bounds.
 */
template <typename F>
inline bool
decodeRun(const std::byte *payload, uint64_t payload_bytes, F &&fn)
{
    if (payload_bytes < sizeof(RunHeader))
        return false;
    RunHeader hdr;
    std::memcpy(&hdr, payload, sizeof(hdr));
    if (hdr.count == 0 ||
        uint64_t{hdr.encodedBytes} + sizeof(RunHeader) != payload_bytes ||
        hdr.encodedBytes < hdr.count) // every record costs >= 1 byte
        return false;
    const std::byte *p = payload + sizeof(RunHeader);
    const std::byte *end = p + hdr.encodedBytes;
    uint32_t vid = 0;
    for (uint32_t i = 0; i < hdr.count; ++i) {
        uint32_t v = 0;
        const unsigned used = decodeValue(p, end, v);
        if (used == 0)
            return false;
        p += used;
        const uint64_t next = i == 0 ? uint64_t{v} : uint64_t{vid} + v;
        if (next > kMaxVid)
            return false; // gaps never reach the delete-flag bit
        vid = static_cast<uint32_t>(next);
        fn(static_cast<vid_t>(vid));
    }
    return p == end; // trailing garbage bytes are a malformation too
}

/**
 * Position-mixed checksum over an encoded payload, the compressed
 * counterpart of the raw blocks' per-record sum: stored in the block
 * commit word, so any torn/truncated byte fails validation.
 */
inline uint32_t
payloadChecksum(const std::byte *payload, uint64_t payload_bytes)
{
    uint32_t sum = 0;
    for (uint64_t i = 0; i < payload_bytes; ++i)
        sum += recordSum32(static_cast<uint8_t>(payload[i]),
                           static_cast<uint32_t>(i));
    return sum;
}

} // namespace adjcodec
} // namespace xpg

#endif // XPG_CORE_ADJACENCY_CODEC_HPP
