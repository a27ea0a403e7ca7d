/**
 * @file
 * Fundamental graph types. Vertex ids are 4 bytes (the paper's neighbor
 * write granularity); the MSB of a stored neighbor id flags a deletion
 * record, following the GraphOne convention.
 */

#ifndef XPG_GRAPH_TYPES_HPP
#define XPG_GRAPH_TYPES_HPP

#include <cstdint>

namespace xpg {

/** Vertex identifier; bit 31 is reserved for the delete flag. */
using vid_t = uint32_t;

/** Delete flag on a stored neighbor / edge destination. */
constexpr vid_t kDeleteFlag = 1u << 31;

/** Maximum addressable vertex id. */
constexpr vid_t kMaxVid = kDeleteFlag - 1;

/** True when @p v carries the delete flag. */
constexpr bool
isDelete(vid_t v)
{
    return (v & kDeleteFlag) != 0;
}

/** @p v without the delete flag. */
constexpr vid_t
rawVid(vid_t v)
{
    return v & ~kDeleteFlag;
}

/** Set the delete flag on @p v. */
constexpr vid_t
asDelete(vid_t v)
{
    return v | kDeleteFlag;
}

/** A directed edge record; dst may carry the delete flag. */
struct Edge
{
    vid_t src;
    vid_t dst;

    bool operator==(const Edge &) const = default;
};

static_assert(sizeof(Edge) == 8, "edge records are 8 bytes");

/**
 * The edge→side rule: every edge is stored twice, in the out-adjacency
 * of its source and the in-adjacency of its destination. This is the
 * vertex whose @p out (else in) adjacency holds @p e.
 */
constexpr vid_t
sideVertex(const Edge &e, bool out)
{
    return out ? e.src : rawVid(e.dst);
}

/** The record @p e leaves there: the destination (delete flag
 *  included), or on the in-side the source carrying the edge's delete
 *  flag. */
constexpr vid_t
sideRecord(const Edge &e, bool out)
{
    if (out)
        return e.dst;
    return isDelete(e.dst) ? asDelete(e.src) : e.src;
}

} // namespace xpg

#endif // XPG_GRAPH_TYPES_HPP
