/**
 * @file
 * Granularity constants of the modeled Intel Optane PMEM 200 device.
 */

#ifndef XPG_PMEM_XPLINE_HPP
#define XPG_PMEM_XPLINE_HPP

#include <cstdint>

namespace xpg {

/** Physical access granularity of the 3D-XPoint media (bytes). */
constexpr uint64_t kXPLineSize = 256;

/** CPU cache line size (bytes); granularity of stores reaching the iMC. */
constexpr uint64_t kCacheLineSize = 64;

/** Line index containing byte offset @p off. */
constexpr uint64_t
xplineOf(uint64_t off)
{
    return off / kXPLineSize;
}

/** Round @p v up to a multiple of @p align (power of two). */
constexpr uint64_t
alignUp(uint64_t v, uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

} // namespace xpg

#endif // XPG_PMEM_XPLINE_HPP
