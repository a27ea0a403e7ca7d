#include "graph/snapshot.hpp"

#include "pmem/dram_device.hpp"

namespace xpg {

Snapshot::Snapshot(const GraphView &source, uint64_t epoch) : epoch_(epoch)
{
    const vid_t nv = source.numVertices();
    outOffsets_.reserve(uint64_t{nv} + 1);
    inOffsets_.reserve(uint64_t{nv} + 1);
    outOffsets_.push_back(0);
    inOffsets_.push_back(0);
    for (vid_t v = 0; v < nv; ++v) {
        source.getNebrsOut(v, outAdj_);
        outOffsets_.push_back(outAdj_.size());
        source.getNebrsIn(v, inAdj_);
        inOffsets_.push_back(inAdj_.size());
    }
    chargeDramSequential(
        (outOffsets_.size() + inOffsets_.size()) * sizeof(uint64_t) +
        (outAdj_.size() + inAdj_.size()) * sizeof(vid_t));
}

uint32_t
Snapshot::forEachNebrOut(vid_t v, NebrVisitor fn) const
{
    const auto begin = outOffsets_[v];
    const auto end = outOffsets_[v + 1];
    chargeDramSequential((end - begin) * sizeof(vid_t) + sizeof(uint64_t));
    for (auto i = begin; i < end; ++i)
        fn(outAdj_[i]);
    return static_cast<uint32_t>(end - begin);
}

uint32_t
Snapshot::forEachNebrIn(vid_t v, NebrVisitor fn) const
{
    const auto begin = inOffsets_[v];
    const auto end = inOffsets_[v + 1];
    chargeDramSequential((end - begin) * sizeof(vid_t) + sizeof(uint64_t));
    for (auto i = begin; i < end; ++i)
        fn(inAdj_[i]);
    return static_cast<uint32_t>(end - begin);
}

} // namespace xpg
