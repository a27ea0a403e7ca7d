#include "core/log_window_index.hpp"

#include <algorithm>

namespace xpg {

LogWindowIndex::LogWindowIndex(const CircularEdgeLog &log,
                               vid_t num_vertices)
    : log_(&log), numVertices_(num_vertices), capacity_(log.capacity())
{
    // Ring and heads are allocated on first real use (ensureCurrent with
    // a non-empty window), so an instance costs nothing until the first
    // log-window query.
}

void
LogWindowIndex::ensureCurrent()
{
    const uint64_t target = log_->head();
    if (indexedUpTo_.load(std::memory_order_acquire) >= target)
        return;

    std::lock_guard<std::mutex> lock(buildMutex_);
    const uint64_t indexed = indexedUpTo_.load(std::memory_order_relaxed);
    if (indexed >= target)
        return;
    // Positions below bufferedUpTo left the window unindexed: skip them.
    // A skipped position is never needed later — every open view's
    // window was fully indexed at open time (while bufferedUpTo was
    // frozen under the archive lock), so gaps only ever lie below every
    // live lower bound.
    const uint64_t from = std::max(indexed, log_->bufferedUpTo());
    if (from >= target) {
        indexedUpTo_.store(target, std::memory_order_release);
        return;
    }

    if (!built_.load(std::memory_order_relaxed)) {
        ring_ = zeroedArray<Entry>(capacity_);
        for (auto &heads : heads_)
            heads = zeroedArray<uint64_t>(numVertices_);
        built_.store(true, std::memory_order_release);
    }

    buildScratch_.clear();
    log_->readRange(from, target, buildScratch_); // device-charged read
    // DRAM cost of the index extension: a sequential stream of entry
    // writes plus two scattered head-pointer updates per edge.
    chargeDramSequential(buildScratch_.size() * sizeof(Entry));
    chargeDramScattered(2 * buildScratch_.size());
    for (uint64_t i = 0; i < buildScratch_.size(); ++i) {
        const Edge &edge = buildScratch_[i];
        const uint64_t pos = from + i;
        Entry &e = ring_[pos % capacity_];
        // Payload first, then the position (release): a concurrent
        // reader that sees pos match reads a fully written entry. The
        // slot being rewritten is never concurrently readable — its old
        // position is below the log's reclaim floor (lap safety).
        e.edge = edge;
        for (unsigned d = 0; d < 2; ++d)
            e.prev[d] = std::atomic_ref<uint64_t>(
                            heads_[d][sideVertex(edge, d == 0)])
                            .load(std::memory_order_relaxed);
        std::atomic_ref<uint64_t>(e.pos).store(pos + 1,
                                               std::memory_order_release);
        for (unsigned d = 0; d < 2; ++d)
            std::atomic_ref<uint64_t>(heads_[d][sideVertex(edge, d == 0)])
                .store(pos + 1, std::memory_order_release);
    }
    indexedUpTo_.store(target, std::memory_order_release);
}

} // namespace xpg
