/**
 * @file
 * Delete-record (tombstone) cancellation shared by all stores: a delete
 * record cancels one earlier insert of the same neighbor id.
 *
 * The streaming form (cancelTombstonesVisit) tracks only the neighbor
 * ids that actually have delete records — a small stack-resident set in
 * the common case — instead of folding every record through a heap
 * hash map. Records whose id is never deleted are emitted immediately
 * in arrival order; tracked ids are emitted after the fold (the
 * relative order of survivors under deletes is unspecified, as before).
 *
 * visitLiveRecords is the read every store builds on it: a store
 * describes one vertex's record stream, and the helper decides between
 * streaming it straight through and gathering it for cancellation.
 */

#ifndef XPG_GRAPH_TOMBSTONES_HPP
#define XPG_GRAPH_TOMBSTONES_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace xpg {

namespace detail {

/** Tracked neighbor id: one per distinct delete target. */
struct TombstoneSlot
{
    vid_t id;
    int64_t live; ///< net live inserts folded so far
};

/**
 * Fold @p raw against the tracked delete targets in @p slots
 * [0, n_slots), emitting untracked inserts straight to @p fn.
 * @return live records emitted (including deferred tracked emits).
 */
template <typename F>
inline uint32_t
foldTracked(std::span<const vid_t> raw, TombstoneSlot *slots,
            size_t n_slots, F &&fn)
{
    // Per-record linear probing is O(records x slots) — quadratic under
    // pathological fan-out where most records are tracked. Above a
    // cache-friendly handful of slots, sort the tracked ids once and
    // binary-search instead. The deferred emit order follows slot order,
    // which is unspecified either way.
    constexpr size_t kLinearMaxSlots = 16;
    if (n_slots > kLinearMaxSlots) {
        std::sort(slots, slots + n_slots,
                  [](const TombstoneSlot &a, const TombstoneSlot &b) {
                      return a.id < b.id;
                  });
    }
    auto find = [&](vid_t id) -> TombstoneSlot * {
        if (n_slots <= kLinearMaxSlots) {
            for (size_t i = 0; i < n_slots; ++i)
                if (slots[i].id == id)
                    return &slots[i];
            return nullptr;
        }
        TombstoneSlot *const end = slots + n_slots;
        TombstoneSlot *const it = std::lower_bound(
            slots, end, id,
            [](const TombstoneSlot &s, vid_t key) { return s.id < key; });
        return it != end && it->id == id ? it : nullptr;
    };
    uint32_t n = 0;
    for (vid_t v : raw) {
        if (isDelete(v)) {
            TombstoneSlot *s = find(rawVid(v));
            if (s && s->live > 0)
                --s->live;
        } else if (TombstoneSlot *s = find(v)) {
            ++s->live;
        } else {
            fn(v);
            ++n;
        }
    }
    for (size_t i = 0; i < n_slots; ++i) {
        for (int64_t k = 0; k < slots[i].live; ++k) {
            fn(slots[i].id);
            ++n;
        }
    }
    return n;
}

/** visitLiveRecords' gather buffer: one per thread, all stores. */
inline std::vector<vid_t> &
liveScratch()
{
    thread_local std::vector<vid_t> raw;
    return raw;
}

} // namespace detail

/**
 * Emit the live neighbors of @p raw (records in arrival order, possibly
 * containing delete-flagged entries) through @p fn(vid_t).
 * @return the number of live neighbors emitted.
 */
template <typename F>
inline uint32_t
cancelTombstonesVisit(std::span<const vid_t> raw, F &&fn)
{
    // Distinct delete targets; nearly always few enough for the stack.
    constexpr size_t kStackSlots = 64;
    detail::TombstoneSlot stack_slots[kStackSlots];
    size_t n_slots = 0;
    bool spilled = false;
    for (vid_t v : raw) {
        if (!isDelete(v))
            continue;
        const vid_t id = rawVid(v);
        bool known = false;
        for (size_t i = 0; i < n_slots; ++i) {
            if (stack_slots[i].id == id) {
                known = true;
                break;
            }
        }
        if (known)
            continue;
        if (n_slots == kStackSlots) {
            spilled = true;
            break;
        }
        stack_slots[n_slots++] = detail::TombstoneSlot{id, 0};
    }

    if (!spilled)
        return detail::foldTracked(raw, stack_slots, n_slots, fn);

    // Pathological tombstone fan-out: spill the tracked set to the heap.
    // Dedup by sort+unique — a per-target linear rescan here would keep
    // the whole fold quadratic, which is exactly the degradation
    // BM_TombstoneFold pins down.
    std::vector<vid_t> targets;
    for (vid_t v : raw)
        if (isDelete(v))
            targets.push_back(rawVid(v));
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    std::vector<detail::TombstoneSlot> heap_slots;
    heap_slots.reserve(targets.size());
    for (vid_t id : targets)
        heap_slots.push_back(detail::TombstoneSlot{id, 0});
    return detail::foldTracked(raw, heap_slots.data(), heap_slots.size(),
                               fn);
}

/**
 * The one way a store reads a vertex. @p stream(emit) sends every record
 * the store holds for the vertex, delete records included, to @p emit in
 * arrival order and returns how many it sent. Without a delete record
 * among them (@p has_deletes false) they stream straight to @p fn;
 * otherwise they are gathered once into a per-thread scratch and
 * cancelled with cancelTombstonesVisit. The stream runs exactly once on
 * either path, so its modeled charges do not depend on the branch.
 * @p fn must not read another vertex (the scratch is per thread).
 * @return live neighbors emitted.
 */
template <typename Stream, typename F>
inline uint32_t
visitLiveRecords(bool has_deletes, Stream &&stream, F &&fn)
{
    if (!has_deletes)
        return stream(fn);
    std::vector<vid_t> &raw = detail::liveScratch();
    raw.clear();
    stream([&raw](vid_t rec) { raw.push_back(rec); });
    return cancelTombstonesVisit(raw, fn);
}

/**
 * Append the live neighbors of @p raw to @p out.
 * @return the number of live neighbors appended.
 */
inline uint32_t
cancelTombstones(const std::vector<vid_t> &raw, std::vector<vid_t> &out)
{
    bool any_delete = false;
    for (vid_t v : raw) {
        if (isDelete(v)) {
            any_delete = true;
            break;
        }
    }
    if (!any_delete) {
        out.insert(out.end(), raw.begin(), raw.end());
        return static_cast<uint32_t>(raw.size());
    }
    return cancelTombstonesVisit(raw, [&](vid_t v) { out.push_back(v); });
}

} // namespace xpg

#endif // XPG_GRAPH_TOMBSTONES_HPP
