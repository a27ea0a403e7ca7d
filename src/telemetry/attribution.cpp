#include "telemetry/attribution.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

namespace xpg::telemetry {

const char *
accessCategoryName(AccessCategory c)
{
    switch (c) {
    case AccessCategory::EdgeLogAppend:
        return "edge_log_append";
    case AccessCategory::AdjacencyArchive:
        return "adjacency_archive";
    case AccessCategory::VertexMeta:
        return "vertex_meta";
    case AccessCategory::AllocatorMeta:
        return "allocator_meta";
    case AccessCategory::Superblock:
        return "superblock";
    case AccessCategory::QueryRead:
        return "query_read";
    case AccessCategory::RecoveryReplay:
        return "recovery_replay";
    case AccessCategory::AdjacencyCodec:
        return "adjacency_codec";
    case AccessCategory::Compaction:
        return "compaction";
    case AccessCategory::Other:
        return "other";
    }
    return "other";
}

const std::array<AccessCategory, kAccessCategoryCount> &
allAccessCategories()
{
    static const std::array<AccessCategory, kAccessCategoryCount> cats = {
        AccessCategory::EdgeLogAppend,    AccessCategory::AdjacencyArchive,
        AccessCategory::VertexMeta,       AccessCategory::AllocatorMeta,
        AccessCategory::Superblock,       AccessCategory::QueryRead,
        AccessCategory::RecoveryReplay,   AccessCategory::AdjacencyCodec,
        AccessCategory::Compaction,       AccessCategory::Other,
    };
    return cats;
}

json::JsonValue
AttributionRow::toJson() const
{
    json::JsonValue v = pcm.toJson();
    v.set("rmw_reads", rmwReads);
    v.set("sub_line_stores", subLineStores);
    return v;
}

PcmCounters
AttributionSnapshot::total() const
{
    PcmCounters t;
    for (const AttributionRow &row : rows)
        t += row.pcm;
    return t;
}

json::JsonValue
AttributionSnapshot::toJson() const
{
    json::JsonValue v = json::JsonValue::object();
    for (const AccessCategory c : allAccessCategories()) {
        const AttributionRow &row = (*this)[c];
        if (row.empty())
            continue;
        v.set(accessCategoryName(c), row.toJson());
    }
    return v;
}

namespace {

/** One category's cells as a row. */
AttributionRow
rowOf(const std::atomic<uint64_t> (&cells)[kAttrFieldCount])
{
    const auto field = [&cells](AttrField f) {
        return cells[static_cast<unsigned>(f)].load(std::memory_order_relaxed);
    };
    AttributionRow row;
    row.pcm.appBytesRead = field(AttrField::AppBytesRead);
    row.pcm.appBytesWritten = field(AttrField::AppBytesWritten);
    row.pcm.mediaBytesRead = field(AttrField::MediaBytesRead);
    row.pcm.mediaBytesWritten = field(AttrField::MediaBytesWritten);
    row.pcm.mediaReadOps = field(AttrField::MediaReadOps);
    row.pcm.mediaWriteOps = field(AttrField::MediaWriteOps);
    row.pcm.bufferHits = field(AttrField::BufferHits);
    row.pcm.remoteAccesses = field(AttrField::RemoteAccesses);
    row.rmwReads = field(AttrField::RmwReads);
    row.subLineStores = field(AttrField::SubLineStores);
    return row;
}

} // namespace

AttributionSnapshot
AttributionTable::snapshot() const
{
    AttributionSnapshot s;
    shards_.forEach([&s](const Shard &shard) {
        for (unsigned c = 0; c < kAccessCategoryCount; ++c)
            s.rows[c] += rowOf(shard.cells[c]);
    });
    return s;
}

LineHeatTable::LineHeatTable(unsigned capacity)
    : perShardCapacity_(std::max(1u, capacity / kShards)),
      slotsPerShard_(std::bit_ceil(2 * perShardCapacity_)),
      filterShift_(64 - std::countr_zero(
                            std::bit_ceil(16 * kShards * perShardCapacity_)))
{
    filter_ = std::make_unique<std::atomic<uint64_t>[]>(filterWords());
    for (Shard &shard : shards_)
        shard.slots = std::make_unique<Slot[]>(slotsPerShard_);
}

LineHeatTable::Slot &
LineHeatTable::probe(Shard &shard, uint64_t line) const
{
    const unsigned shift = 64 - std::countr_zero(slotsPerShard_);
    const size_t mask = slotsPerShard_ - 1;
    // Lines of one shard share line % kShards; Fibonacci-hash the rest
    // onto the shard's 2^(64 - shift) slots.
    size_t i = static_cast<size_t>(((line / kShards) * 0x9E3779B97F4A7C15ull)
                                   >> shift);
    while (shard.slots[i].line != line && shard.slots[i].line != kNoLine)
        i = (i + 1) & mask;
    return shard.slots[i];
}

void
LineHeatTable::touchLocked(uint64_t line, AccessCategory cat, bool is_write)
{
    const unsigned s = line % kShards;
    Shard &shard = shards_[s];
    std::lock_guard<SpinLock> guard(shard.lock);
    Slot &slot = probe(shard, line);
    if (slot.line == kNoLine) {
        if (shard.used == perShardCapacity_) {
            untracked_.add(0, 1);
            return;
        }
        slot.line = line;
        const uint64_t bit = filterBit(line);
        filter_[bit / 64].fetch_or(uint64_t{1} << (bit % 64),
                                   std::memory_order_relaxed);
        if (++shard.used == perShardCapacity_)
            fullShards_.fetch_or(1u << s, std::memory_order_release);
    }
    if (is_write)
        ++slot.writes;
    else
        ++slot.reads;
    ++slot.byCat[static_cast<unsigned>(cat)];
}

std::vector<LineHeatTable::HotLine>
LineHeatTable::top(unsigned n) const
{
    std::vector<HotLine> all;
    for (const Shard &shard : shards_) {
        std::lock_guard<SpinLock> guard(shard.lock);
        for (unsigned i = 0; i < slotsPerShard_; ++i) {
            const Slot &slot = shard.slots[i];
            if (slot.line == kNoLine)
                continue;
            HotLine h;
            h.line = slot.line;
            h.reads = slot.reads;
            h.writes = slot.writes;
            unsigned best = static_cast<unsigned>(AccessCategory::Other);
            uint32_t best_hits = 0;
            for (unsigned c = 0; c < kAccessCategoryCount; ++c) {
                if (slot.byCat[c] > best_hits) {
                    best_hits = slot.byCat[c];
                    best = c;
                }
            }
            h.owner = static_cast<AccessCategory>(best);
            all.push_back(h);
        }
    }
    std::sort(all.begin(), all.end(),
              [](const HotLine &a, const HotLine &b) {
                  const uint64_t ta = a.reads + a.writes;
                  const uint64_t tb = b.reads + b.writes;
                  if (ta != tb)
                      return ta > tb;
                  return a.line < b.line;
              });
    if (all.size() > n)
        all.resize(n);
    return all;
}

uint64_t
LineHeatTable::trackedLines() const
{
    uint64_t tracked = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<SpinLock> guard(shard.lock);
        tracked += shard.used;
    }
    return tracked;
}

uint64_t
LineHeatTable::untrackedTouches() const
{
    return untracked_.sum(0);
}

void
LineHeatTable::reset()
{
    fullShards_.store(0, std::memory_order_relaxed);
    std::fill_n(filter_.get(), filterWords(), 0);
    for (Shard &shard : shards_) {
        std::lock_guard<SpinLock> guard(shard.lock);
        std::fill_n(shard.slots.get(), slotsPerShard_, Slot{});
        shard.used = 0;
    }
    untracked_.reset();
}

} // namespace xpg::telemetry
