#include "graph/edge_sharding.hpp"

#include "util/logging.hpp"

namespace xpg {

std::vector<ShardAssignment>
assignShards(const std::vector<std::vector<Edge>> &shards,
             unsigned num_workers)
{
    XPG_ASSERT(num_workers > 0, "need at least one worker");
    uint64_t total = 0;
    for (const auto &s : shards)
        total += s.size();

    std::vector<ShardAssignment> result;
    result.reserve(num_workers);
    const uint64_t target =
        (total + num_workers - 1) / num_workers;

    unsigned cursor = 0;
    for (unsigned w = 0; w < num_workers && cursor < shards.size(); ++w) {
        ShardAssignment a{cursor, cursor};
        uint64_t taken = 0;
        const unsigned workers_left = num_workers - w;
        const unsigned shards_left =
            static_cast<unsigned>(shards.size()) - cursor;
        // Never take so many shards that later workers would get none.
        const unsigned max_take = shards_left - (workers_left - 1) < 1
                                      ? 1
                                      : shards_left - (workers_left - 1);
        while (a.lastShard < shards.size() &&
               (taken == 0 || taken + shards[a.lastShard].size() <= target)
               && (a.lastShard - a.firstShard) < max_take) {
            taken += shards[a.lastShard].size();
            ++a.lastShard;
        }
        cursor = a.lastShard;
        result.push_back(a);
    }
    // Tail shards (if any) go to the last worker.
    if (cursor < shards.size() && !result.empty())
        result.back().lastShard = static_cast<unsigned>(shards.size());
    return result;
}

} // namespace xpg
