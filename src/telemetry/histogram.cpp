#include "telemetry/histogram.hpp"

#include <algorithm>

namespace xpg::telemetry {

double
Histogram::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the target sample, 1-based.
    const double rank = q * static_cast<double>(count);
    uint64_t cum = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
        if (buckets[b] == 0)
            continue;
        const uint64_t prev = cum;
        cum += buckets[b];
        if (static_cast<double>(cum) < rank)
            continue;
        const double lo = static_cast<double>(bucketLo(b));
        const double hi = static_cast<double>(bucketHi(b));
        const double within =
            (rank - static_cast<double>(prev)) /
            static_cast<double>(buckets[b]);
        const double est = lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
        // Never report beyond the observed maximum.
        return std::min(est, static_cast<double>(maxValue));
    }
    return static_cast<double>(maxValue);
}

json::JsonValue
Histogram::toJson() const
{
    json::JsonValue v = json::JsonValue::object();
    v.set("count", count);
    v.set("sum", sum);
    v.set("mean", mean());
    v.set("p50", quantile(0.50));
    v.set("p95", quantile(0.95));
    v.set("p99", quantile(0.99));
    v.set("max", maxValue);
    return v;
}

Histogram
ShardedHistogram::snapshot() const
{
    Histogram out;
    shards_.forEach([&out](const Shard &shard) {
        for (unsigned b = 0; b < Histogram::kBuckets; ++b)
            out.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
        out.count += shard.count.load(std::memory_order_relaxed);
        out.sum += shard.sum.load(std::memory_order_relaxed);
        const uint64_t m = shard.maxValue.load(std::memory_order_relaxed);
        if (m > out.maxValue)
            out.maxValue = m;
    });
    return out;
}

void
ShardedHistogram::resetValues()
{
    shards_.forEach([](Shard &shard) {
        for (unsigned b = 0; b < Histogram::kBuckets; ++b)
            shard.buckets[b].store(0, std::memory_order_relaxed);
        shard.count.store(0, std::memory_order_relaxed);
        shard.sum.store(0, std::memory_order_relaxed);
        shard.maxValue.store(0, std::memory_order_relaxed);
    });
}

} // namespace xpg::telemetry
