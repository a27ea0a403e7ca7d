/**
 * @file
 * Log2-bucketed latency histograms.
 *
 * Two layers:
 *
 *  - Histogram: a plain, single-threaded histogram of uint64 samples
 *    (simulated nanoseconds throughout this codebase). Bucket b holds
 *    samples whose bit width is b, i.e. bucket 0 is {0}, bucket 1 is
 *    {1}, bucket 2 is [2,3], bucket 3 is [4,7], ... — 65 buckets cover
 *    the full uint64 range. Quantiles interpolate linearly inside the
 *    winning bucket and are clamped to the observed max, which keeps
 *    p99 honest for spiky distributions.
 *
 *  - ShardedHistogram: the concurrent recording front. Each recording
 *    thread lazily acquires a private shard (a ThreadShards shard of
 *    relaxed-atomic buckets, so a concurrent snapshot() is race-free
 *    under TSAN); snapshot() merges all shards into a plain Histogram.
 *    The hot path is one thread-local vector lookup plus plain loads
 *    and stores to the thread's own shard — no locks, no locked
 *    read-modify-writes.
 *
 * Shards live as long as their histogram (resetValues() zeroes them
 * instead of freeing them, and runs only while no thread records).
 */
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "util/json_writer.hpp"
#include "util/thread_shards.hpp"

namespace xpg::telemetry {

/// Plain mergeable log2 histogram (not thread-safe; produced by
/// ShardedHistogram::snapshot() or used directly in tests/exporters).
struct Histogram
{
    static constexpr unsigned kBuckets = 65;

    uint64_t buckets[kBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t maxValue = 0;

    /// Bucket index for a sample: 0 -> 0, otherwise bit_width(v).
    static unsigned bucketFor(uint64_t v)
    {
        return v == 0 ? 0u : static_cast<unsigned>(std::bit_width(v));
    }

    /// Smallest sample landing in bucket b.
    static uint64_t bucketLo(unsigned b)
    {
        return b <= 1 ? (b == 0 ? 0u : 1u) : uint64_t{1} << (b - 1);
    }

    /// Largest sample landing in bucket b.
    static uint64_t bucketHi(unsigned b)
    {
        if (b <= 1)
            return b;
        if (b >= 64)
            return ~uint64_t{0};
        return (uint64_t{1} << b) - 1;
    }

    void record(uint64_t v)
    {
        ++buckets[bucketFor(v)];
        ++count;
        sum += v;
        if (v > maxValue)
            maxValue = v;
    }

    void merge(const Histogram &other)
    {
        for (unsigned b = 0; b < kBuckets; ++b)
            buckets[b] += other.buckets[b];
        count += other.count;
        sum += other.sum;
        if (other.maxValue > maxValue)
            maxValue = other.maxValue;
    }

    double mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }

    /// Quantile estimate for q in [0,1]: walks the cumulative counts,
    /// interpolates within the winning bucket, clamps to maxValue.
    double quantile(double q) const;

    /// {"count":..,"sum":..,"mean":..,"p50":..,"p95":..,"p99":..,"max":..}
    json::JsonValue toJson() const;
};

/// Concurrent recording front: per-thread shards of relaxed atomics.
class ShardedHistogram
{
  public:
    ShardedHistogram() = default;

    ShardedHistogram(const ShardedHistogram &) = delete;
    ShardedHistogram &operator=(const ShardedHistogram &) = delete;

    /// Record one sample. Lock-free after the calling thread's first
    /// record into this histogram (which allocates its shard); only
    /// this thread writes its shard, so every field is a plain load +
    /// store, never a locked read-modify-write.
    void record(uint64_t v)
    {
        Shard &s = shards_.local();
        addToOwnCell(s.buckets[Histogram::bucketFor(v)], 1);
        addToOwnCell(s.count, 1);
        addToOwnCell(s.sum, v);
        if (v > s.maxValue.load(std::memory_order_relaxed))
            s.maxValue.store(v, std::memory_order_relaxed);
    }

    /// Merge every shard into a plain histogram. Safe concurrently
    /// with record(); sees each sample's fields independently (a
    /// sample racing the snapshot may contribute partially — counts
    /// settle by the next quiescent snapshot).
    Histogram snapshot() const;

    /// Zero all shards in place (shards stay allocated so cached
    /// thread-local pointers never dangle). Call it only while nothing
    /// records: a record racing the reset stores its stale sum back.
    void resetValues();

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> buckets[Histogram::kBuckets] = {};
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sum{0};
        std::atomic<uint64_t> maxValue{0};
    };

    ThreadShards<Shard> shards_;
};

} // namespace xpg::telemetry
