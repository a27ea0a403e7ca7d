/**
 * @file
 * Open-loop latency from recorded service times. The serving loop runs
 * each op once and records its simulated service time; this replays that
 * sequence through one FIFO server with arrivals at a fixed offered rate
 * (evenly spaced), so latency = completion - arrival includes the queueing
 * a stall imposes on every op behind it. The rates are fixed by the
 * caller and never recalibrated, so a faster service shows as lower
 * latency instead of being absorbed by a faster arrival schedule.
 */

#ifndef XPG_PERFBENCH_REPLAY_HPP
#define XPG_PERFBENCH_REPLAY_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/** One op of the serving loop as recorded. */
struct ServedOp
{
    uint64_t serviceNs = 0;
    bool write = false;
};

/**
 * Quantile @p q of a sorted sample, interpolated on the empirical CDF
 * between distinct values (the grouped-data median rule): the nearest-rank
 * value x, whose run of equal values spans ranks [lo, hi), is blended with
 * the previous distinct value by where rank q*n falls inside the run. The
 * cost model charges whole-ns costs from a few line/cache outcomes, so a
 * median read often sits inside a large run of identical service times;
 * nearest rank would then report the same figure for any input, while
 * this moves with the share of ops at or below it. Equal to nearest rank
 * when values are distinct at the boundary. 0 when empty.
 */
inline double
quantileSorted(const std::vector<uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * n)), 1, sorted.size());
    const uint64_t x = sorted[rank - 1];
    const auto run = std::equal_range(sorted.begin(), sorted.end(), x);
    const double lo = static_cast<double>(run.first - sorted.begin());
    const double hi = static_cast<double>(run.second - sorted.begin());
    if (run.first == sorted.begin())
        return static_cast<double>(x);
    const double prev = static_cast<double>(*(run.first - 1));
    const double f = std::clamp((q * n - lo) / (hi - lo), 0.0, 1.0);
    return prev + f * (static_cast<double>(x) - prev);
}

inline double
quantile(std::vector<uint64_t> values, double q)
{
    std::sort(values.begin(), values.end());
    return quantileSorted(values, q);
}

struct ReplayResult
{
    double rateKops = 0.0;
    double readP50Ns = 0;
    double readP99Ns = 0;
    double writeP99Ns = 0;
    /** Ops queued (arrived, not yet finished) at the last arrival. */
    uint64_t backlogOps = 0;
    /** Queueing delay the last arrival waited before its service. */
    uint64_t backlogWaitNs = 0;

    /** Read p99 within @p limit_ns and the queue not left growing: the
     *  last arrival waited no longer than the limit itself. */
    bool
    meets(uint64_t limit_ns) const
    {
        return readP99Ns <= static_cast<double>(limit_ns) &&
               backlogWaitNs <= limit_ns;
    }
};

inline ReplayResult
replayAtRate(const std::vector<ServedOp> &ops, double rate_kops)
{
    ReplayResult r;
    r.rateKops = rate_kops;
    const double gap_ns = 1e6 / rate_kops;
    std::vector<uint64_t> read_lat;
    std::vector<uint64_t> write_lat;
    std::vector<uint64_t> completions;
    read_lat.reserve(ops.size());
    completions.reserve(ops.size());
    uint64_t free_at = 0; // when the server finishes its current queue
    uint64_t arrival = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        arrival = static_cast<uint64_t>(static_cast<double>(i) * gap_ns);
        const uint64_t start = std::max(free_at, arrival);
        if (i + 1 == ops.size())
            r.backlogWaitNs = start - arrival;
        free_at = start + ops[i].serviceNs;
        completions.push_back(free_at);
        (ops[i].write ? write_lat : read_lat).push_back(free_at - arrival);
    }
    // Completions are nondecreasing (FIFO), so the ops still queued at
    // the last arrival are a suffix.
    r.backlogOps = static_cast<uint64_t>(
        completions.end() -
        std::upper_bound(completions.begin(), completions.end(), arrival));
    std::sort(read_lat.begin(), read_lat.end());
    std::sort(write_lat.begin(), write_lat.end());
    r.readP50Ns = quantileSorted(read_lat, 0.50);
    r.readP99Ns = quantileSorted(read_lat, 0.99);
    r.writeP99Ns = quantileSorted(write_lat, 0.99);
    return r;
}

/**
 * The highest offered rate in [@p lo_kops, @p hi_kops] at which the
 * replay meets @p limit_ns, found by bisection in log space (waits only
 * grow with the rate for a fixed service sequence, so the predicate is
 * monotone). Returns @p lo_kops when even that rate fails.
 */
inline double
maxSustainableKops(const std::vector<ServedOp> &ops, uint64_t limit_ns,
                   double lo_kops, double hi_kops)
{
    if (!replayAtRate(ops, lo_kops).meets(limit_ns))
        return lo_kops;
    if (replayAtRate(ops, hi_kops).meets(limit_ns))
        return hi_kops;
    double lo = std::log(lo_kops);
    double hi = std::log(hi_kops);
    for (int i = 0; i < 24; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (replayAtRate(ops, std::exp(mid)).meets(limit_ns))
            lo = mid;
        else
            hi = mid;
    }
    return std::exp(lo);
}

} // namespace perfbench

#endif // XPG_PERFBENCH_REPLAY_HPP
