/**
 * @file
 * Parallel execution helper that integrates with the simulated clock.
 *
 * ParallelExecutor owns a persistent pool of worker threads (like the
 * archive-thread pool of a real graph store — workers keep their
 * thread-local state such as memory-pool arenas across phases). run()
 * executes the supplied functor once per worker and returns each worker's
 * simulated-nanosecond delta; the simulated duration of the region is the
 * maximum of those deltas — the behaviour of a real machine with that many
 * cores — regardless of how many physical cores the host has.
 *
 * The work runs only on the pool's threads, at every worker count (one
 * worker included). The caller coordinates: it waits in run() and adds
 * maxNanos() where the phase belongs (its op, phase total or round).
 * The work never touches the caller's SimClock, NUMA binding,
 * attribution category or current op id, so a phase leaves its caller
 * as it found it.
 */

#ifndef XPG_UTIL_PARALLEL_HPP
#define XPG_UTIL_PARALLEL_HPP

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace xpg {

/**
 * How a parallel phase's workers cover the NUMA nodes, for archive and
 * query workers alike: max(workers, nodes) virtual slots, so every
 * node gets one even when workers are fewer than nodes. Slot s goes to
 * node s % nodes as that node's local index s / nodes; worker w runs
 * slots w, w + workers, w + 2 * workers, ... Binding to the slot's node
 * is the caller's choice.
 */
struct VirtualSlots
{
    unsigned workers;
    unsigned nodes;

    /** One virtual slot. */
    struct Slot
    {
        unsigned node;  ///< node the slot works on
        unsigned local; ///< index among the node's slots
        unsigned slots; ///< slots on the node (>= 1)

        /** This slot's ceil-divided share [first, second) of @p n. */
        std::pair<uint64_t, uint64_t>
        slice(uint64_t n) const
        {
            const uint64_t per = (n + slots - 1) / slots;
            const uint64_t begin = std::min<uint64_t>(n, local * per);
            return {begin, std::min<uint64_t>(n, begin + per)};
        }
    };

    unsigned count() const { return std::max(workers, nodes); }

    /** Slots on @p node (>= 1). */
    unsigned
    onNode(unsigned node) const
    {
        return count() / nodes + (node < count() % nodes ? 1 : 0);
    }

    /** Run @p fn(slot) for slots @p first, first + stride, ... */
    template <typename F>
    void
    forEach(unsigned first, unsigned stride, F &&fn) const
    {
        for (unsigned s = first; s < count(); s += stride)
            fn(Slot{s % nodes, s / nodes, onNode(s % nodes)});
    }
};

/** Result of a parallel region: per-worker simulated deltas. */
struct ParallelResult
{
    std::vector<uint64_t> workerNanos;

    /** Simulated duration of the region (slowest worker). */
    uint64_t
    maxNanos() const
    {
        uint64_t m = 0;
        for (uint64_t ns : workerNanos)
            m = std::max(m, ns);
        return m;
    }
};

/**
 * Persistent pool of simulated workers. Only one run() may be active at a
 * time (phases are serial in all engines).
 */
class ParallelExecutor
{
  public:
    /** @param num_workers Simulated worker (thread) count; must be >= 1. */
    explicit ParallelExecutor(unsigned num_workers);
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    unsigned numWorkers() const { return numWorkers_; }

    /**
     * Run @p fn(worker_id) on every worker and wait for all of them.
     * @return per-worker simulated nanosecond deltas.
     */
    ParallelResult run(const std::function<void(unsigned)> &fn);

  private:
    void workerLoop(unsigned w);

    unsigned numWorkers_;
    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable startCv_;
    std::condition_variable doneCv_;
    const std::function<void(unsigned)> *task_ = nullptr;
    uint64_t generation_ = 0;
    unsigned remaining_ = 0;
    bool stopping_ = false;
    std::vector<uint64_t> deltas_;
};

} // namespace xpg

#endif // XPG_UTIL_PARALLEL_HPP
