/**
 * @file
 * Per-thread simulated clock.
 *
 * Every modeled hardware cost (PMEM media operation, DRAM cache-line touch,
 * allocator call, VFS call, ...) is charged in nanoseconds to the calling
 * thread's SimClock. A parallel phase's simulated duration is the maximum
 * over its workers' accumulated deltas (see ParallelExecutor), so reported
 * times reflect the modeled machine, not the host.
 */

#ifndef XPG_UTIL_SIM_CLOCK_HPP
#define XPG_UTIL_SIM_CLOCK_HPP

#include <cstdint>

namespace xpg {

/** Static facade over a thread-local nanosecond accumulator. */
class SimClock
{
  public:
    /** Add @p ns simulated nanoseconds to the calling thread's clock. */
    static void charge(uint64_t ns) { tls() += ns; }

    /** Charge a fractional cost, rounding to the nearest nanosecond. */
    static void
    chargeScaled(uint64_t ns, double mult)
    {
        tls() += static_cast<uint64_t>(static_cast<double>(ns) * mult + 0.5);
    }

    /** The calling thread's accumulated simulated nanoseconds. */
    static uint64_t now() { return tls(); }

  private:
    static uint64_t &
    tls()
    {
        thread_local uint64_t ns = 0;
        return ns;
    }
};

/**
 * Measures the simulated time spent in a scope on the current thread.
 * Read the elapsed value via elapsed() before destruction or after.
 */
class SimScope
{
  public:
    SimScope() : start_(SimClock::now()) {}

    /** Simulated nanoseconds charged on this thread since construction. */
    uint64_t elapsed() const { return SimClock::now() - start_; }

  private:
    uint64_t start_;
};

} // namespace xpg

#endif // XPG_UTIL_SIM_CLOCK_HPP
