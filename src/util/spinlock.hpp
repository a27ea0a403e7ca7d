/**
 * @file
 * A minimal test-and-test-and-set spinlock. Used where critical sections
 * are a handful of instructions (XPBuffer sets, free-list pushes) and a
 * std::mutex would dominate the cost being modeled.
 *
 * Spin-then-yield rule: a waiter spins on its cached copy of the flag
 * with a pause instruction for kSpinsBeforeYield probes, then yields its
 * core between probes. The benches run more simulated workers than the
 * host has cores, so a holder can lose its core inside a critical
 * section; a waiter that kept spinning would burn the time slice the
 * holder needs to release. An uncontended lock() stays one exchange.
 */

#ifndef XPG_UTIL_SPINLOCK_HPP
#define XPG_UTIL_SPINLOCK_HPP

#include <atomic>
#include <thread>

namespace xpg {

/**
 * Tiny TTAS spinlock satisfying the Lockable requirements: one atomic
 * flag, claimed with test_and_set and watched with plain loads while it
 * is held, so waiters spin in their own cache instead of on the bus.
 */
class SpinLock
{
  public:
    /** Paused probes of a held lock before a waiter starts yielding. */
    static constexpr unsigned kSpinsBeforeYield = 128;

    SpinLock() = default;
    SpinLock(const SpinLock &) = delete;
    SpinLock &operator=(const SpinLock &) = delete;

    void
    lock()
    {
        while (flag_.test_and_set(std::memory_order_acquire)) {
            for (unsigned probes = 0; flag_.test(std::memory_order_relaxed);
                 ++probes) {
                if (probes < kSpinsBeforeYield)
                    pause();
                else
                    std::this_thread::yield();
            }
        }
    }

    bool
    try_lock()
    {
        return !flag_.test_and_set(std::memory_order_acquire);
    }

    void unlock() { flag_.clear(std::memory_order_release); }

  private:
    /** The target's spin-wait hint; nothing where it has none. */
    static void
    pause()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

} // namespace xpg

#endif // XPG_UTIL_SPINLOCK_HPP
