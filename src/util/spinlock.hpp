/**
 * @file
 * A minimal test-and-test-and-set spinlock. Used where critical sections
 * are a handful of instructions (XPBuffer sets, free-list pushes) and a
 * std::mutex would dominate the cost being modeled.
 */

#ifndef XPG_UTIL_SPINLOCK_HPP
#define XPG_UTIL_SPINLOCK_HPP

#include <atomic>

namespace xpg {

/**
 * Tiny TTAS spinlock satisfying the Lockable requirements: one atomic
 * flag, claimed with test_and_set and watched with plain loads while it
 * is held, so waiters spin in their own cache instead of on the bus.
 */
class SpinLock
{
  public:
    SpinLock() = default;
    SpinLock(const SpinLock &) = delete;
    SpinLock &operator=(const SpinLock &) = delete;

    void
    lock()
    {
        while (flag_.test_and_set(std::memory_order_acquire)) {
            while (flag_.test(std::memory_order_relaxed)) {
                // spin on the cached value until the holder releases
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
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

} // namespace xpg

#endif // XPG_UTIL_SPINLOCK_HPP
