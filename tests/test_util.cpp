/**
 * @file
 * Utility layer: SimClock, ParallelExecutor semantics (worker deltas,
 * persistence of workers, a caller the work never touches, chunking),
 * Rng properties, and SpinLock.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "pmem/numa_topology.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/spinlock.hpp"

namespace xpg {
namespace {

TEST(SimClock, ChargesAccumulatePerThread)
{
    const uint64_t t0 = SimClock::now();
    SimClock::charge(100);
    SimClock::chargeScaled(100, 2.5);
    EXPECT_EQ(SimClock::now() - t0, 350u);

    std::thread t([] {
        // A fresh thread starts from zero.
        EXPECT_EQ(SimClock::now(), 0u);
        SimClock::charge(7);
        EXPECT_EQ(SimClock::now(), 7u);
    });
    t.join();
}

TEST(SimClock, ScopeMeasuresDelta)
{
    SimClock::charge(10);
    SimScope scope;
    SimClock::charge(42);
    EXPECT_EQ(scope.elapsed(), 42u);
}

TEST(ParallelExecutor, ReportsPerWorkerDeltas)
{
    ParallelExecutor ex(4);
    const auto result = ex.run([](unsigned w) {
        SimClock::charge((w + 1) * 100);
    });
    ASSERT_EQ(result.workerNanos.size(), 4u);
    for (unsigned w = 0; w < 4; ++w)
        EXPECT_EQ(result.workerNanos[w], (w + 1) * 100u);
    EXPECT_EQ(result.maxNanos(), 400u);
}

TEST(ParallelExecutor, WorkersPersistAcrossRuns)
{
    // Thread-local state (e.g., pool arenas) must survive between runs.
    ParallelExecutor ex(3);
    std::mutex mu;
    std::set<std::thread::id> first;
    std::set<std::thread::id> second;
    ex.run([&](unsigned) {
        std::lock_guard<std::mutex> g(mu);
        first.insert(std::this_thread::get_id());
    });
    ex.run([&](unsigned) {
        std::lock_guard<std::mutex> g(mu);
        second.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(first, second);
}

TEST(ParallelExecutor, DeltasResetBetweenRuns)
{
    ParallelExecutor ex(2);
    ex.run([](unsigned) { SimClock::charge(1000); });
    const auto result = ex.run([](unsigned) { SimClock::charge(5); });
    EXPECT_EQ(result.maxNanos(), 5u);
}

TEST(ParallelExecutor, SingleWorkerLeavesCallerUntouched)
{
    // One worker runs on a pool thread like any other count: the work's
    // clock and binding never reach the caller.
    ParallelExecutor ex(1);
    SimClock::charge(5);
    const uint64_t clock = SimClock::now();
    const int node = NumaBinding::currentNode();
    std::thread::id seen;
    const auto result = ex.run([&](unsigned w) {
        EXPECT_EQ(w, 0u);
        seen = std::this_thread::get_id();
        NumaBinding::bindThread(1, false);
        SimClock::charge(9);
    });
    EXPECT_NE(seen, std::this_thread::get_id());
    EXPECT_EQ(result.maxNanos(), 9u);
    EXPECT_EQ(SimClock::now(), clock);
    EXPECT_EQ(NumaBinding::currentNode(), node);
}

TEST(VirtualSlots, EveryNodeGetsASlotAndWorkersStrideThem)
{
    // Fewer workers than nodes: one slot per node, all on worker 0.
    const VirtualSlots few{1, 3};
    EXPECT_EQ(few.count(), 3u);
    std::vector<unsigned> nodes;
    few.forEach(0, 1, [&](const VirtualSlots::Slot &slot) {
        EXPECT_EQ(slot.local, 0u);
        EXPECT_EQ(slot.slots, 1u);
        nodes.push_back(slot.node);
    });
    EXPECT_EQ(nodes, (std::vector<unsigned>{0, 1, 2}));

    // Five workers over two nodes: slot s is (node s % 2, local s / 2),
    // node 0 holds slots 0, 2, 4.
    const VirtualSlots many{5, 2};
    EXPECT_EQ(many.onNode(0), 3u);
    EXPECT_EQ(many.onNode(1), 2u);
    std::vector<std::pair<unsigned, unsigned>> seen;
    many.forEach(3, 5, [&](const VirtualSlots::Slot &slot) {
        seen.emplace_back(slot.node, slot.local);
        EXPECT_EQ(slot.slots, 2u);
        EXPECT_EQ(slot.slice(10),
                  (std::pair<uint64_t, uint64_t>{5, 10}));
    });
    EXPECT_EQ(seen, (std::vector<std::pair<unsigned, unsigned>>{{1, 1}}));
}

TEST(ParallelExecutor, ManyWorkersAllRun)
{
    ParallelExecutor ex(96);
    std::atomic<unsigned> ran{0};
    ex.run([&](unsigned) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 96u);
}

TEST(Rng, DeterministicAndSeedSensitive)
{
    Rng a(1), b(1), c(2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(1);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng rng(7);
    std::vector<unsigned> counts(8, 0);
    for (int i = 0; i < 80000; ++i)
        ++counts[rng.nextBounded(8)];
    for (unsigned c : counts) {
        EXPECT_GT(c, 9000u);
        EXPECT_LT(c, 11000u);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, JumpMatchesStepping)
{
    // The last distance is 17 blocks of 2^16 one-level RMAT edges.
    for (uint64_t draws : {0ull, 1ull, 63ull, 64ull, 65ull, 1000ull,
                           4ull * 17 * (1ull << 16)}) {
        Rng jumped(0x5EED), stepped(0x5EED);
        jumped.jump(draws);
        for (uint64_t i = 0; i < draws; ++i)
            stepped.next();
        EXPECT_EQ(jumped, stepped) << draws;
        EXPECT_EQ(jumped.next(), stepped.next()) << draws;
    }
}

/** @p threads_n threads make @p increments guarded increments each. */
void
expectMutualExclusion(unsigned threads_n, int increments)
{
    SpinLock lock;
    uint64_t counter = 0;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < threads_n; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < increments; ++i) {
                std::lock_guard<SpinLock> guard(lock);
                ++counter;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, uint64_t{threads_n} * increments);
}

TEST(SpinLock, MutualExclusion)
{
    expectMutualExclusion(4, 10000);
}

/** More threads than cores, so holders lose their core inside the
 *  critical section: waiters must yield to them and still exclude. */
TEST(SpinLock, MutualExclusionOversubscribed)
{
    expectMutualExclusion(
        std::min(32u, 4 * std::max(1u, std::thread::hardware_concurrency())),
        20000);
}

TEST(SpinLock, TryLockFailsWhenHeld)
{
    SpinLock lock;
    lock.lock();
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

} // namespace
} // namespace xpg
