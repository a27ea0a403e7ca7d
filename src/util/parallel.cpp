#include "util/parallel.hpp"

#include "util/logging.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

ParallelExecutor::ParallelExecutor(unsigned num_workers)
    : numWorkers_(num_workers)
{
    XPG_ASSERT(num_workers >= 1, "executor needs at least one worker");
    deltas_.assign(numWorkers_, 0);
    threads_.reserve(numWorkers_);
    for (unsigned w = 0; w < numWorkers_; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

ParallelExecutor::~ParallelExecutor()
{
    {
        std::lock_guard<std::mutex> guard(mutex_);
        stopping_ = true;
    }
    startCv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ParallelExecutor::workerLoop(unsigned w)
{
    uint64_t seen_generation = 0;
    for (;;) {
        const std::function<void(unsigned)> *task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            startCv_.wait(lock, [&] {
                return stopping_ || generation_ != seen_generation;
            });
            if (stopping_)
                return;
            seen_generation = generation_;
            task = task_;
        }
        SimScope scope;
        (*task)(w);
        const uint64_t delta = scope.elapsed();
        {
            std::lock_guard<std::mutex> guard(mutex_);
            deltas_[w] = delta;
            if (--remaining_ == 0)
                doneCv_.notify_all();
        }
    }
}

ParallelResult
ParallelExecutor::run(const std::function<void(unsigned)> &fn)
{
    ParallelResult result;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        task_ = &fn;
        remaining_ = numWorkers_;
        ++generation_;
    }
    startCv_.notify_all();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&] { return remaining_ == 0; });
        result.workerNanos = deltas_;
        task_ = nullptr;
    }
    return result;
}

} // namespace xpg
