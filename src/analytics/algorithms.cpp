#include "analytics/algorithms.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "graph/graph_store.hpp"
#include "pmem/dram_device.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

namespace {

/** The cost source a kernel's record diffs: the store backing the
 *  view (null on synthetic test views — the record then just stamps an
 *  opId with zero deltas). */
const telemetry::OpCostSource *
costSource(const GraphView &view)
{
    return view.backingStore();
}

/** The per-algorithm latency histogram a kernel's record feeds. */
telemetry::ShardedHistogram *
kernelHistogram(const char *algo)
{
    return XPG_TEL_HISTOGRAM("query.kernel_ns",
                             (telemetry::Labels{.phase = algo}));
}

} // namespace

AnalyticsResult
runOneHop(GraphView &view, std::span<const vid_t> queries,
          unsigned num_threads, QueryBinding binding)
{
    // The queries are random vertices, so strided dealing already
    // spreads the hubs — skip the balanced schedule's weight gather.
    telemetry::OpScope op(costSource(view), "onehop",
                          telemetry::OpClass::Query, nullptr,
                          kernelHistogram("onehop"));
    QueryDriver driver(view, num_threads, binding, SchedulePolicy::Strided);
    std::vector<uint64_t> partial(driver.numThreads(), 0);

    AnalyticsResult result;
    op.add(driver.forEach(queries, [&](vid_t v, unsigned w) {
        partial[w] += view.forEachNebrOut(v, [](vid_t) {});
    }));
    result.iterations = 1;
    result.touched = queries.size();
    for (uint64_t p : partial)
        result.checksum += p;
    result.rounds = driver.takeRounds();
    result.op = op.close();
    result.simNs = result.op.simNs;
    return result;
}

AnalyticsResult
runBfs(GraphView &view, vid_t root, unsigned num_threads,
       QueryBinding binding)
{
    const vid_t nv = view.numVertices();
    XPG_ASSERT(root < nv, "BFS root out of range");
    telemetry::OpScope op(costSource(view), "bfs",
                          telemetry::OpClass::Query, nullptr,
                          kernelHistogram("bfs"));
    QueryDriver driver(view, num_threads, binding);

    auto visited = std::make_unique<std::atomic<uint8_t>[]>(nv);
    for (vid_t v = 0; v < nv; ++v)
        visited[v].store(0, std::memory_order_relaxed);
    visited[root].store(1, std::memory_order_relaxed);

    std::vector<std::vector<vid_t>> next_local(driver.numThreads());
    std::vector<vid_t> frontier{root};

    auto expand = [&](vid_t n, unsigned w) {
        uint8_t expected = 0;
        if (visited[n].compare_exchange_strong(expected, 1,
                                               std::memory_order_relaxed))
            next_local[w].push_back(n);
    };

    AnalyticsResult result;
    result.touched = 1;
    while (!frontier.empty()) {
        ++result.iterations;
        op.add(driver.forEach(frontier, [&](vid_t v, unsigned w) {
            const uint32_t deg =
                view.forEachNebrOut(v, [&](vid_t n) { expand(n, w); });
            // Auxiliary arrays (visited bitmap, ranks, labels) are tiny
            // at the session's reduced scale and stay cache-resident;
            // charge only the streaming touch, not DRAM misses.
            chargeDramSequential(deg / 8 + 1);
        }));

        SimScope merge_scope;
        frontier.clear();
        for (auto &local : next_local) {
            frontier.insert(frontier.end(), local.begin(), local.end());
            chargeDramSequential(local.size() * sizeof(vid_t));
            local.clear();
        }
        op.add(merge_scope.elapsed());
        result.touched += frontier.size();
    }
    result.checksum = result.touched;
    result.rounds = driver.takeRounds();
    result.op = op.close();
    result.simNs = result.op.simNs;
    return result;
}

AnalyticsResult
runPageRank(GraphView &view, unsigned iterations, unsigned num_threads,
            QueryBinding binding)
{
    const vid_t nv = view.numVertices();
    telemetry::OpScope op(costSource(view), "pagerank",
                          telemetry::OpClass::Query, nullptr,
                          kernelHistogram("pagerank"));
    QueryDriver driver(view, num_threads, binding);

    std::vector<double> contrib(nv, 0.0);
    // next[] holds the ranks after the most recent sweep; seeding it
    // with the uniform start vector makes the iterations == 0 case the
    // initial distribution instead of all-zeros.
    std::vector<double> next(nv, 1.0 / nv);
    std::vector<uint32_t> out_deg(nv, 0);

    AnalyticsResult result;
    // Degree pass: the live-degree cache answers in O(1) per vertex.
    op.add(driver.forAllVertices(
        [&](vid_t v, unsigned) { out_deg[v] = view.degreeOut(v); }));

    const double base = 0.15 / static_cast<double>(nv);
    for (vid_t v = 0; v < nv; ++v)
        contrib[v] = (1.0 / nv) / std::max(1u, out_deg[v]);

    for (unsigned it = 0; it < iterations; ++it) {
        ++result.iterations;
        op.add(driver.forAllVertices([&](vid_t v, unsigned) {
            double sum = 0.0;
            const uint32_t deg =
                view.forEachNebrIn(v, [&](vid_t u) { sum += contrib[u]; });
            // contrib[] is cache-resident at the session scale.
            chargeDramSequential(uint64_t{deg} * sizeof(vid_t));
            next[v] = base + 0.85 * sum;
        }));

        // Re-normalize contributions only when another sweep will read
        // them; the ranks reported below are exactly next[] after the
        // final sweep, so the last-round normalization would be dead
        // work (and historically made the final ranks/contribs
        // inconsistent).
        if (it + 1 < iterations) {
            SimScope swap_scope;
            for (vid_t v = 0; v < nv; ++v)
                contrib[v] = next[v] / std::max(1u, out_deg[v]);
            chargeDramSequential(nv * sizeof(double) * 2);
            op.add(swap_scope.elapsed());
        }
    }

    double rank_sum = 0.0;
    for (vid_t v = 0; v < nv; ++v)
        rank_sum += next[v];
    result.checksum = static_cast<uint64_t>(rank_sum * 1e6);
    result.touched = nv;
    result.rounds = driver.takeRounds();
    result.op = op.close();
    result.simNs = result.op.simNs;
    return result;
}

AnalyticsResult
runConnectedComponents(GraphView &view, unsigned num_threads,
                       QueryBinding binding, unsigned max_iterations)
{
    const vid_t nv = view.numVertices();
    telemetry::OpScope op(costSource(view), "cc",
                          telemetry::OpClass::Query, nullptr,
                          kernelHistogram("cc"));
    QueryDriver driver(view, num_threads, binding);

    auto labels = std::make_unique<std::atomic<vid_t>[]>(nv);
    for (vid_t v = 0; v < nv; ++v)
        labels[v].store(v, std::memory_order_relaxed);

    AnalyticsResult result;
    std::atomic<bool> changed{true};
    while (changed.load(std::memory_order_relaxed) &&
           result.iterations < max_iterations) {
        changed.store(false, std::memory_order_relaxed);
        ++result.iterations;
        op.add(driver.forAllVertices([&](vid_t v, unsigned) {
            vid_t m = labels[v].load(std::memory_order_relaxed);
            auto fold = [&](vid_t n) {
                m = std::min(m, labels[n].load(std::memory_order_relaxed));
            };
            uint32_t deg = view.forEachNebrOut(v, fold);
            deg += view.forEachNebrIn(v, fold);
            chargeDramSequential(uint64_t{deg} * sizeof(vid_t));
            if (m < labels[v].load(std::memory_order_relaxed)) {
                labels[v].store(m, std::memory_order_relaxed);
                changed.store(true, std::memory_order_relaxed);
            }
        }));
    }

    // Components = vertices that kept their own label and have presence
    // (count all roots; isolated vertices are their own component).
    uint64_t components = 0;
    for (vid_t v = 0; v < nv; ++v)
        if (labels[v].load(std::memory_order_relaxed) == v)
            ++components;
    result.checksum = components;
    result.touched = nv;
    result.rounds = driver.takeRounds();
    result.op = op.close();
    result.simNs = result.op.simNs;
    return result;
}

} // namespace xpg
