#include "graph/generators.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace xpg {

namespace {

/// Edges per block; a block is filled by one worker from the seed's
/// stream jumped ahead to the block's first draw.
constexpr uint64_t kBlockEdges = 1ull << 16;

/** CPUs this process may run on. */
unsigned
usableCpus()
{
    cpu_set_t set{};
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

/**
 * @p num_edges edges, edge i being @p edge(rng) with rng the stream of
 * @p seed after i * @p draws_per_edge draws (what one serial loop over
 * the stream gives), filled block by block on every usable CPU. The
 * threads are joined before it returns.
 */
template <typename EdgeFn>
std::vector<Edge>
fillBlocks(uint64_t num_edges, uint64_t seed, uint64_t draws_per_edge,
           EdgeFn edge)
{
    std::vector<Edge> edges(num_edges);
    const uint64_t blocks = (num_edges + kBlockEdges - 1) / kBlockEdges;
    std::atomic<uint64_t> claimed{0};
    auto work = [&] {
        Rng rng(seed);
        uint64_t at = 0; // the block whose first draw rng is at
        for (;;) {
            const uint64_t b = claimed++;
            if (b >= blocks)
                return;
            rng.jump((b - at) * kBlockEdges * draws_per_edge);
            const uint64_t end = std::min(num_edges, (b + 1) * kBlockEdges);
            for (uint64_t i = b * kBlockEdges; i < end; ++i)
                edges[i] = edge(rng);
            at = b + 1;
        }
    };
    std::vector<std::thread> helpers;
    const uint64_t workers = std::min<uint64_t>(usableCpus(), blocks);
    try {
        for (uint64_t w = 1; w < workers; ++w)
            helpers.emplace_back(work);
    } catch (const std::system_error &) {
        // Fewer helpers only means more blocks for the rest.
    }
    work();
    for (std::thread &t : helpers)
        t.join();
    return edges;
}

/** One RMAT endpoint pair for a graph of 2^scale vertices; always
 *  draws 4 * scale numbers. */
Edge
rmatEdge(unsigned scale, const RmatParams &p, Rng &rng)
{
    uint64_t src = 0;
    uint64_t dst = 0;
    double a = p.a, b = p.b, c = p.c;
    for (unsigned level = 0; level < scale; ++level) {
        // Quadrant without branches: (0,0) below a, (0,1) below a + b,
        // (1,0) below a + b + c, else (1,1).
        const double r = rng.nextDouble();
        const double ab = a + b;
        src = src << 1 | (r >= ab);
        dst = dst << 1 | ((r >= a) & ((r < ab) | (r >= ab + c)));
        // Perturb probabilities per level so degree distribution is not a
        // perfect product measure (graph500-style noise).
        const double n = p.noise;
        a *= 1.0 - n / 2 + n * rng.nextDouble();
        b *= 1.0 - n / 2 + n * rng.nextDouble();
        c *= 1.0 - n / 2 + n * rng.nextDouble();
        const double sum = a + b + c;
        if (sum >= 0.995) {
            a /= sum + 0.01;
            b /= sum + 0.01;
            c /= sum + 0.01;
        }
    }
    return Edge{static_cast<vid_t>(src), static_cast<vid_t>(dst)};
}

} // namespace

std::vector<Edge>
generateRmat(unsigned scale, uint64_t num_edges, const RmatParams &params,
             uint64_t seed)
{
    XPG_ASSERT(scale > 0 && scale < 31, "rmat scale out of range");
    return fillBlocks(num_edges, seed, 4 * scale, [&](Rng &rng) {
        return rmatEdge(scale, params, rng);
    });
}

std::vector<Edge>
generateUniform(vid_t num_vertices, uint64_t num_edges, uint64_t seed)
{
    XPG_ASSERT(num_vertices > 0, "need at least one vertex");
    return fillBlocks(num_edges, seed, 2, [num_vertices](Rng &rng) {
        return Edge{static_cast<vid_t>(rng.nextBounded(num_vertices)),
                    static_cast<vid_t>(rng.nextBounded(num_vertices))};
    });
}

void
foldVertices(std::vector<Edge> &edges, vid_t num_vertices)
{
    XPG_ASSERT(num_vertices > 0, "need at least one vertex");
    auto fold = [num_vertices](vid_t v) -> vid_t {
        // Fibonacci-hash then reduce; keeps hubs hubs while spreading ids.
        const uint64_t h =
            static_cast<uint64_t>(v) * 0x9e3779b97f4a7c15ull;
        return static_cast<vid_t>(
            (static_cast<unsigned __int128>(h) * num_vertices) >> 64);
    };
    for (auto &e : edges) {
        e.src = fold(e.src);
        e.dst = fold(e.dst);
    }
}

} // namespace xpg
