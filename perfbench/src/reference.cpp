#include "reference.hpp"

#include <numeric>

namespace perfbench {

ReferenceGraph::ReferenceGraph(vid_t num_vertices,
                               std::span<const Edge> initial)
    : adj_(num_vertices), liveEdges_(initial.size()),
      viewDegree_(num_vertices, 0), touchedFlag_(num_vertices, 0)
{
    for (const Edge &e : initial)
        adj_[e.src].push_back(e.dst);
    for (vid_t v = 0; v < num_vertices; ++v)
        viewDegree_[v] = degree(v);
}

void
ReferenceGraph::touch(vid_t v)
{
    if (touchedFlag_[v] == 0) {
        touchedFlag_[v] = 1;
        touchedSinceView_.push_back(v);
    }
}

void
ReferenceGraph::insert(const Edge &e)
{
    adj_[e.src].push_back(e.dst);
    ++liveEdges_;
    touch(e.src);
}

Edge
ReferenceGraph::removeRandomOf(vid_t v, xpg::Rng &rng)
{
    std::vector<vid_t> &nebrs = adj_[v];
    const uint64_t i = rng.nextBounded(nebrs.size());
    const Edge e{v, nebrs[i]};
    nebrs[i] = nebrs.back();
    nebrs.pop_back();
    --liveEdges_;
    touch(v);
    return e;
}

void
ReferenceGraph::markViewOpened()
{
    for (vid_t v : touchedSinceView_) {
        viewDegree_[v] = degree(v);
        touchedFlag_[v] = 0;
    }
    touchedSinceView_.clear();
}

vid_t
ReferenceGraph::maxDegreeVertex() const
{
    vid_t best = 0;
    for (vid_t v = 1; v < numVertices(); ++v)
        if (degree(v) > degree(best))
            best = v;
    return best;
}

uint64_t
ReferenceGraph::bfsReached(vid_t root) const
{
    std::vector<uint8_t> seen(numVertices(), 0);
    std::vector<vid_t> queue{root};
    seen[root] = 1;
    for (size_t head = 0; head < queue.size(); ++head)
        for (vid_t n : adj_[queue[head]])
            if (seen[n] == 0) {
                seen[n] = 1;
                queue.push_back(n);
            }
    return queue.size();
}

uint64_t
ReferenceGraph::components() const
{
    std::vector<vid_t> parent(numVertices());
    std::iota(parent.begin(), parent.end(), vid_t{0});
    const auto find = [&parent](vid_t v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    uint64_t components = numVertices();
    for (vid_t v = 0; v < numVertices(); ++v)
        for (vid_t n : adj_[v]) {
            const vid_t a = find(v);
            const vid_t b = find(n);
            if (a != b) {
                parent[std::max(a, b)] = std::min(a, b);
                --components;
            }
        }
    return components;
}

} // namespace perfbench
