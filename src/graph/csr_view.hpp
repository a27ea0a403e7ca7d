/**
 * @file
 * GraphView adapter over host-memory CSR snapshots — the cost-free
 * reference implementation used to validate analytics results and as a
 * "perfect DRAM" upper bound in ablation benches.
 */

#ifndef XPG_GRAPH_CSR_VIEW_HPP
#define XPG_GRAPH_CSR_VIEW_HPP

#include <span>

#include "graph/csr.hpp"
#include "graph/graph_view.hpp"

namespace xpg {

/** Read-only view over a pair of CSR snapshots (out + in). */
class CsrView : public GraphView
{
  public:
    CsrView(vid_t num_vertices, std::span<const Edge> edges)
        : out_(num_vertices, edges, false), in_(num_vertices, edges, true)
    {
    }

    vid_t numVertices() const override { return out_.numVertices(); }

    uint32_t
    forEachNebrOut(vid_t v, NebrVisitor fn) const override
    {
        const auto nebrs = out_.neighbors(v);
        for (vid_t nebr : nebrs)
            fn(nebr);
        return static_cast<uint32_t>(nebrs.size());
    }

    uint32_t
    forEachNebrIn(vid_t v, NebrVisitor fn) const override
    {
        const auto nebrs = in_.neighbors(v);
        for (vid_t nebr : nebrs)
            fn(nebr);
        return static_cast<uint32_t>(nebrs.size());
    }

    uint32_t
    degreeOut(vid_t v) const override
    {
        return static_cast<uint32_t>(out_.neighbors(v).size());
    }

    uint32_t
    degreeIn(vid_t v) const override
    {
        return static_cast<uint32_t>(in_.neighbors(v).size());
    }

    bool hasFastDegrees() const override { return true; }

    uint64_t
    vertexWeight(vid_t v) const override
    {
        // Cost-free reference: no modeled charge for the gather.
        return kVertexFixedWeight + out_.neighbors(v).size() +
               in_.neighbors(v).size();
    }

  private:
    Csr out_;
    Csr in_;
};

} // namespace xpg

#endif // XPG_GRAPH_CSR_VIEW_HPP
