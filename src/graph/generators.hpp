/**
 * @file
 * Synthetic graph generators. The RMAT/Kronecker generator replaces the
 * paper's downloaded datasets and graph500-generated Kron graphs (see
 * DESIGN.md substitution table): it reproduces the power-law degree
 * distribution the hierarchical-buffer design depends on.
 */

#ifndef XPG_GRAPH_GENERATORS_HPP
#define XPG_GRAPH_GENERATORS_HPP

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace xpg {

/** RMAT quadrant probabilities; graph500 uses (.57, .19, .19, .05). */
struct RmatParams
{
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;
    /// d is implied as 1 - a - b - c.
    /// Per-level probability noise, decorrelate repeated picks.
    double noise = 0.10;
};

/**
 * Generate @p num_edges RMAT edges over 2^@p scale vertices, in blocks
 * on every CPU the process may run on. Deterministic in @p seed, with
 * the same bytes at any CPU count. Self-loops allowed (real traces have
 * them); duplicates allowed (evolving graphs re-add edges).
 */
std::vector<Edge> generateRmat(unsigned scale, uint64_t num_edges,
                               const RmatParams &params, uint64_t seed);

/** Uniformly random edges over @p num_vertices vertices; generated
 *  and deterministic like generateRmat(). */
std::vector<Edge> generateUniform(vid_t num_vertices, uint64_t num_edges,
                                  uint64_t seed);

/**
 * Remap vertex ids of @p edges from [0, 2^scale) onto [0, num_vertices)
 * with a multiplicative hash, for datasets whose vertex count is not a
 * power of two. Preserves the degree-distribution shape.
 */
void foldVertices(std::vector<Edge> &edges, vid_t num_vertices);

} // namespace xpg

#endif // XPG_GRAPH_GENERATORS_HPP
