/**
 * @file
 * Catalog of the paper's seven evaluation datasets (Table II), generated
 * synthetically at a configurable down-scale. Each spec preserves the
 * original |V|/|E| ratio and a skew profile appropriate to the dataset
 * class (social / web / Kronecker), which is what the paper's mechanisms
 * are sensitive to (DESIGN.md substitution table).
 */

#ifndef XPG_GRAPH_DATASETS_HPP
#define XPG_GRAPH_DATASETS_HPP

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/types.hpp"

namespace xpg {

/** One paper dataset and how to synthesize its stand-in. */
struct DatasetSpec
{
    std::string name;    ///< full name, e.g. "Friendster"
    std::string abbrev;  ///< paper abbreviation, e.g. "FS"
    uint64_t paperVertices; ///< |V| in the paper (Table II)
    uint64_t paperEdges;    ///< |E| in the paper (Table II)
    RmatParams rmat;     ///< skew profile of the stand-in
    bool powerOfTwoV;    ///< Kron graphs keep 2^scale vertices
    uint64_t seed;       ///< generator seed
    /**
     * Fraction of the vertex-id space that actually has edges. Web
     * crawls like YahooWeb enumerate far more ids than they connect
     * (the paper's Fig.16 DRAM numbers imply ~7% active ids on YW).
     */
    double activeFraction = 1.0;
};

/** The seven datasets of Table II, in paper order. */
const std::vector<DatasetSpec> &datasetCatalog();

/** Look up a spec by abbreviation (TT/FS/UK/YW/K28/K29/K30). Fatal if
 *  unknown. */
const DatasetSpec &datasetByAbbrev(const std::string &abbrev);

/** A generated instance of a dataset at some scale. */
struct Dataset
{
    DatasetSpec spec;
    unsigned scaleShift = 0;    ///< counts divided by 2^scaleShift
    vid_t numVertices = 0;
    std::vector<Edge> edges;

    /** Size of the binary edge list ("Bin Size" column of Table II). */
    uint64_t binBytes() const { return edges.size() * sizeof(Edge); }

    /** Approximate count of vertices that actually carry edges. */
    uint64_t
    activeVertices() const
    {
        return std::max<uint64_t>(
            1, static_cast<uint64_t>(static_cast<double>(numVertices) *
                                     spec.activeFraction));
    }
};

/// Largest scale shift: the paper's counts are shifted as 64-bit words.
constexpr unsigned kMaxScaleShift = 63;

/**
 * Generate @p spec scaled down by 2^@p scale_shift.
 * |E| = paperEdges >> scale_shift, |V| = paperVertices >> scale_shift
 * (rounded to a power of two for Kron datasets). Fatal if scale_shift
 * exceeds kMaxScaleShift.
 */
Dataset generateDataset(const DatasetSpec &spec, unsigned scale_shift);

/**
 * Default scale shift: 2^12 (1/4096 of paper size) unless overridden by
 * the XPG_SCALE_SHIFT environment variable, a whole number from 0 to
 * kMaxScaleShift (anything else is fatal). Benches use this so the whole
 * suite completes in minutes on a laptop-class host.
 */
unsigned defaultScaleShift();

} // namespace xpg

#endif // XPG_GRAPH_DATASETS_HPP
