#include "graph/datasets.hpp"

#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/logging.hpp"

namespace xpg {

namespace {

RmatParams
socialSkew()
{
    // Social networks: heavy-tailed but less extreme than web graphs.
    RmatParams p;
    p.a = 0.55;
    p.b = 0.19;
    p.c = 0.19;
    p.noise = 0.10;
    return p;
}

RmatParams
webSkew()
{
    // Web graphs: stronger hubs (host-level super-nodes).
    RmatParams p;
    p.a = 0.62;
    p.b = 0.18;
    p.c = 0.15;
    p.noise = 0.08;
    return p;
}

RmatParams
kronSkew()
{
    // graph500 reference parameters.
    RmatParams p;
    p.a = 0.57;
    p.b = 0.19;
    p.c = 0.19;
    p.noise = 0.10;
    return p;
}

} // namespace

const std::vector<DatasetSpec> &
datasetCatalog()
{
    static const std::vector<DatasetSpec> catalog = {
        {"Twitter", "TT", 61'600'000ull, 1'500'000'000ull, socialSkew(),
         false, 0x7411},
        {"Friendster", "FS", 68'300'000ull, 2'600'000'000ull, socialSkew(),
         false, 0xF511},
        {"UKdomain", "UK", 101'700'000ull, 3'100'000'000ull, webSkew(),
         false, 0x0CC1},
        {"YahooWeb", "YW", 1'400'000'000ull, 6'600'000'000ull, webSkew(),
         false, 0x4A00, 0.07},
        {"Kron28", "K28", 268'435'456ull, 4'000'000'000ull, kronSkew(),
         true, 0x1C28},
        {"Kron29", "K29", 536'870'912ull, 8'000'000'000ull, kronSkew(),
         true, 0x1C29},
        {"Kron30", "K30", 1'073'741'824ull, 16'000'000'000ull, kronSkew(),
         true, 0x1C30},
    };
    return catalog;
}

const DatasetSpec &
datasetByAbbrev(const std::string &abbrev)
{
    for (const auto &spec : datasetCatalog())
        if (spec.abbrev == abbrev)
            return spec;
    XPG_FATAL("unknown dataset abbreviation: " + abbrev);
}

Dataset
generateDataset(const DatasetSpec &spec, unsigned scale_shift)
{
    if (scale_shift > kMaxScaleShift)
        XPG_FATAL("scale shift must be at most " +
                  std::to_string(kMaxScaleShift) + ", got " +
                  std::to_string(scale_shift));
    Dataset ds;
    ds.spec = spec;
    ds.scaleShift = scale_shift;

    uint64_t num_edges = spec.paperEdges >> scale_shift;
    uint64_t num_vertices = spec.paperVertices >> scale_shift;
    num_edges = std::max<uint64_t>(num_edges, 1024);
    num_vertices = std::max<uint64_t>(num_vertices, 256);

    // Generate over the smallest power-of-two id space covering the
    // *active* vertices, then fold onto the full (possibly sparse) id
    // space. Kron graphs keep their exact 2^scale spaces.
    const uint64_t active = std::max<uint64_t>(
        256, static_cast<uint64_t>(static_cast<double>(num_vertices) *
                                   spec.activeFraction));
    const unsigned scale = std::bit_width(active - 1);
    if (spec.powerOfTwoV)
        num_vertices = 1ull << std::bit_width(num_vertices - 1);

    ds.numVertices = static_cast<vid_t>(num_vertices);
    ds.edges = generateRmat(scale, num_edges, spec.rmat, spec.seed);
    if (!spec.powerOfTwoV)
        foldVertices(ds.edges, ds.numVertices);
    return ds;
}

unsigned
defaultScaleShift()
{
    const char *env = std::getenv("XPG_SCALE_SHIFT");
    if (!env)
        return 12;
    char *end = nullptr;
    errno = 0;
    const unsigned long long shift = std::strtoull(env, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(env[0])) || *end != '\0' ||
        errno == ERANGE || shift > kMaxScaleShift)
        XPG_FATAL("XPG_SCALE_SHIFT expects a whole number from 0 to " +
                  std::to_string(kMaxScaleShift) + ", got '" + env + "'");
    return static_cast<unsigned>(shift);
}

} // namespace xpg
