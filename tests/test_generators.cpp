/**
 * @file
 * Generators and dataset catalog: determinism, range validity, power-law
 * skew, vertex folding, scaling behaviour, and the catalog contents.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "util/checksum.hpp"

namespace xpg {
namespace {

std::vector<uint32_t>
outDegrees(vid_t nv, const std::vector<Edge> &edges)
{
    std::vector<uint32_t> deg(nv, 0);
    for (const Edge &e : edges)
        ++deg[rawVid(e.src)];
    return deg;
}

TEST(Generators, RmatIsDeterministic)
{
    const auto a = generateRmat(10, 5000, RmatParams{}, 42);
    const auto b = generateRmat(10, 5000, RmatParams{}, 42);
    EXPECT_EQ(a, b);
    const auto c = generateRmat(10, 5000, RmatParams{}, 43);
    EXPECT_NE(a, c);
}

TEST(Generators, RmatEndpointsInRange)
{
    const unsigned scale = 12;
    const auto edges = generateRmat(scale, 20000, RmatParams{}, 1);
    for (const Edge &e : edges) {
        EXPECT_LT(e.src, 1u << scale);
        EXPECT_LT(e.dst, 1u << scale);
    }
}

TEST(Generators, RmatIsSkewed)
{
    // Power-law shape: the top 1% of vertices should hold a large share
    // of edges, and many vertices should have degree <= 2 (the paper's
    // S III-C observation driving hierarchical buffers).
    const vid_t nv = 1 << 12;
    const auto edges = generateRmat(12, 100000, RmatParams{}, 3);
    auto deg = outDegrees(nv, edges);
    std::sort(deg.begin(), deg.end(), std::greater<>());
    uint64_t top = 0;
    for (size_t i = 0; i < deg.size() / 100; ++i)
        top += deg[i];
    EXPECT_GT(top * 5, static_cast<uint64_t>(edges.size()))
        << "top 1% holds < 20% of edges: not skewed";

    size_t low = 0;
    for (uint32_t d : deg)
        low += d <= 2;
    EXPECT_GT(low * 100, deg.size() * 30)
        << "fewer than 30% of vertices have degree <= 2";
}

TEST(Generators, UniformIsNotSkewed)
{
    const vid_t nv = 1 << 12;
    const auto edges = generateUniform(nv, 100000, 3);
    auto deg = outDegrees(nv, edges);
    const auto max_deg = *std::max_element(deg.begin(), deg.end());
    EXPECT_LT(max_deg, 100u); // mean ~24; Poisson tail stays low
}

/** FNV-1a of @p edges' bytes, continuing from @p seed. */
uint64_t
edgeHash(const std::vector<Edge> &edges, uint64_t seed = fnv1a64(nullptr, 0))
{
    return fnv1a64(edges.data(), edges.size() * sizeof(Edge), seed);
}

TEST(Generators, StreamsArePinned)
{
    // The constants were recorded from the serial loop that the block
    // fill (blocks of 2^16 edges) replaced; the fill must reproduce its
    // bytes at any CPU count. Every catalog stand-in at shift 14, then
    // RMAT and uniform streams around block boundaries at the smallest
    // and largest RMAT scales.
    std::vector<std::pair<std::string, uint64_t>> got;
    for (const DatasetSpec &spec : datasetCatalog()) {
        const Dataset ds = generateDataset(spec, 14);
        got.emplace_back(spec.abbrev, edgeHash(ds.edges, ds.numVertices));
    }
    for (uint64_t n : {0ull, 1ull, (1ull << 16) - 1, 1ull << 16,
                       (1ull << 16) + 1, 3 * (1ull << 16) + 5}) {
        for (unsigned scale : {1u, 30u})
            got.emplace_back(
                "rmat scale " + std::to_string(scale) + " n " +
                    std::to_string(n),
                edgeHash(generateRmat(scale, n, RmatParams{}, 0x5EED)));
        got.emplace_back("uniform n " + std::to_string(n),
                         edgeHash(generateUniform(1000, n, 0x5EED)));
    }
    const std::vector<uint64_t> want = {
        // TT, FS, UK, YW, K28, K29, K30
        0x7bc5e8c502ac7e81ull, 0x01ddb007bb56777dull, 0x96be8afa550f46e7ull,
        0x95b655606e1a2adcull, 0x014dfefb878af33full, 0x7ece59e4df41ed43ull,
        0x248f7032010fea0bull,
        // per edge count: RMAT scale 1, RMAT scale 30, uniform
        0x14650fb0739d0383ull, 0x14650fb0739d0383ull, 0x14650fb0739d0383ull,
        0x29034675a49f07c2ull, 0x576c942fc38e8979ull, 0xd1921ef8a6369c3bull,
        0x2e76f1f8d76dfe13ull, 0x03415f0ff15bde10ull, 0x50894abcd54756e3ull,
        0x6aef3ea1825c3e73ull, 0xc29378d082c5246aull, 0x25a954bab04990e5ull,
        0x78e9a81a434e4ad3ull, 0xb0d46da2e2cbfba0ull, 0xc488d10e0092d176ull,
        0x32b1dfd8348c6a92ull, 0x8d4f5de167ebff89ull, 0x270a4e4bb8641808ull,
    };
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].second, want[i]) << got[i].first;
}

TEST(Generators, FoldMapsIntoRange)
{
    auto edges = generateRmat(12, 10000, RmatParams{}, 7);
    foldVertices(edges, 1000);
    for (const Edge &e : edges) {
        EXPECT_LT(e.src, 1000u);
        EXPECT_LT(e.dst, 1000u);
    }
}

TEST(Generators, FoldPreservesSkew)
{
    auto edges = generateRmat(12, 100000, RmatParams{}, 7);
    foldVertices(edges, 1000);
    auto deg = outDegrees(1000, edges);
    std::sort(deg.begin(), deg.end(), std::greater<>());
    uint64_t top = 0;
    for (size_t i = 0; i < 10; ++i)
        top += deg[i];
    // Top 1% of the folded vertices still hold >10% of all edges.
    EXPECT_GT(top * 10, 100000u);
}

TEST(Datasets, CatalogHasTheSevenPaperGraphs)
{
    const auto &catalog = datasetCatalog();
    ASSERT_EQ(catalog.size(), 7u);
    EXPECT_EQ(catalog[0].abbrev, "TT");
    EXPECT_EQ(catalog[3].abbrev, "YW");
    EXPECT_EQ(catalog[6].abbrev, "K30");
    EXPECT_EQ(catalog[1].paperEdges, 2'600'000'000ull); // Friendster
}

TEST(Datasets, LookupByAbbrevWorksAndUnknownIsFatal)
{
    EXPECT_EQ(datasetByAbbrev("UK").name, "UKdomain");
    EXPECT_EXIT(datasetByAbbrev("nope"), ::testing::ExitedWithCode(1),
                "unknown dataset");
}

TEST(Datasets, ShiftAbove63IsFatal)
{
    // The paper's counts are 64-bit: a shift of 64 must not wrap to 0.
    EXPECT_EXIT(generateDataset(datasetByAbbrev("TT"), 64),
                ::testing::ExitedWithCode(1), "scale shift");
}

TEST(Datasets, ScalePreservesEdgeVertexRatio)
{
    const auto &spec = datasetByAbbrev("FS");
    const Dataset ds = generateDataset(spec, 12);
    const double paper_ratio = static_cast<double>(spec.paperEdges) /
                               static_cast<double>(spec.paperVertices);
    const double scaled_ratio =
        static_cast<double>(ds.edges.size()) /
        static_cast<double>(ds.numVertices);
    EXPECT_NEAR(scaled_ratio, paper_ratio, paper_ratio * 0.15);
}

TEST(Datasets, DeeperShiftHalvesSizes)
{
    const auto &spec = datasetByAbbrev("TT");
    const Dataset big = generateDataset(spec, 11);
    const Dataset small = generateDataset(spec, 12);
    EXPECT_NEAR(static_cast<double>(big.edges.size()),
                2.0 * static_cast<double>(small.edges.size()),
                0.01 * static_cast<double>(big.edges.size()));
}

TEST(Datasets, KronKeepsPowerOfTwoVertices)
{
    const Dataset ds = generateDataset(datasetByAbbrev("K28"), 12);
    EXPECT_EQ(ds.numVertices & (ds.numVertices - 1), 0u);
}

TEST(Datasets, YahooWebHasSparseActiveIds)
{
    const Dataset ds = generateDataset(datasetByAbbrev("YW"), 12);
    std::vector<uint8_t> touched(ds.numVertices, 0);
    for (const Edge &e : ds.edges) {
        touched[rawVid(e.src)] = 1;
        touched[rawVid(e.dst)] = 1;
    }
    const auto active = std::count(touched.begin(), touched.end(), 1);
    EXPECT_LT(static_cast<uint64_t>(active), ds.numVertices / 4)
        << "YW stand-in should leave most vertex ids unused";
}

TEST(Datasets, EdgesAreInRange)
{
    for (const char *abbrev : {"TT", "FS", "UK", "YW", "K28"}) {
        const Dataset ds =
            generateDataset(datasetByAbbrev(abbrev), 13);
        for (const Edge &e : ds.edges) {
            ASSERT_LT(rawVid(e.src), ds.numVertices) << abbrev;
            ASSERT_LT(rawVid(e.dst), ds.numVertices) << abbrev;
        }
    }
}

} // namespace
} // namespace xpg
