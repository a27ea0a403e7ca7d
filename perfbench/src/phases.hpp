/**
 * @file
 * The three phases every workload is built from — bulk ingest, analytics
 * kernels and the serving mix — driven only through the library's public
 * surface (IngestSession, archiveAll, openView, runCompactionPass, the
 * algorithms.hpp kernels and the stats/counter getters). Each phase
 * fills a flat name -> value map with the end-to-end and per-layer
 * metrics it measures and checks the store's outputs against the
 * reference model.
 */

#ifndef XPG_PERFBENCH_PHASES_HPP
#define XPG_PERFBENCH_PHASES_HPP

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/xpgraph.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "spans.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/** Output checks: every checked output is one attempted op. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void expect(bool ok, const char *what, uint64_t got, uint64_t want);
};

/** Settings shared by every phase of a run. */
struct PhaseEnv
{
    unsigned threads = 1; ///< archive threads = query threads
    SpanRecorder *spans = nullptr;
    Checks *checks = nullptr;
    /** Fixed offered rates of the serving replay, ascending. */
    std::vector<double> ratesKops;
    uint64_t readP99LimitNs = 0;
};

/**
 * Stream @p edges into @p g through one session in fixed-size batches,
 * then archiveAll(). Fills the ingest metrics (simulated rate, media and
 * memory bytes per edge) and the session/archive layer metrics; the
 * host time of the phase is returned in m["host_wall_s"].
 */
void runIngest(xpg::XPGraph &g, std::span<const Edge> edges,
               const PhaseEnv &env, Metrics &m);

/** Reference answers an analytics pass is checked against. */
struct AnalyticsExpect
{
    vid_t bfsRoot = 0;
    uint64_t bfsReached = 0;
    uint64_t components = 0;
    uint64_t oneHopNebrs = 0;
};

AnalyticsExpect expectAnalytics(const ReferenceGraph &ref,
                                std::span<const vid_t> queries);

/**
 * BFS, PageRank (10 iterations), CC and the one-hop query set over
 * @p view, which is a quiesced store or a ReadView of one.
 */
void runAnalytics(xpg::GraphView &view, std::span<const vid_t> queries,
                  const AnalyticsExpect &expect, const PhaseEnv &env,
                  Metrics &m);

/** One serving run: how many ops, and the seed of its op sequence. */
struct ServingPlan
{
    uint64_t ops = 0;
    uint64_t seed = 0;
};

/**
 * The open-loop 95/5 serving mix on one thread: reads are one-hop fetches
 * of @p read_vertices on a periodically re-opened ReadView; writes are
 * 64-edge batches in which one edge in ten deletes a live out-edge of a
 * vertex drawn from @p churn_vertices (deletes concentrate there so
 * chains cross the compactor's tombstone threshold); a synchronous
 * compaction pass runs every 256 batches. Consumes
 * insert edges from @p inserts (advancing @p next_insert) and keeps
 * @p ref in step. Every read is checked against the reference degree at
 * its view's open. Service times are replayed at the fixed rates.
 */
void runServing(xpg::XPGraph &g, ReferenceGraph &ref,
                std::span<const Edge> inserts, uint64_t &next_insert,
                std::span<const vid_t> read_vertices,
                std::span<const vid_t> churn_vertices,
                const ServingPlan &plan, const PhaseEnv &env, Metrics &m);

/** Insert edges one serving run of @p plan consumes. */
uint64_t servingInsertEdges(const ServingPlan &plan);

} // namespace perfbench

#endif // XPG_PERFBENCH_PHASES_HPP
