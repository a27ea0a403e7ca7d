/**
 * @file
 * Shared harness for the figure/table reproduction benches: dataset
 * loading at the session scale, scale-aware system configuration, ingest
 * drivers, and result formatting.
 *
 * All quantities are simulated (see DESIGN.md): "seconds" are simulated
 * seconds on the modeled Optane testbed, and byte counters come from the
 * device models' media counters (the PCM equivalent).
 */

#ifndef XPG_BENCH_COMMON_HPP
#define XPG_BENCH_COMMON_HPP

#include <memory>
#include <string>
#include <vector>

#include "baselines/graphone.hpp"
#include "core/xpgraph.hpp"
#include "graph/datasets.hpp"
#include "util/json_writer.hpp"
#include "util/table_printer.hpp"

namespace xpg::bench {

/** Paper testbed constants, scaled by the session scale shift. */
struct ScaledTestbed
{
    unsigned scaleShift;
    uint64_t elogCapacityEdges;      ///< paper: 8 GiB of 8 B edges
    uint64_t bufferingThresholdEdges;///< paper: 2^16
    uint64_t dramBudgetBytes;        ///< paper: 128 GiB (OOM modeling)
    uint64_t memoryModeCacheBytes;   ///< DRAM cache in Memory Mode

    static ScaledTestbed
    at(unsigned shift)
    {
        ScaledTestbed t;
        t.scaleShift = shift;
        t.elogCapacityEdges =
            std::max<uint64_t>(1ull << 14, (1ull << 30) >> shift);
        t.dramBudgetBytes = (128ull << 30) >> shift;
        t.memoryModeCacheBytes =
            std::max<uint64_t>(1ull << 20, (128ull << 30) >> shift) / 2;
        // Placeholder; thresholdFor() refines per dataset.
        t.bufferingThresholdEdges = 1ull << 12;
        return t;
    }

    /**
     * Archive/buffering threshold for a graph of @p num_vertices.
     * The paper uses a fixed 2^16; at reduced scale a fixed threshold
     * would make each batch touch every vertex dozens of times, letting
     * the XPBuffer coalesce GraphOne's per-edge writes in a way the
     * full-scale system never sees. Scaling the threshold with |V|
     * preserves the paper's batch-to-vertex density.
     */
    static uint64_t
    thresholdFor(uint64_t num_vertices)
    {
        return std::clamp<uint64_t>(num_vertices, 1ull << 12,
                                    1ull << 16);
    }
};

/** One system's ingest outcome (a bar of Fig.11/12 plus its Fig.13 data). */
struct IngestOutcome
{
    std::string system;
    std::string dataset;
    bool oom = false;        ///< exceeded the scaled DRAM budget
    IngestStats stats;
    PcmCounters counters;
    telemetry::AttributionSnapshot attribution; ///< per-cause split
    MemoryUsage mem;
    CompressionStats compression; ///< codec activity (zero when off/N.A.)

    uint64_t ingestNs() const { return stats.ingestNs(); }
};

/** Session scale (XPG_SCALE_SHIFT env or default). */
unsigned scaleShift();

/** Generate a dataset at the session scale (logs progress to stderr). */
Dataset loadDataset(const std::string &abbrev);

/** Default XPGraph configuration for a dataset on the scaled testbed. */
XPGraphConfig xpgraphConfig(const Dataset &ds, unsigned archive_threads);

/** Default GraphOne configuration for a dataset on the scaled testbed. */
GraphOneConfig graphoneConfig(const Dataset &ds, GraphOneVariant variant,
                              unsigned archive_threads);

/**
 * Engine-polymorphic ingest driver: feed the dataset through the
 * GraphStore interface, then fully archive it (a sync point).
 *
 * @p sessions == 0 drives the store through one scoped session(0) from
 * the calling thread, exactly as the single-thread benches always have.
 * @p sessions >= 1 spawns that many client threads, each opening its own
 * IngestSession (thread index as the NUMA hint) and appending a
 * contiguous chunk of the edge stream. @p volatile_store marks runs that
 * must fit the scaled DRAM budget (OOM modeling).
 */
IngestOutcome ingestStore(GraphStore &store, const Dataset &ds,
                          const std::string &label, bool volatile_store,
                          unsigned sessions = 0);

/** Build + ingest + fully archive an XPGraph instance. */
IngestOutcome ingestXpgraph(const Dataset &ds, const XPGraphConfig &config,
                            const std::string &label);

/** Build + ingest + fully archive a GraphOne instance. */
IngestOutcome ingestGraphone(const Dataset &ds,
                             const GraphOneConfig &config,
                             const std::string &label);

/** Same, returning the live engine for follow-up query benches. */
std::unique_ptr<XPGraph> buildXpgraph(const Dataset &ds,
                                      const XPGraphConfig &config);
std::unique_ptr<GraphOne> buildGraphone(const Dataset &ds,
                                        const GraphOneConfig &config);

/** Total DRAM a volatile (DRAM-only) run occupies, for OOM marking. */
uint64_t dramFootprint(const IngestOutcome &o);

/** "12.34" seconds or "OOM". */
std::string secondsOrOom(const IngestOutcome &o);

/** Standard bench banner: scale, dataset sizes, reminder of units. */
void printBanner(const std::string &bench, const std::string &paper_ref);

/**
 * Shared bench-report writer: resolve the output path (@p env_var
 * overrides @p default_path when set), pretty-print @p doc, and log
 * the outcome the way every bench always has ("wrote PATH" on stdout,
 * an error on stderr). Replaces the per-bench fprintf JSON emitters.
 * @return true when the file was written.
 */
bool writeJsonReport(const json::JsonValue &doc, const char *env_var,
                     const std::string &default_path,
                     const char *bench_name);

/**
 * Merged (all label sets) quantile summary of every registered
 * telemetry histogram whose name starts with one of ingest./archive./
 * pmem./query./recovery. — the per-phase latency series the figure
 * reports attach per row. Returns an empty object when nothing was
 * recorded.
 */
json::JsonValue telemetryPhaseSeries();

} // namespace xpg::bench

#endif // XPG_BENCH_COMMON_HPP
