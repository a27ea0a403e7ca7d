/**
 * @file
 * Periodic metrics exporter: a background sampler that turns the
 * pull-at-end-of-run telemetry snapshot into a live operational feed.
 *
 * Each sample snapshots the metrics registry — gauges and histograms,
 * in its sorted deterministic key order — plus an optional
 * owner-supplied extra section (attribution tables,
 * compression/compaction stats), and writes two artifacts:
 *
 *  - an append-only JSONL time series (one compact JSON object per
 *    line) — the per-second operational trace fig_serving runs emit;
 *  - a Prometheus-style text exposition of the gauges, rewritten
 *    atomically (tmp + rename) each sample so a scraper never reads a
 *    torn file.
 *
 * The sampler thread only *reads* telemetry state and never charges
 * SimClock, so simulated time — and every simulated-latency number the
 * benches report — is identical with the exporter on and off. That
 * invariant is what makes the ≤5% exporter-overhead gate in
 * fig_serving meaningful rather than flaky.
 *
 * sampleOnce() is the deterministic entry point (tests, CI, and the
 * final sample at stop()); start()/stop() run the periodic thread.
 * The last sample is retained for the crash flight recorder.
 */

#ifndef XPG_TELEMETRY_EXPORTER_HPP
#define XPG_TELEMETRY_EXPORTER_HPP

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "util/json_writer.hpp"

namespace xpg::telemetry {

class MetricsRegistry;

struct ExporterOptions
{
    /** Append-only JSONL sample series ("" = skip). */
    std::string jsonlPath;
    /** Prometheus text exposition, atomically rewritten ("" = skip). */
    std::string promPath;
    /** Sampling period for the background thread. */
    uint64_t periodMs = 1000;
    /** Called before every sample (store->publishTelemetry() so gauges
     *  reflect the sampling instant). */
    std::function<void()> prePublish;
    /** Optional owner-supplied section merged into each sample under
     *  "extra" (attribution, compression/compaction stats). */
    std::function<json::JsonValue()> extra;
};

class MetricsExporter
{
  public:
    MetricsExporter() = default;
    ~MetricsExporter() { stop(); }

    MetricsExporter(const MetricsExporter &) = delete;
    MetricsExporter &operator=(const MetricsExporter &) = delete;

    /** Install options; truncates an existing JSONL file so each run
     *  produces a self-contained series. Call before start(). */
    void configure(ExporterOptions options);

    /**
     * Take one sample now: prePublish, snapshot, append JSONL line,
     * rewrite the exposition file. @return false on any I/O failure.
     * Deterministic entry point; also used by the periodic thread.
     */
    bool sampleOnce();

    /** Start/stop the periodic sampler (stop takes a final sample so
     *  short runs never end with an empty series). */
    void start();
    void stop();
    bool running() const { return sampler_.joinable(); }

    uint64_t samples() const;

    /** Copy of the most recent sample (Null before the first). */
    json::JsonValue lastSample() const;

    /** Render @p registry's gauges as Prometheus text exposition
     *  (exposed for tests; sorted, names sanitized to [a-zA-Z0-9_:]). */
    static std::string prometheusText(const MetricsRegistry &registry);

  private:
    void samplerLoop(uint64_t periodMs);
    json::JsonValue buildSample();
    bool writeArtifacts(const json::JsonValue &sample);

    mutable std::mutex mu_; ///< options + last sample
    ExporterOptions options_;
    json::JsonValue last_;
    uint64_t samples_ = 0;

    std::thread sampler_;
    std::mutex samplerMu_;
    std::condition_variable samplerCv_;
    bool stop_ = false; ///< guarded by samplerMu_
};

} // namespace xpg::telemetry

#endif // XPG_TELEMETRY_EXPORTER_HPP
