/**
 * @file
 * Named metrics registry: set-to-latest gauges and latency histograms
 * with hierarchical labels (store, NUMA node, session, phase).
 *
 * Registration (looking a series up by name+labels) takes a mutex and
 * returns a stable Gauge& or ShardedHistogram& whose address never
 * moves for the life of the registry; hot paths cache the pointer once
 * and then update it lock-free. This is the same split the device cost
 * model uses: locked slow path to wire things up, lock-free cells on
 * the data path.
 *
 * Gauges are set-to-latest values (pmem.media_bytes_written published
 * from the device counters at snapshot time); histograms hold the
 * simulated ns of each phase, round or media access. Both kinds share
 * one key (kind, name and labels), one index and one sorted walk, which
 * the JSON snapshot and the Prometheus exposition both read.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/histogram.hpp"
#include "util/json_writer.hpp"

namespace xpg::telemetry {

/// Label set attached to a series at registration time. Unset fields
/// (nullptr / -1) are omitted from exports. The char pointers are
/// copied into owned strings on registration, so string literals and
/// temporaries are both fine.
struct Labels
{
    const char *store = nullptr; ///< "xpgraph", "graphone", ...
    int node = -1;               ///< NUMA node index
    int session = -1;            ///< ingest session id
    const char *phase = nullptr; ///< "logging", "buffering", ...
};

/// One relaxed-atomic set-to-latest cell. Stable address once
/// registered.
class Gauge
{
  public:
    void set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

enum class MetricKind { Gauge, Histogram };

/// Name, kind and labels of one registered series.
struct MetricInfo
{
    std::string name;
    MetricKind kind;
    std::string store; ///< empty when unset
    int node;          ///< -1 when unset
    int session;       ///< -1 when unset
    std::string phase; ///< empty when unset
};

/// One registered series: a gauge, or a histogram.
struct MetricSeries
{
    MetricInfo info;
    Gauge gauge;                                 ///< kind Gauge
    std::unique_ptr<ShardedHistogram> histogram; ///< kind Histogram
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /// Find-or-create. The returned reference stays valid for the
    /// registry's lifetime; repeated calls with equal name+labels
    /// return the same cell.
    Gauge &gauge(std::string_view name, const Labels &labels = {});
    ShardedHistogram &histogram(std::string_view name,
                                const Labels &labels = {});

    /// Visit every series sorted by name then labels — not
    /// registration order, which depends on thread timing — so exports
    /// are deterministic across runs (locked; values read relaxed).
    void forEach(const std::function<void(const MetricSeries &)> &fn) const;

    /// Merge every histogram registered under @p name (across all
    /// label sets) into one plain Histogram.
    Histogram mergedHistogram(std::string_view name) const;

    /// Distinct registered histogram names, in registration order.
    std::vector<std::string> histogramNames() const;

    /// Zero every gauge and histogram, keeping registrations (and thus
    /// cached handles) intact. Callers must be quiescent: a histogram
    /// record racing the reset can store its stale sum back.
    void resetValues();

    size_t size() const;

    /// Set @p doc's "metrics" ([{"name","kind","labels","value"}, ..],
    /// the gauges) and "histograms" ([{"name","labels","count","sum",
    /// "mean","p50","p95","p99","max"}, ..]) from one sorted walk.
    void toJson(json::JsonValue &doc) const;

  private:
    MetricSeries &findOrCreate(std::string_view name, const Labels &labels,
                               MetricKind kind);

    mutable std::mutex mu_;
    std::deque<MetricSeries> series_; ///< deque: stable element addresses
    std::unordered_map<std::string, MetricSeries *> index_;
};

} // namespace xpg::telemetry
