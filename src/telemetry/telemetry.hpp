/**
 * @file
 * Telemetry facade: process-wide singleton bundling the metrics
 * registry, the named latency histograms, and the trace ring buffer,
 * plus the instrumentation macros the engines use.
 *
 * Compile-time removal: the build defines XPG_TELEMETRY_ENABLED (1 by
 * default, 0 with -DXPG_TELEMETRY=OFF). The classes are compiled
 * either way — only the XPG_TEL_* / XPG_TRACE_* macros change. When
 * OFF, handle-returning macros evaluate to nullptr constants and the
 * recording macros collapse to no-ops, so instrumented hot paths
 * contain no telemetry code at all and the registry stays empty. The
 * whole tree must be built one way (the CI telemetry stage keeps a
 * separate -notel build tree for the OFF configuration).
 *
 * Telemetry never charges SimClock: simulated time — and therefore
 * every simulated-throughput number the benches report — is identical
 * with telemetry on and off. The <2% overhead acceptance bound is
 * checked against exactly that invariant in bench/run_tier1_bench.sh.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/histogram.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/json_writer.hpp"

#ifndef XPG_TELEMETRY_ENABLED
#define XPG_TELEMETRY_ENABLED 1
#endif

namespace xpg::telemetry {

inline constexpr bool kEnabled = XPG_TELEMETRY_ENABLED != 0;

class Telemetry
{
  public:
    static Telemetry &instance();

    static constexpr bool enabled() { return kEnabled; }

    MetricsRegistry &metrics() { return metrics_; }
    TraceBuffer &trace() { return trace_; }

    /// Handle lookups (locked; cache the result).
    Counter &counter(std::string_view name, const Labels &labels = {})
    {
        return metrics_.counter(name, labels);
    }
    Counter &gauge(std::string_view name, const Labels &labels = {})
    {
        return metrics_.gauge(name, labels);
    }
    ShardedHistogram &histogram(std::string_view name,
                                const Labels &labels = {});

    /// Merge every histogram registered under @p name (across all
    /// label sets) into one plain Histogram.
    Histogram mergedHistogram(std::string_view name) const;

    /// Distinct registered histogram names, in registration order.
    std::vector<std::string> histogramNames() const;

    /// Snapshot of everything except the trace ring:
    /// {"schema":..,"enabled":..,"counters"/"gauges" via metrics,
    ///  "histograms":[{name,labels,count,p50,p95,p99,max},..]}
    json::JsonValue snapshotValue() const;
    std::string snapshotJson() const { return snapshotValue().dump(); }

    json::JsonValue traceValue() const { return trace_.toJson(); }

    bool writeSnapshotJson(const std::string &path) const
    {
        return snapshotValue().writeFile(path);
    }
    bool writeTraceJson(const std::string &path) const
    {
        return traceValue().writeFile(path);
    }

    /// Zero metric values, zero histogram shards, drop trace events.
    /// Registrations (and cached handles) survive. Callers must be
    /// quiescent for the trace part.
    void reset();

  private:
    Telemetry() = default;

    struct HistogramEntry
    {
        MetricInfo info; ///< kind unused; reuses the label plumbing
        ShardedHistogram histogram;
    };

    mutable std::mutex histoMu_;
    std::deque<HistogramEntry> histograms_;
    std::unordered_map<std::string, HistogramEntry *> histoIndex_;

    MetricsRegistry metrics_;
    TraceBuffer trace_;
};

} // namespace xpg::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros — the only telemetry surface engine code uses.
// ---------------------------------------------------------------------------

#if XPG_TELEMETRY_ENABLED

/// Handle lookups (construction-time; cache the pointer in a member).
#define XPG_TEL_COUNTER(name, ...)                                          \
    (&::xpg::telemetry::Telemetry::instance().counter((name), ##__VA_ARGS__))
#define XPG_TEL_GAUGE(name, ...)                                            \
    (&::xpg::telemetry::Telemetry::instance().gauge((name), ##__VA_ARGS__))
#define XPG_TEL_HISTOGRAM(name, ...)                                        \
    (&::xpg::telemetry::Telemetry::instance().histogram((name),             \
                                                        ##__VA_ARGS__))

/// Hot-path mutations through cached handles (null-safe by
/// construction: handles are non-null whenever this branch compiles).
#define XPG_TEL_ADD(counterPtr, n) ((counterPtr)->add(n))
#define XPG_TEL_SET(counterPtr, v) ((counterPtr)->set(v))
#define XPG_TEL_MAX(counterPtr, v) ((counterPtr)->max(v))
#define XPG_TEL_RECORD(histogramPtr, v) ((histogramPtr)->record(v))

/// RAII span on the trace timeline (name/cat must outlive the scope;
/// string literals or internString results).
#define XPG_TRACE_SCOPE(varName, spanName, category)                        \
    ::xpg::telemetry::TraceScope varName(                                   \
        &::xpg::telemetry::Telemetry::instance().trace(), (spanName),       \
        (category))
/// Instant marker at "now".
#define XPG_TRACE_INSTANT(spanName, category)                               \
    ::xpg::telemetry::Telemetry::instance().trace().emitInstant(            \
        (spanName), (category), ::xpg::telemetry::hostNowNs())
/// Host-clock read for hand-measured (conditional) spans.
#define XPG_TEL_HOST_NOW() (::xpg::telemetry::hostNowNs())
/// Emit a complete span from explicit measurements (for spans only
/// emitted above a size threshold, where RAII doesn't fit).
#define XPG_TRACE_EMIT(spanName, category, hostStartNs, hostDurNs, simNs)   \
    ::xpg::telemetry::Telemetry::instance().trace().emitComplete(           \
        (spanName), (category), (hostStartNs), (hostDurNs), (simNs))
#define XPG_TEL_NAME_THREAD(nameStr)                                        \
    ::xpg::telemetry::nameCurrentThread(nameStr)

#else // XPG_TELEMETRY_ENABLED == 0: everything collapses to nothing

#define XPG_TEL_COUNTER(name, ...)                                          \
    (static_cast<::xpg::telemetry::Counter *>(nullptr))
#define XPG_TEL_GAUGE(name, ...)                                            \
    (static_cast<::xpg::telemetry::Counter *>(nullptr))
#define XPG_TEL_HISTOGRAM(name, ...)                                        \
    (static_cast<::xpg::telemetry::ShardedHistogram *>(nullptr))
/* sizeof keeps telemetry-only locals "used" without evaluating them,
 * so the OFF build stays warning-clean under -Wall -Wextra. */
#define XPG_TEL_ADD(counterPtr, n)                                          \
    ((void)sizeof(counterPtr), (void)sizeof(n))
#define XPG_TEL_SET(counterPtr, v)                                          \
    ((void)sizeof(counterPtr), (void)sizeof(v))
#define XPG_TEL_MAX(counterPtr, v)                                          \
    ((void)sizeof(counterPtr), (void)sizeof(v))
#define XPG_TEL_RECORD(histogramPtr, v)                                     \
    ((void)sizeof(histogramPtr), (void)sizeof(v))
#define XPG_TRACE_SCOPE(varName, spanName, category) ((void)0)
#define XPG_TRACE_INSTANT(spanName, category) ((void)0)
#define XPG_TEL_HOST_NOW() (uint64_t{0})
#define XPG_TRACE_EMIT(spanName, category, hostStartNs, hostDurNs, simNs)   \
    ((void)sizeof(hostStartNs), (void)sizeof(hostDurNs),                    \
     (void)sizeof(simNs))
#define XPG_TEL_NAME_THREAD(nameStr) ((void)0)

#endif // XPG_TELEMETRY_ENABLED
