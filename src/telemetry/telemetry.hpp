/**
 * @file
 * Telemetry facade: process-wide singleton bundling the metrics
 * registry (gauges and latency histograms) and the trace ring (spans
 * and event instants), plus the instrumentation macros the engines use.
 *
 * Compile-time removal: the build defines XPG_TELEMETRY_ENABLED (1 by
 * default, 0 with -DXPG_TELEMETRY=OFF). The classes are compiled
 * either way — only the XPG_TEL_* / XPG_TRACE_* / XPG_EVENT macros
 * change. When OFF, the histogram handle macro evaluates to a nullptr
 * constant and the recording macros collapse to no-ops, so instrumented
 * hot paths contain no telemetry code at all and the registry stays
 * empty. The
 * engine's phases, recovery steps and kernels are OpScope records
 * (op_scope.hpp), which feed their histogram and span themselves. The
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
#include <string>

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

    /// Snapshot of everything except the trace ring:
    /// {"schema":..,"enabled":..,"metrics":[gauges],
    ///  "histograms":[{name,labels,count,p50,p95,p99,max},..]}
    json::JsonValue snapshotValue() const;

    json::JsonValue traceValue() const { return trace_.toJson(); }

    bool writeSnapshotJson(const std::string &path) const
    {
        return snapshotValue().writeFile(path);
    }
    bool writeTraceJson(const std::string &path) const
    {
        return traceValue().writeFile(path);
    }

    /// Zero gauges and histograms, drop trace records. Registrations
    /// (and cached handles) survive. Callers must be quiescent: no
    /// histogram records and no trace emits while it runs.
    void reset();

  private:
    Telemetry() = default;

    MetricsRegistry metrics_;
    TraceBuffer trace_;
};

} // namespace xpg::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros — the only telemetry surface engine code uses.
// ---------------------------------------------------------------------------

#if XPG_TELEMETRY_ENABLED

/// Histogram handle lookup (construction-time; cache the pointer).
#define XPG_TEL_HISTOGRAM(name, ...)                                        \
    (&::xpg::telemetry::Telemetry::instance().metrics().histogram(          \
        (name), ##__VA_ARGS__))
/// Hot-path record through a cached handle (non-null whenever this
/// branch compiles).
#define XPG_TEL_RECORD(histogramPtr, v) ((histogramPtr)->record(v))
/// Host-clock read for hand-measured (conditional) spans.
#define XPG_TEL_HOST_NOW() (::xpg::telemetry::hostNowNs())
/// Emit a complete span from explicit measurements: spans that are not
/// an OpScope record (appends above a size threshold, waits, rounds).
#define XPG_TRACE_EMIT(spanName, category, hostStartNs, hostDurNs, simNs)   \
    ::xpg::telemetry::Telemetry::instance().trace().emitComplete(           \
        (spanName), (category), (hostStartNs), (hostDurNs), (simNs))
#define XPG_TEL_NAME_THREAD(nameStr)                                        \
    ::xpg::telemetry::nameCurrentThread(nameStr)
/// Record an ops-plane event as an instant in the trace ring:
/// XPG_EVENT(Warn, "backpressure", "log_full_enter", node, free_slots)
#define XPG_EVENT(level, category, name, a0, a1)                            \
    ::xpg::telemetry::Telemetry::instance().trace().emitInstant(            \
        ::xpg::telemetry::EventLevel::level, (name), (category), (a0), (a1))

#else // XPG_TELEMETRY_ENABLED == 0: everything collapses to nothing

#define XPG_TEL_HISTOGRAM(name, ...)                                        \
    (static_cast<::xpg::telemetry::ShardedHistogram *>(nullptr))
/* sizeof keeps telemetry-only locals "used" without evaluating them,
 * so the OFF build stays warning-clean under -Wall -Wextra. */
#define XPG_TEL_RECORD(histogramPtr, v)                                     \
    ((void)sizeof(histogramPtr), (void)sizeof(v))
#define XPG_TEL_HOST_NOW() (uint64_t{0})
#define XPG_TRACE_EMIT(spanName, category, hostStartNs, hostDurNs, simNs)   \
    ((void)sizeof(hostStartNs), (void)sizeof(hostDurNs),                    \
     (void)sizeof(simNs))
#define XPG_TEL_NAME_THREAD(nameStr) ((void)0)
#define XPG_EVENT(level, category, name, a0, a1)                            \
    ((void)sizeof(a0), (void)sizeof(a1))

#endif // XPG_TELEMETRY_ENABLED
