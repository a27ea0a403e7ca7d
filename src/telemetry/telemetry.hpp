/**
 * @file
 * Telemetry facade: process-wide singleton bundling the metrics
 * registry (gauges and latency histograms) and the trace ring (spans
 * and event instants), plus the instrumentation macros the engines use.
 *
 * Telemetry is always compiled in: there is one build, and every
 * attribution row, OpScope delta and round record it reports is
 * measured. The engine's phases, recovery steps and kernels are
 * OpScope records (op_scope.hpp), which feed their histogram and span
 * themselves.
 *
 * Telemetry never charges SimClock and never changes what is
 * simulated: Telemetry.RecordingNeverChargesSimClock and
 * Telemetry.ReadersLeaveSimulatedResultsUnchanged check both.
 */
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/json_writer.hpp"

namespace xpg::telemetry {

class Telemetry
{
  public:
    static Telemetry &instance();

    MetricsRegistry &metrics() { return metrics_; }
    TraceBuffer &trace() { return trace_; }

    /// Snapshot of everything except the trace ring:
    /// {"schema":..,"metrics":[gauges],
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

/// Histogram handle lookup (construction-time; cache the pointer).
#define XPG_TEL_HISTOGRAM(name, ...)                                        \
    (&::xpg::telemetry::Telemetry::instance().metrics().histogram(          \
        (name), ##__VA_ARGS__))
/// Emit a complete span from explicit measurements: spans that are not
/// an OpScope record (appends above a size threshold, waits, rounds).
#define XPG_TRACE_EMIT(spanName, category, hostStartNs, hostDurNs, simNs)   \
    ::xpg::telemetry::Telemetry::instance().trace().emitComplete(           \
        (spanName), (category), (hostStartNs), (hostDurNs), (simNs))
/// Record an ops-plane event as an instant in the trace ring:
/// XPG_EVENT(Warn, "backpressure", "log_full_enter", node, free_slots)
#define XPG_EVENT(level, category, name, a0, a1)                            \
    ::xpg::telemetry::Telemetry::instance().trace().emitInstant(            \
        ::xpg::telemetry::EventLevel::level, (name), (category), (a0), (a1))
