#include "telemetry/flight_recorder.hpp"

#include <cstdio>

#include "telemetry/attribution.hpp"
#include "telemetry/telemetry.hpp"

namespace xpg::telemetry {

FlightRecorder &
FlightRecorder::instance()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::configure(std::string directory, std::string fileName)
{
    std::lock_guard<std::mutex> lock(mu_);
    directory_ = std::move(directory);
    fileName_ = std::move(fileName);
    enabled_ = !directory_.empty() && !fileName_.empty();
}

void
FlightRecorder::disable()
{
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = false;
    lastSample_ = nullptr;
}

bool
FlightRecorder::enabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return enabled_;
}

std::string
FlightRecorder::lastPath() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lastPath_;
}

uint64_t
FlightRecorder::dumps() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dumps_;
}

void
FlightRecorder::setLastSampleProvider(
    std::function<json::JsonValue()> provider)
{
    std::lock_guard<std::mutex> lock(mu_);
    lastSample_ = std::move(provider);
}

void
FlightRecorder::clearLastSampleProvider()
{
    std::lock_guard<std::mutex> lock(mu_);
    lastSample_ = nullptr;
}

bool
FlightRecorder::dump(const char *reason)
{
    return dump(reason, nullptr, json::JsonValue());
}

bool
FlightRecorder::dump(const char *reason, const char *extraKey,
                     const json::JsonValue &extra)
{
    std::string path;
    std::function<json::JsonValue()> sampleProvider;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!enabled_)
            return false;
        path = directory_ + "/" + fileName_;
        sampleProvider = lastSample_;
    }

    json::JsonValue doc = json::JsonValue::object();
    doc.set("schema", "xpgraph-flight-v1");
    doc.set("reason", reason);
    // The hook runs synchronously on the triggering thread, so its
    // innermost attribution scope is the phase in flight at the
    // incident ("other" for threads outside instrumented paths).
    doc.set("in_flight_phase",
            accessCategoryName(AccessScope::current()));
    doc.set("host_ns", hostNowNs());

    // One pass over the ring: the newest kTailEvents instants (the
    // event tail) and the newest kTailEvents spans (the trace tail).
    const std::vector<TraceEventView> records =
        Telemetry::instance().trace().collect();
    std::vector<const TraceEventView *> instants;
    std::vector<const TraceEventView *> spans;
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
        auto &tail = it->ph == 'i' ? instants : spans;
        if (tail.size() < kTailEvents)
            tail.push_back(&*it);
    }
    json::JsonValue eventTail = json::JsonValue::array();
    for (auto it = instants.rbegin(); it != instants.rend(); ++it)
        eventTail.push(eventJson(**it));
    doc.set("event_tail", std::move(eventTail));
    json::JsonValue traceTail = json::JsonValue::array();
    for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
        const TraceEventView &e = **it;
        json::JsonValue v = json::JsonValue::object();
        v.set("ticket", e.ticket);
        v.set("name", e.name);
        v.set("cat", e.cat);
        v.set("ph", std::string(1, e.ph));
        v.set("tid", e.tid);
        v.set("ts_ns", e.tsNs);
        v.set("dur_ns", e.durNs);
        v.set("sim_ns", e.simNs);
        v.set("a0", e.a0);
        v.set("a1", e.a1);
        traceTail.push(std::move(v));
    }
    doc.set("trace_tail", std::move(traceTail));

    doc.set("last_sample",
            sampleProvider ? sampleProvider() : json::JsonValue());
    if (extraKey != nullptr)
        doc.set(extraKey, extra);

    const std::string tmp = path + ".tmp";
    if (!doc.writeFile(tmp))
        return false;
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        lastPath_ = path;
        ++dumps_;
    }
    return true;
}

void
flightRecordCrash(const char *reason) noexcept
{
    try {
        FlightRecorder::instance().dump(reason);
    } catch (...) {
        // Diagnostics must never change crash semantics.
    }
}

} // namespace xpg::telemetry
