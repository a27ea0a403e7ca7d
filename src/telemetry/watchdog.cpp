#include "telemetry/watchdog.hpp"

#include <algorithm>
#include <cstdio>

#include "telemetry/telemetry.hpp"

namespace xpg::telemetry {

const char *
healthStatusName(HealthStatus status)
{
    switch (status) {
      case HealthStatus::Ok: return "ok";
      case HealthStatus::Degraded: return "degraded";
      case HealthStatus::Stalled: return "stalled";
    }
    return "unknown";
}

void
Heartbeat::beat()
{
    lastBeat_.store(hostNowNs(), std::memory_order_relaxed);
    beats_.fetch_add(1, std::memory_order_relaxed);
}

void
Heartbeat::busy(bool b)
{
    busy_.store(b, std::memory_order_relaxed);
    beat();
}

HealthStatus
HealthReport::overall() const
{
    HealthStatus worst = HealthStatus::Ok;
    for (const ComponentHealth &c : components)
        worst = std::max(worst, c.status);
    return worst;
}

json::JsonValue
HealthReport::toJson() const
{
    json::JsonValue doc = json::JsonValue::object();
    doc.set("schema", "xpgraph-health-v1");
    doc.set("checked_at_ns", checkedAtNs);
    doc.set("overall", healthStatusName(overall()));
    json::JsonValue arr = json::JsonValue::array();
    for (const ComponentHealth &c : components) {
        json::JsonValue v = json::JsonValue::object();
        v.set("name", c.name);
        v.set("status", healthStatusName(c.status));
        v.set("busy", c.busy);
        v.set("beats", c.beats);
        v.set("since_beat_ns", c.sinceBeatNs);
        if (!c.note.empty())
            v.set("note", c.note);
        arr.push(std::move(v));
    }
    doc.set("components", std::move(arr));
    return doc;
}

std::string
HealthReport::brief() const
{
    std::string out = "overall=";
    out += healthStatusName(overall());
    for (const ComponentHealth &c : components) {
        out.push_back(' ');
        out += c.name;
        out.push_back('=');
        out += healthStatusName(c.status);
        if (c.status != HealthStatus::Ok) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "(%.1fs)",
                          static_cast<double>(c.sinceBeatNs) / 1e9);
            out += buf;
        }
    }
    return out;
}

Heartbeat *
Watchdog::registerHeartbeat(std::string name, uint64_t deadlineNs)
{
    std::lock_guard<std::mutex> lock(mu_);
    heartbeats_.emplace_back();
    Heartbeat &hb = heartbeats_.back();
    hb.name_ = std::move(name);
    hb.deadlineNs_ = deadlineNs;
    hb.lastBeat_.store(hostNowNs(), std::memory_order_relaxed);
    return &hb;
}

void
Watchdog::registerProbe(Probe probe)
{
    std::lock_guard<std::mutex> lock(mu_);
    probes_.push_back(std::move(probe));
}

void
Watchdog::onStalled(StalledFn fn)
{
    std::lock_guard<std::mutex> lock(mu_);
    onStalled_ = std::move(fn);
}

HealthReport
Watchdog::check(uint64_t nowNs) const
{
    HealthReport report;
    report.checkedAtNs = nowNs;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Heartbeat &hb : heartbeats_) {
        ComponentHealth c;
        c.name = hb.name_;
        c.busy = hb.isBusy();
        c.beats = hb.beats();
        const uint64_t last = hb.lastBeatNs();
        c.sinceBeatNs = nowNs > last ? nowNs - last : 0;
        // A parked component (busy=false) is healthy regardless of
        // silence: waiting for work is not a stall.
        if (c.busy && hb.deadlineNs_ > 0) {
            if (c.sinceBeatNs > hb.deadlineNs_) {
                c.status = HealthStatus::Stalled;
                c.note = "busy with no heartbeat past deadline";
            } else if (c.sinceBeatNs > hb.deadlineNs_ / 2) {
                c.status = HealthStatus::Degraded;
                c.note = "busy heartbeat older than half the deadline";
            }
        }
        report.components.push_back(std::move(c));
    }
    for (const Probe &probe : probes_)
        report.components.push_back(probe(nowNs));
    return report;
}

HealthReport
Watchdog::react(uint64_t nowNs)
{
    HealthReport report = check(nowNs);
    const HealthStatus now = report.overall();
    const HealthStatus last = last_.exchange(now, std::memory_order_acq_rel);
    if (now == last)
        return report;
    XPG_EVENT(Warn, "watchdog", "health_transition",
              static_cast<uint64_t>(last), static_cast<uint64_t>(now));
    if (now == HealthStatus::Stalled) {
        StalledFn fn;
        {
            std::lock_guard<std::mutex> lock(mu_);
            fn = onStalled_;
        }
        if (fn)
            fn(report);
    }
    return report;
}

} // namespace xpg::telemetry
