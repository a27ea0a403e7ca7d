#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "telemetry/op_scope.hpp"

namespace xpg::telemetry {

namespace {

std::atomic<uint32_t> g_nextThreadId{0};

thread_local uint32_t t_threadId = 0; ///< 0 = unassigned; ids start at 1

/// tid -> display name. Registration paths only; never on the event
/// hot path.
struct NameTables
{
    std::mutex mu;
    std::map<uint32_t, std::string> threadNames;
};

NameTables &
nameTables()
{
    static NameTables tables;
    return tables;
}

} // namespace

uint64_t
hostNowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             epoch)
            .count());
}

uint32_t
currentThreadId()
{
    if (t_threadId == 0)
        t_threadId = g_nextThreadId.fetch_add(1, std::memory_order_relaxed) + 1;
    return t_threadId;
}

void
nameCurrentThread(const std::string &name)
{
    NameTables &tables = nameTables();
    std::lock_guard<std::mutex> lock(tables.mu);
    tables.threadNames[currentThreadId()] = name;
}

const char *
eventLevelName(EventLevel level)
{
    switch (level) {
      case EventLevel::Info: return "info";
      case EventLevel::Warn: return "warn";
      case EventLevel::Error: return "error";
    }
    return "unknown";
}

json::JsonValue
eventJson(const TraceEventView &e)
{
    json::JsonValue v = json::JsonValue::object();
    v.set("seq", e.ticket);
    v.set("level", eventLevelName(e.level));
    v.set("category", e.cat);
    v.set("name", e.name);
    v.set("host_ns", e.tsNs);
    v.set("a0", e.a0);
    v.set("a1", e.a1);
    v.set("op_id", e.opId);
    return v;
}

TraceBuffer::TraceBuffer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<Slot[]>(capacity == 0 ? 1 : capacity))
{
}

void
TraceBuffer::emit(const TraceEventView &rec)
{
    const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = slots_[ticket % capacity_];
    const uint64_t claim = 2 * ticket + 1;

    // Claim the slot unless a newer ticket already owns it (a stalled
    // writer that lost a full ring lap drops its event instead of
    // corrupting the newer one). Only a published (even) slot is
    // claimed: while an older ticket is still storing into it, wait, so
    // no two writers ever store into one slot.
    uint64_t cur = slot.seq.load(std::memory_order_acquire);
    for (;;) {
        if (cur >= claim)
            return;
        if ((cur & 1) != 0) {
            std::this_thread::yield();
            cur = slot.seq.load(std::memory_order_acquire);
            continue;
        }
        if (slot.seq.compare_exchange_weak(cur, claim,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire))
            break;
    }

    slot.name.store(rec.name, std::memory_order_relaxed);
    slot.cat.store(rec.cat, std::memory_order_relaxed);
    slot.ph.store(rec.ph, std::memory_order_relaxed);
    slot.level.store(rec.level, std::memory_order_relaxed);
    slot.tid.store(currentThreadId(), std::memory_order_relaxed);
    slot.tsNs.store(rec.tsNs, std::memory_order_relaxed);
    slot.durNs.store(rec.durNs, std::memory_order_relaxed);
    slot.simNs.store(rec.simNs, std::memory_order_relaxed);
    slot.a0.store(rec.a0, std::memory_order_relaxed);
    slot.a1.store(rec.a1, std::memory_order_relaxed);
    slot.opId.store(OpScope::currentOpId(), std::memory_order_relaxed);

    // Publish. No other writer claims a slot while its seq is odd, so
    // the slot is still ours.
    slot.seq.store(claim + 1, std::memory_order_release);
}

void
TraceBuffer::emitComplete(const char *name, const char *cat, uint64_t tsNs,
                          uint64_t durNs, uint64_t simNs, uint64_t a0,
                          uint64_t a1)
{
    emit({.name = name, .cat = cat, .tsNs = tsNs, .durNs = durNs,
          .simNs = simNs, .a0 = a0, .a1 = a1});
}

void
TraceBuffer::emitInstant(EventLevel level, const char *name,
                         const char *cat, uint64_t a0, uint64_t a1)
{
    emit({.name = name, .cat = cat, .ph = 'i', .level = level,
          .tsNs = hostNowNs(), .a0 = a0, .a1 = a1});
}

std::vector<TraceEventView>
TraceBuffer::collect() const
{
    std::vector<TraceEventView> out;
    out.reserve(capacity_);
    for (size_t i = 0; i < capacity_; ++i) {
        const Slot &slot = slots_[i];
        const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 == 0 || (s1 & 1) != 0)
            continue; // empty or write in flight
        TraceEventView ev;
        ev.ticket = s1 / 2 - 1;
        ev.name = slot.name.load(std::memory_order_relaxed);
        ev.cat = slot.cat.load(std::memory_order_relaxed);
        ev.ph = slot.ph.load(std::memory_order_relaxed);
        ev.level = slot.level.load(std::memory_order_relaxed);
        ev.tid = slot.tid.load(std::memory_order_relaxed);
        ev.tsNs = slot.tsNs.load(std::memory_order_relaxed);
        ev.durNs = slot.durNs.load(std::memory_order_relaxed);
        ev.simNs = slot.simNs.load(std::memory_order_relaxed);
        ev.a0 = slot.a0.load(std::memory_order_relaxed);
        ev.a1 = slot.a1.load(std::memory_order_relaxed);
        ev.opId = slot.opId.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) != s1)
            continue; // torn by a concurrent writer
        if (ev.name == nullptr || ev.cat == nullptr)
            continue;
        out.push_back(ev);
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEventView &a, const TraceEventView &b) {
                  return a.ticket < b.ticket;
              });
    return out;
}

void
TraceBuffer::clear()
{
    for (size_t i = 0; i < capacity_; ++i)
        slots_[i].seq.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
}

json::JsonValue
TraceBuffer::toJson() const
{
    json::JsonValue events = json::JsonValue::array();

    {
        NameTables &tables = nameTables();
        std::lock_guard<std::mutex> lock(tables.mu);
        for (const auto &[tid, name] : tables.threadNames) {
            json::JsonValue meta = json::JsonValue::object();
            meta.set("name", "thread_name");
            meta.set("ph", "M");
            meta.set("pid", 1);
            meta.set("tid", tid);
            json::JsonValue args = json::JsonValue::object();
            args.set("name", name);
            meta.set("args", std::move(args));
            events.push(std::move(meta));
        }
    }

    for (const TraceEventView &ev : collect()) {
        json::JsonValue e = json::JsonValue::object();
        e.set("name", ev.name);
        e.set("cat", ev.cat);
        e.set("ph", std::string(1, ev.ph));
        e.set("pid", 1);
        e.set("tid", ev.tid);
        // Chrome trace timestamps are microseconds; keep sub-us detail
        // in the fraction.
        e.set("ts", static_cast<double>(ev.tsNs) / 1000.0);
        json::JsonValue args = json::JsonValue::object();
        if (ev.ph == 'X') {
            e.set("dur", static_cast<double>(ev.durNs) / 1000.0);
            args.set("sim_ns", ev.simNs);
        } else {
            e.set("s", "t"); // instant scope: thread
            args.set("level", eventLevelName(ev.level));
        }
        if (ev.ph == 'i' || ev.a0 != 0 || ev.a1 != 0) {
            args.set("a0", ev.a0);
            args.set("a1", ev.a1);
        }
        if (ev.opId != 0)
            args.set("op_id", ev.opId);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }

    json::JsonValue doc = json::JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ns");
    doc.set("otherData",
            json::JsonValue::object()
                .set("emitted", emitted())
                .set("capacity", static_cast<uint64_t>(capacity_)));
    return doc;
}

bool
TraceBuffer::writeEventsJsonl(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    bool ok = true;
    for (const TraceEventView &ev : collect()) {
        if (ev.ph != 'i')
            continue;
        const std::string line = eventJson(ev).dump(0) + "\n";
        ok = std::fwrite(line.data(), 1, line.size(), f) == line.size() &&
             ok;
    }
    return std::fclose(f) == 0 && ok;
}

} // namespace xpg::telemetry
