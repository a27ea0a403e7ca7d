/**
 * @file
 * Bounded lock-free trace ring with Chrome trace_event JSON export
 * (loadable in about:tracing / Perfetto) — the process's one record
 * ring. It holds two kinds of record: complete spans ('X': a phase,
 * a compaction pass, a query round, a session append) and instants
 * ('i': the ops-plane events — backpressure entered, recovery repaired
 * damage, health changed). An instant carries a level; both kinds
 * carry a category and two event-specific arguments, a0 and a1.
 *
 * Retention: the ring keeps the newest capacity() records of either
 * kind. Readers that want one run's records remember emitted() at the
 * run's start and keep tickets at or above it.
 *
 * Writers take a monotonic ticket (one fetch_add) and claim the slot
 * ticket % capacity with a per-slot sequence CAS: seq 2*ticket+1 marks
 * the write in flight, 2*ticket+2 marks it published. Only a published
 * (even) seq is claimed — a writer whose slot an older ticket is still
 * filling yields until it is published — so two writers never store
 * into one slot. A writer that finds its slot already claimed by a
 * *newer* ticket (ring wrapped a full lap while it was stalled) drops
 * its record instead of corrupting the newer one. Readers validate
 * seq-even-and-unchanged around the payload reads, so a slot being
 * rewritten is skipped, never misreported. All payload fields are
 * relaxed atomics, which keeps the whole protocol data-race-free under
 * TSAN.
 *
 * Timestamps are host steady-clock nanoseconds since process start —
 * the only shared timebase across threads (SimClock streams are
 * per-thread) — so pipelined-archiver/client overlap shows up as real
 * overlap on the timeline. The simulated-ns duration rides along as an
 * event arg.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/json_writer.hpp"

namespace xpg::telemetry {

/// Host wall-clock nanoseconds since the first call in this process.
uint64_t hostNowNs();

/// Small dense id for the calling thread (assigned on first use).
uint32_t currentThreadId();

/// Attach a display name to the calling thread; exported as Chrome
/// "M" (metadata) events so about:tracing shows named rows.
void nameCurrentThread(const std::string &name);

/// Severity of an instant (spans are Info).
enum class EventLevel : uint8_t
{
    Info = 0,
    Warn,
    Error,
};

const char *eventLevelName(EventLevel level);

/// One consistent record read out of the ring.
struct TraceEventView
{
    uint64_t ticket = 0; ///< global emission order
    const char *name = nullptr;
    const char *cat = nullptr;
    char ph = 'X'; ///< 'X' complete span, 'i' instant
    EventLevel level = EventLevel::Info;
    uint32_t tid = 0;
    uint64_t tsNs = 0;  ///< host ns since process start
    uint64_t durNs = 0; ///< host ns (0 for instants)
    uint64_t simNs = 0; ///< simulated ns attached as an arg
    uint64_t a0 = 0;    ///< event-specific argument
    uint64_t a1 = 0;    ///< event-specific argument
    uint64_t opId = 0;  ///< innermost OpScope at emit time (0 = none)
};

/// One instant under the xpgraph-events-v1 keys: seq (the ticket),
/// level, category, name, host_ns, a0, a1, op_id.
json::JsonValue eventJson(const TraceEventView &e);

class TraceBuffer
{
  public:
    static constexpr size_t kDefaultCapacity = size_t{1} << 15;

    explicit TraceBuffer(size_t capacity = kDefaultCapacity);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /// Emit a complete ('X') span. Lock-free apart from the slot claim,
    /// which waits while an older ticket is still filling the slot.
    void emitComplete(const char *name, const char *cat, uint64_t tsNs,
                      uint64_t durNs, uint64_t simNs, uint64_t a0 = 0,
                      uint64_t a1 = 0);

    /// Emit an instant ('i') stamped now. @p name and @p cat must
    /// outlive the ring (literals).
    void emitInstant(EventLevel level, const char *name, const char *cat,
                     uint64_t a0 = 0, uint64_t a1 = 0);

    /// All consistent records currently in the ring, sorted by ticket.
    /// Safe concurrently with writers (in-flight slots are skipped).
    std::vector<TraceEventView> collect() const;

    /// Total records ever emitted (including ones the ring evicted).
    uint64_t emitted() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    size_t capacity() const { return capacity_; }

    /// Drop all records. Callers must be quiescent (no concurrent
    /// writers); used between bench rows and in tests.
    void clear();

    /// Chrome trace_event JSON: {"traceEvents":[...],"displayTimeUnit"}
    /// including thread-name metadata events.
    json::JsonValue toJson() const;

    /// The ring's instants, oldest first, one eventJson() object per
    /// line. @return false on I/O failure.
    bool writeEventsJsonl(const std::string &path) const;

  private:
    struct Slot
    {
        std::atomic<uint64_t> seq{0}; ///< 0 empty; odd in-flight; even done
        std::atomic<const char *> name{nullptr};
        std::atomic<const char *> cat{nullptr};
        std::atomic<char> ph{'X'};
        std::atomic<EventLevel> level{EventLevel::Info};
        std::atomic<uint32_t> tid{0};
        std::atomic<uint64_t> tsNs{0};
        std::atomic<uint64_t> durNs{0};
        std::atomic<uint64_t> simNs{0};
        std::atomic<uint64_t> a0{0};
        std::atomic<uint64_t> a1{0};
        std::atomic<uint64_t> opId{0};
    };

    /// Store @p rec's payload under a fresh ticket (rec's ticket, tid
    /// and opId are filled here).
    void emit(const TraceEventView &rec);

    const size_t capacity_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<uint64_t> head_{0}; ///< next ticket
};

} // namespace xpg::telemetry
