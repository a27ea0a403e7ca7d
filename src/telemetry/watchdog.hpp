/**
 * @file
 * Health watchdog: a heartbeat registry that turns liveness signals
 * into a typed HealthReport.
 *
 * Two kinds of component feed it:
 *
 *  - Heartbeats: long-lived loops (archiver, compactor, ingest path)
 *    register a named Heartbeat and tick it from their loop. A
 *    component that declared itself *busy* and then stopped beating is
 *    Degraded past half its deadline and Stalled past the full
 *    deadline; an *idle* component (parked on its condition variable)
 *    is healthy no matter how long it sleeps — waiting for work is not
 *    a stall.
 *
 *  - Probes: callbacks that compute a component's health from state
 *    the owner already tracks (sustained log-space backpressure, the
 *    age of the oldest open ReadView pinning an epoch). Probes run on
 *    the checking thread, so they must be cheap and lock-light.
 *
 * check(nowNs) is a pure function of the registered state — tests pass
 * explicit clocks and assert exact verdicts. react(nowNs) is the check
 * a reader runs: on a change of the overall status since the previous
 * react() it emits one health_transition instant, and on a transition
 * *into* Stalled it fires the onStalled callback (flight-record dump).
 * There is no monitor thread: whoever polls health (`xpgraph_cli
 * watch`, an embedder's probe) drives the reactions at its own period.
 *
 * The watchdog is owned per store instance (not process-wide).
 */

#ifndef XPG_TELEMETRY_WATCHDOG_HPP
#define XPG_TELEMETRY_WATCHDOG_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/json_writer.hpp"

namespace xpg::telemetry {

enum class HealthStatus : uint8_t
{
    Ok = 0,
    Degraded,
    Stalled,
};

const char *healthStatusName(HealthStatus status);

/**
 * One component's liveness cell. Stable address once registered;
 * beat()/busy() are relaxed atomics, safe to call from hot loops.
 */
class Heartbeat
{
  public:
    /** Record liveness "now" (host clock). */
    void beat();

    /** Declare the component working (true) or parked waiting for work
     *  (false). Also beats. */
    void busy(bool b);

    uint64_t beats() const
    {
        return beats_.load(std::memory_order_relaxed);
    }
    uint64_t lastBeatNs() const
    {
        return lastBeat_.load(std::memory_order_relaxed);
    }
    bool isBusy() const { return busy_.load(std::memory_order_relaxed); }
    const std::string &name() const { return name_; }
    uint64_t deadlineNs() const { return deadlineNs_; }

  private:
    friend class Watchdog;
    std::string name_;
    uint64_t deadlineNs_ = 0;
    std::atomic<uint64_t> lastBeat_{0};
    std::atomic<uint64_t> beats_{0};
    std::atomic<bool> busy_{false};
};

struct ComponentHealth
{
    std::string name;
    HealthStatus status = HealthStatus::Ok;
    bool busy = false;
    uint64_t beats = 0;
    uint64_t sinceBeatNs = 0; ///< 0 for probe-computed components
    std::string note;         ///< human-readable cause when not Ok
};

struct HealthReport
{
    uint64_t checkedAtNs = 0;
    std::vector<ComponentHealth> components;

    /** Worst component status (Ok when no components registered). */
    HealthStatus overall() const;

    /** {"schema":"xpgraph-health-v1","overall":..,"components":[..]} */
    json::JsonValue toJson() const;

    /** One line: "overall=ok archiver=ok compactor=stalled(2.1s)" —
     *  the `xpgraph_cli watch` live format. */
    std::string brief() const;
};

class Watchdog
{
  public:
    /** Probe result: name/status/note computed by the owner against
     *  the check's @p nowNs (so probes stay deterministic in tests). */
    using Probe = std::function<ComponentHealth(uint64_t nowNs)>;
    using StalledFn = std::function<void(const HealthReport &)>;

    Watchdog() = default;

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /**
     * Register a named heartbeat with a busy-stall deadline. The
     * returned pointer is stable for the watchdog's lifetime
     * (registration is construction-time wiring, not hot-path).
     */
    Heartbeat *registerHeartbeat(std::string name, uint64_t deadlineNs);

    /** Register a health probe (evaluated on every check). */
    void registerProbe(Probe probe);

    /** Callback react() fires on each transition into Stalled. */
    void onStalled(StalledFn fn);

    /**
     * Evaluate every heartbeat and probe against @p nowNs (host ns,
     * hostNowNs() timebase). Deterministic: no clocks are read here,
     * and nothing reacts.
     */
    HealthReport check(uint64_t nowNs) const;

    /**
     * check(@p nowNs), then react to a change of the overall status
     * since the previous react(): one health_transition instant (old,
     * new status), and onStalled when the new status is Stalled. The
     * last verdict is swapped atomically, so concurrent readers react
     * to each transition once.
     */
    HealthReport react(uint64_t nowNs);

  private:
    mutable std::mutex mu_; ///< guards registration lists
    std::deque<Heartbeat> heartbeats_; ///< deque: stable addresses
    std::vector<Probe> probes_;
    StalledFn onStalled_;
    std::atomic<HealthStatus> last_{HealthStatus::Ok}; ///< react()'s
};

} // namespace xpg::telemetry

#endif // XPG_TELEMETRY_WATCHDOG_HPP
