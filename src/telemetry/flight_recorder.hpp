/**
 * @file
 * Crash flight recorder: one postmortem JSON per incident, written
 * atomically at the moment things go wrong — not reconstructed later.
 *
 * Three triggers feed it:
 *  - a FaultInjector crash point tripping (the modeled power loss; the
 *    hook runs synchronously on the crashing thread, so the in-flight
 *    AccessScope category names exactly what the store was doing);
 *  - recovery finishing with repairs (the record carries the
 *    RecoveryReport);
 *  - the health watchdog reaching a Stalled verdict (the record
 *    carries the HealthReport).
 *
 * The record bundles the trace ring's newest instants (the event tail)
 * and newest spans (the trace tail), the exporter's last sample when
 * one is wired, and the trigger-specific payload. Dumps are atomic (tmp + rename), so a
 * reader never sees a torn record; successive incidents overwrite —
 * the record answers "what just happened", the JSONL series answers
 * "what happened over time".
 *
 * The recorder is process-wide (the FaultInjector is machine-wide and
 * header-only, so the hook cannot carry per-store state) and disabled
 * until configure()d: production constructors never pay for it, and an
 * un-configured dump() is a no-op returning false. Everything here is
 * lock-light and reentrant-safe with respect to the engine: dump()
 * takes only telemetry-internal locks, never engine locks, so it is
 * safe to call from inside a media-write path.
 */

#ifndef XPG_TELEMETRY_FLIGHT_RECORDER_HPP
#define XPG_TELEMETRY_FLIGHT_RECORDER_HPP

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "util/json_writer.hpp"

namespace xpg::telemetry {

class FlightRecorder
{
  public:
    static constexpr size_t kTailEvents = 64; ///< per tail, per record

    static FlightRecorder &instance();

    /** Enable: records go to @p directory / @p fileName. */
    void configure(std::string directory,
                   std::string fileName = "flight_record.json");
    void disable();
    bool enabled() const;

    /** Where the last record was written ("" before the first). */
    std::string lastPath() const;
    uint64_t dumps() const;

    /** Exporter wires itself here so records carry its last sample. */
    void setLastSampleProvider(std::function<json::JsonValue()> provider);
    void clearLastSampleProvider();

    /**
     * Write one record now. @p reason is the trigger
     * ("fault_injector_crash", "recovery_repairs", "watchdog_stalled").
     * @p extra (optional) lands under @p extraKey. @return true iff a
     * record was durably renamed into place.
     */
    bool dump(const char *reason);
    bool dump(const char *reason, const char *extraKey,
              const json::JsonValue &extra);

  private:
    FlightRecorder() = default;

    mutable std::mutex mu_;
    bool enabled_ = false;
    std::string directory_;
    std::string fileName_;
    std::string lastPath_;
    uint64_t dumps_ = 0;
    std::function<json::JsonValue()> lastSample_;
};

/**
 * The FaultInjector's crash hook: called on the thread whose media
 * write tripped the plan, before control returns to the device model.
 * No-op (beyond an atomic check) when the recorder is not configured.
 * noexcept: a diagnostics failure must never alter crash semantics.
 */
void flightRecordCrash(const char *reason) noexcept;

} // namespace xpg::telemetry

#endif // XPG_TELEMETRY_FLIGHT_RECORDER_HPP
