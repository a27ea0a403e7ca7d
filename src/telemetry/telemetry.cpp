#include "telemetry/telemetry.hpp"

namespace xpg::telemetry {

Telemetry &
Telemetry::instance()
{
    static Telemetry telemetry;
    return telemetry;
}

json::JsonValue
Telemetry::snapshotValue() const
{
    json::JsonValue doc = json::JsonValue::object();
    doc.set("schema", "xpgraph-telemetry-v1");
    metrics_.toJson(doc);
    doc.set("trace_events_emitted", trace_.emitted());
    return doc;
}

void
Telemetry::reset()
{
    metrics_.resetValues();
    trace_.clear();
}

} // namespace xpg::telemetry
