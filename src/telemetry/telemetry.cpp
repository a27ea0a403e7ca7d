#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <tuple>

namespace xpg::telemetry {

Telemetry &
Telemetry::instance()
{
    static Telemetry telemetry;
    return telemetry;
}

ShardedHistogram &
Telemetry::histogram(std::string_view name, const Labels &labels)
{
    // Reuse the metrics key format: name + labels uniquely identify a
    // histogram exactly like a counter.
    std::string key;
    key.reserve(name.size() + 32);
    key.append(name);
    key.push_back('\0');
    if (labels.store != nullptr)
        key.append(labels.store);
    key.push_back('\0');
    key.append(std::to_string(labels.node));
    key.push_back('\0');
    key.append(std::to_string(labels.session));
    key.push_back('\0');
    if (labels.phase != nullptr)
        key.append(labels.phase);

    std::lock_guard<std::mutex> lock(histoMu_);
    auto it = histoIndex_.find(key);
    if (it != histoIndex_.end())
        return it->second->histogram;
    histograms_.emplace_back();
    HistogramEntry &e = histograms_.back();
    e.info.name.assign(name);
    e.info.kind = MetricKind::Counter; // unused for histograms
    e.info.store = labels.store != nullptr ? labels.store : "";
    e.info.node = labels.node;
    e.info.session = labels.session;
    e.info.phase = labels.phase != nullptr ? labels.phase : "";
    histoIndex_.emplace(std::move(key), &e);
    return e.histogram;
}

Histogram
Telemetry::mergedHistogram(std::string_view name) const
{
    Histogram out;
    std::lock_guard<std::mutex> lock(histoMu_);
    for (const HistogramEntry &e : histograms_)
        if (e.info.name == name)
            out.merge(e.histogram.snapshot());
    return out;
}

std::vector<std::string>
Telemetry::histogramNames() const
{
    std::vector<std::string> names;
    std::lock_guard<std::mutex> lock(histoMu_);
    for (const HistogramEntry &e : histograms_)
        if (std::find(names.begin(), names.end(), e.info.name) ==
            names.end())
            names.push_back(e.info.name);
    return names;
}

json::JsonValue
Telemetry::snapshotValue() const
{
    json::JsonValue doc = json::JsonValue::object();
    doc.set("schema", "xpgraph-telemetry-v1");
    doc.set("enabled", kEnabled);
    doc.set("metrics", metrics_.toJson());

    json::JsonValue histos = json::JsonValue::array();
    {
        std::lock_guard<std::mutex> lock(histoMu_);
        // Same deterministic order as MetricsRegistry::toJson():
        // registration order varies with session thread timing.
        std::vector<const HistogramEntry *> sorted;
        sorted.reserve(histograms_.size());
        for (const HistogramEntry &e : histograms_)
            sorted.push_back(&e);
        std::sort(sorted.begin(), sorted.end(),
                  [](const HistogramEntry *a, const HistogramEntry *b) {
                      return std::tie(a->info.name, a->info.store,
                                      a->info.node, a->info.session,
                                      a->info.phase) <
                             std::tie(b->info.name, b->info.store,
                                      b->info.node, b->info.session,
                                      b->info.phase);
                  });
        for (const HistogramEntry *ep : sorted) {
            const HistogramEntry &e = *ep;
            json::JsonValue h = json::JsonValue::object();
            h.set("name", e.info.name);
            json::JsonValue labels = json::JsonValue::object();
            if (!e.info.store.empty())
                labels.set("store", e.info.store);
            if (e.info.node >= 0)
                labels.set("node", e.info.node);
            if (e.info.session >= 0)
                labels.set("session", e.info.session);
            if (!e.info.phase.empty())
                labels.set("phase", e.info.phase);
            if (labels.size() != 0)
                h.set("labels", std::move(labels));
            const Histogram snap = e.histogram.snapshot();
            h.set("count", snap.count);
            h.set("sum", snap.sum);
            h.set("mean", snap.mean());
            h.set("p50", snap.quantile(0.50));
            h.set("p95", snap.quantile(0.95));
            h.set("p99", snap.quantile(0.99));
            h.set("max", snap.maxValue);
            histos.push(std::move(h));
        }
    }
    doc.set("histograms", std::move(histos));
    doc.set("trace_events_emitted", trace_.emitted());
    return doc;
}

void
Telemetry::reset()
{
    metrics_.resetValues();
    {
        std::lock_guard<std::mutex> lock(histoMu_);
        for (HistogramEntry &e : histograms_)
            e.histogram.resetValues();
    }
    trace_.clear();
}

} // namespace xpg::telemetry
