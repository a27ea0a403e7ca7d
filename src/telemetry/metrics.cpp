#include "telemetry/metrics.hpp"

#include <algorithm>
#include <tuple>

namespace xpg::telemetry {

namespace {

json::JsonValue
labelsJson(const MetricInfo &info)
{
    json::JsonValue labels = json::JsonValue::object();
    if (!info.store.empty())
        labels.set("store", info.store);
    if (info.node >= 0)
        labels.set("node", info.node);
    if (info.session >= 0)
        labels.set("session", info.session);
    if (!info.phase.empty())
        labels.set("phase", info.phase);
    return labels;
}

} // namespace

MetricSeries &
MetricsRegistry::findOrCreate(std::string_view name, const Labels &labels,
                              MetricKind kind)
{
    std::string key;
    key.reserve(name.size() + 32);
    key.push_back(kind == MetricKind::Gauge ? 'g' : 'h');
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

    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end())
        return *it->second;
    MetricSeries &s = series_.emplace_back();
    s.info.name.assign(name);
    s.info.kind = kind;
    s.info.store = labels.store != nullptr ? labels.store : "";
    s.info.node = labels.node;
    s.info.session = labels.session;
    s.info.phase = labels.phase != nullptr ? labels.phase : "";
    if (kind == MetricKind::Histogram)
        s.histogram = std::make_unique<ShardedHistogram>();
    index_.emplace(std::move(key), &s);
    return s;
}

Gauge &
MetricsRegistry::gauge(std::string_view name, const Labels &labels)
{
    return findOrCreate(name, labels, MetricKind::Gauge).gauge;
}

ShardedHistogram &
MetricsRegistry::histogram(std::string_view name, const Labels &labels)
{
    return *findOrCreate(name, labels, MetricKind::Histogram).histogram;
}

void
MetricsRegistry::forEach(
    const std::function<void(const MetricSeries &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const MetricSeries *> sorted;
    sorted.reserve(series_.size());
    for (const MetricSeries &s : series_)
        sorted.push_back(&s);
    std::sort(sorted.begin(), sorted.end(),
              [](const MetricSeries *a, const MetricSeries *b) {
                  return std::tie(a->info.name, a->info.store, a->info.node,
                                  a->info.session, a->info.phase) <
                         std::tie(b->info.name, b->info.store, b->info.node,
                                  b->info.session, b->info.phase);
              });
    for (const MetricSeries *s : sorted)
        fn(*s);
}

Histogram
MetricsRegistry::mergedHistogram(std::string_view name) const
{
    Histogram out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetricSeries &s : series_)
        if (s.histogram && s.info.name == name)
            out.merge(s.histogram->snapshot());
    return out;
}

std::vector<std::string>
MetricsRegistry::histogramNames() const
{
    std::vector<std::string> names;
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetricSeries &s : series_)
        if (s.histogram && std::find(names.begin(), names.end(),
                                     s.info.name) == names.end())
            names.push_back(s.info.name);
    return names;
}

void
MetricsRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (MetricSeries &s : series_) {
        s.gauge.set(0);
        if (s.histogram)
            s.histogram->resetValues();
    }
}

size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return series_.size();
}

void
MetricsRegistry::toJson(json::JsonValue &doc) const
{
    // Exporter JSONL samples and bench_diff comparisons rely on the
    // sorted order being stable across runs.
    json::JsonValue gauges = json::JsonValue::array();
    json::JsonValue histograms = json::JsonValue::array();
    forEach([&](const MetricSeries &s) {
        const bool gauge = s.info.kind == MetricKind::Gauge;
        json::JsonValue m = json::JsonValue::object();
        m.set("name", s.info.name);
        if (gauge)
            m.set("kind", "gauge");
        json::JsonValue labels = labelsJson(s.info);
        if (labels.size() != 0)
            m.set("labels", std::move(labels));
        if (gauge) {
            m.set("value", s.gauge.value());
            gauges.push(std::move(m));
            return;
        }
        const Histogram snap = s.histogram->snapshot();
        m.set("count", snap.count);
        m.set("sum", snap.sum);
        m.set("mean", snap.mean());
        m.set("p50", snap.quantile(0.50));
        m.set("p95", snap.quantile(0.95));
        m.set("p99", snap.quantile(0.99));
        m.set("max", snap.maxValue);
        histograms.push(std::move(m));
    });
    doc.set("metrics", std::move(gauges));
    doc.set("histograms", std::move(histograms));
}

} // namespace xpg::telemetry
