#include "telemetry/exporter.hpp"

#include <chrono>
#include <cstdio>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace xpg::telemetry {

namespace {

/** Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted
 *  names ("ingest.edges_logged") map dots to underscores under an
 *  xpg_ prefix. */
std::string
promName(const std::string &name)
{
    std::string out = "xpg_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

void
promLabels(std::string &out, const MetricInfo &info)
{
    std::vector<std::pair<std::string, std::string>> labels;
    if (!info.store.empty())
        labels.emplace_back("store", info.store);
    if (info.node >= 0)
        labels.emplace_back("node", std::to_string(info.node));
    if (info.session >= 0)
        labels.emplace_back("session", std::to_string(info.session));
    if (!info.phase.empty())
        labels.emplace_back("phase", info.phase);
    if (labels.empty())
        return;
    out.push_back('{');
    for (size_t i = 0; i < labels.size(); ++i) {
        if (i != 0)
            out.push_back(',');
        out += labels[i].first;
        out += "=\"";
        // Label values need \ and " escaped per the exposition format.
        for (const char c : labels[i].second) {
            if (c == '\\' || c == '"')
                out.push_back('\\');
            out.push_back(c);
        }
        out.push_back('"');
    }
    out.push_back('}');
}

bool
atomicWriteFile(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok)
        return false;
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

} // namespace

void
MetricsExporter::configure(ExporterOptions options)
{
    std::lock_guard<std::mutex> lock(mu_);
    options_ = std::move(options);
    samples_ = 0;
    last_ = json::JsonValue();
    if (!options_.jsonlPath.empty()) {
        // Truncate: each run owns its series.
        if (FILE *f = std::fopen(options_.jsonlPath.c_str(), "w"))
            std::fclose(f);
    }
}

json::JsonValue
MetricsExporter::buildSample()
{
    std::function<json::JsonValue()> extra;
    uint64_t seq;
    {
        std::lock_guard<std::mutex> lock(mu_);
        extra = options_.extra;
        seq = samples_;
    }
    json::JsonValue sample = json::JsonValue::object();
    sample.set("schema", "xpgraph-ops-sample-v1");
    sample.set("seq", seq);
    sample.set("host_ns", hostNowNs());
    sample.set("telemetry", Telemetry::instance().snapshotValue());
    if (extra)
        sample.set("extra", extra());
    return sample;
}

bool
MetricsExporter::writeArtifacts(const json::JsonValue &sample)
{
    std::string jsonlPath;
    std::string promPath;
    {
        std::lock_guard<std::mutex> lock(mu_);
        jsonlPath = options_.jsonlPath;
        promPath = options_.promPath;
    }
    bool ok = true;
    if (!jsonlPath.empty()) {
        FILE *f = std::fopen(jsonlPath.c_str(), "a");
        if (f == nullptr) {
            ok = false;
        } else {
            const std::string line = sample.dump(0) + "\n";
            ok = std::fwrite(line.data(), 1, line.size(), f) ==
                 line.size();
            ok = std::fclose(f) == 0 && ok;
        }
    }
    if (!promPath.empty())
        ok = atomicWriteFile(
                 promPath,
                 prometheusText(Telemetry::instance().metrics())) &&
             ok;
    return ok;
}

bool
MetricsExporter::sampleOnce()
{
    std::function<void()> prePublish;
    {
        std::lock_guard<std::mutex> lock(mu_);
        prePublish = options_.prePublish;
    }
    if (prePublish)
        prePublish();
    json::JsonValue sample = buildSample();
    const bool ok = writeArtifacts(sample);
    {
        std::lock_guard<std::mutex> lock(mu_);
        last_ = std::move(sample);
        ++samples_;
    }
    return ok;
}

void
MetricsExporter::start()
{
    uint64_t periodMs;
    {
        std::lock_guard<std::mutex> lock(mu_);
        periodMs = options_.periodMs;
    }
    if (sampler_.joinable() || periodMs == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(samplerMu_);
        stop_ = false;
    }
    XPG_EVENT(Info, "exporter", "exporter_start", periodMs, 0);
    sampler_ = std::thread([this, periodMs] { samplerLoop(periodMs); });
}

void
MetricsExporter::stop()
{
    if (!sampler_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(samplerMu_);
        stop_ = true;
    }
    samplerCv_.notify_all();
    sampler_.join();
    sampleOnce(); // final sample: short runs still get a series
    XPG_EVENT(Info, "exporter", "exporter_stop", samples(), 0);
}

void
MetricsExporter::samplerLoop(uint64_t periodMs)
{
    nameCurrentThread("exporter");
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(samplerMu_);
            samplerCv_.wait_for(lock, std::chrono::milliseconds(periodMs),
                                [this] { return stop_; });
            if (stop_)
                return;
        }
        sampleOnce();
    }
}

uint64_t
MetricsExporter::samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
}

json::JsonValue
MetricsExporter::lastSample() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return last_;
}

std::string
MetricsExporter::prometheusText(const MetricsRegistry &registry)
{
    std::string out;
    std::string lastName;
    registry.forEach([&](const MetricSeries &s) {
        if (s.info.kind != MetricKind::Gauge)
            return;
        const std::string name = promName(s.info.name);
        if (s.info.name != lastName) {
            out += "# TYPE ";
            out += name;
            out += " gauge\n";
            lastName = s.info.name;
        }
        out += name;
        promLabels(out, s.info);
        out.push_back(' ');
        char buf[24];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(s.gauge.value()));
        out += buf;
        out.push_back('\n');
    });
    return out;
}

} // namespace xpg::telemetry
