/**
 * @file
 * Live operations plane tests (DESIGN.md §14): the health watchdog's
 * pure check() verdicts and react()'s once-per-transition reactions
 * (explicit clocks, no sleeps for the logic itself), events as
 * instants in the trace ring (retention, the events writer), the
 * periodic metrics exporter's artifacts, the crash flight
 * recorder's record shape, and the store-level health() surface —
 * wedged compactor, log-space backpressure, view-pin aging — driven
 * against live XPGraph stores.
 *
 * The TelemetryTraceRingLive test also runs under the CI's TSAN stage
 * via the Telemetry* and Ops* filters.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/xpgraph.hpp"
#include "graph/generators.hpp"
#include "mini_json.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/watchdog.hpp"
#include "temp_dir.hpp"

namespace xpg {
namespace {

using minijson::MiniJson;
using minijson::parseOrDie;
using telemetry::ComponentHealth;
using telemetry::EventLevel;
using telemetry::FlightRecorder;
using telemetry::Heartbeat;
using telemetry::HealthReport;
using telemetry::HealthStatus;
using telemetry::MetricsExporter;
using telemetry::Telemetry;
using telemetry::TraceBuffer;
using telemetry::TraceEventView;
using telemetry::Watchdog;

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string line;
    while (std::getline(ss, line))
        if (!line.empty())
            out.push_back(line);
    return out;
}

/** Whether the process ring holds, from ticket @p first on, an instant
 *  named @p name in category @p cat. */
bool
sawInstant(uint64_t first, const char *cat, const char *name)
{
    for (const TraceEventView &ev : Telemetry::instance().trace().collect())
        if (ev.ticket >= first && ev.ph == 'i' &&
            std::string(ev.cat) == cat && std::string(ev.name) == name)
            return true;
    return false;
}

const ComponentHealth *
findComponent(const HealthReport &report, const std::string &name)
{
    for (const ComponentHealth &c : report.components)
        if (c.name == name)
            return &c;
    return nullptr;
}

XPGraphConfig
opsConfig(vid_t num_vertices, uint64_t num_edges)
{
    XPGraphConfig c = XPGraphConfig::persistent(num_vertices, 0);
    c.elogCapacityEdges = 1 << 13;
    c.bufferingThresholdEdges = 1 << 9;
    c.archiveThreads = 2;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, num_edges);
    return c;
}

// ---------------------------------------------------------------------------
// Watchdog: pure check() verdicts and react() against explicit clocks.
// ---------------------------------------------------------------------------

TEST(OpsWatchdog, EmptyWatchdogIsOk)
{
    Watchdog dog;
    const HealthReport report = dog.check(telemetry::hostNowNs());
    EXPECT_EQ(report.overall(), HealthStatus::Ok);
    EXPECT_TRUE(report.components.empty());
}

TEST(OpsWatchdog, IdleHeartbeatNeverStalls)
{
    Watchdog dog;
    Heartbeat *hb = dog.registerHeartbeat("archiver", 1'000'000);
    hb->busy(false); // parked on its condition variable
    // Silence for an hour past the 1ms deadline: waiting for work is
    // not a stall.
    const HealthReport report =
        dog.check(hb->lastBeatNs() + 3'600'000'000'000ull);
    ASSERT_EQ(report.components.size(), 1u);
    EXPECT_EQ(report.components[0].status, HealthStatus::Ok);
    EXPECT_FALSE(report.components[0].busy);
}

TEST(OpsWatchdog, BusyHeartbeatDegradesThenStalls)
{
    constexpr uint64_t kDeadline = 1'000'000'000'000ull; // 1000s
    Watchdog dog;
    Heartbeat *hb = dog.registerHeartbeat("compactor", kDeadline);
    hb->busy(true);
    const uint64_t t0 = hb->lastBeatNs();

    EXPECT_EQ(dog.check(t0).overall(), HealthStatus::Ok);
    EXPECT_EQ(dog.check(t0 + kDeadline / 2).overall(), HealthStatus::Ok);
    EXPECT_EQ(dog.check(t0 + kDeadline / 2 + 1).overall(),
              HealthStatus::Degraded);
    EXPECT_EQ(dog.check(t0 + kDeadline).overall(), HealthStatus::Degraded);
    EXPECT_EQ(dog.check(t0 + kDeadline + 1).overall(),
              HealthStatus::Stalled);

    // A beat resets the stall window...
    hb->beat();
    const uint64_t t1 = hb->lastBeatNs();
    EXPECT_EQ(dog.check(t1 + kDeadline / 2).overall(), HealthStatus::Ok);
    // ...and parking clears it entirely.
    hb->busy(false);
    EXPECT_EQ(dog.check(hb->lastBeatNs() + 4 * kDeadline).overall(),
              HealthStatus::Ok);
}

TEST(OpsWatchdog, ProbeFeedsReportAndOverallIsWorst)
{
    Watchdog dog;
    Heartbeat *hb = dog.registerHeartbeat("archiver", 1'000'000'000);
    hb->busy(false);
    dog.registerProbe([](uint64_t) {
        ComponentHealth c;
        c.name = "backpressure";
        c.status = HealthStatus::Degraded;
        c.note = "writers blocked 0.7s";
        return c;
    });
    const HealthReport report = dog.check(telemetry::hostNowNs());
    ASSERT_EQ(report.components.size(), 2u);
    EXPECT_EQ(report.overall(), HealthStatus::Degraded);
    const ComponentHealth *probe = findComponent(report, "backpressure");
    ASSERT_NE(probe, nullptr);
    EXPECT_EQ(probe->status, HealthStatus::Degraded);
    EXPECT_EQ(probe->note, "writers blocked 0.7s");
}

TEST(OpsWatchdog, ReportJsonParsesAndBriefNamesComponents)
{
    constexpr uint64_t kDeadline = 1'000'000'000'000ull;
    Watchdog dog;
    Heartbeat *hb = dog.registerHeartbeat("compactor", kDeadline);
    hb->busy(true);
    const HealthReport report =
        dog.check(hb->lastBeatNs() + kDeadline + 1);
    EXPECT_EQ(report.overall(), HealthStatus::Stalled);

    const MiniJson doc = parseOrDie(report.toJson().dump());
    EXPECT_EQ(doc.at("schema").str, "xpgraph-health-v1");
    EXPECT_EQ(doc.at("overall").str, "stalled");
    ASSERT_EQ(doc.at("components").arr.size(), 1u);
    const MiniJson &c = doc.at("components").arr[0];
    EXPECT_EQ(c.at("name").str, "compactor");
    EXPECT_EQ(c.at("status").str, "stalled");
    EXPECT_TRUE(c.has("since_beat_ns"));

    const std::string brief = report.brief();
    EXPECT_NE(brief.find("overall=stalled"), std::string::npos) << brief;
    EXPECT_NE(brief.find("compactor=stalled("), std::string::npos)
        << brief;
}

TEST(OpsWatchdog, MonitorFiresOnStalledOncePerTransition)
{
    constexpr uint64_t kDeadline = 1'000'000; // 1 ms
    Watchdog dog;
    Heartbeat *hb = dog.registerHeartbeat("wedged", kDeadline);
    int fired = 0;
    dog.onStalled([&](const HealthReport &report) {
        EXPECT_EQ(report.overall(), HealthStatus::Stalled);
        ++fired;
    });
    hb->busy(true);
    TraceBuffer &ring = Telemetry::instance().trace();
    const auto transitions = [&](uint64_t first) {
        unsigned n = 0;
        for (const TraceEventView &ev : ring.collect())
            n += ev.ticket >= first && ev.ph == 'i' &&
                 std::string(ev.cat) == "watchdog" &&
                 std::string(ev.name) == "health_transition";
        return n;
    };
    const uint64_t first = ring.emitted();

    const uint64_t t0 = hb->lastBeatNs();
    EXPECT_EQ(dog.react(t0).overall(), HealthStatus::Ok);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(transitions(first), 0u);

    // Past the deadline: one transition into Stalled, one callback.
    EXPECT_EQ(dog.react(t0 + kDeadline + 1).overall(),
              HealthStatus::Stalled);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(transitions(first), 1u);
    // check() stays pure: it neither fires nor emits.
    EXPECT_EQ(dog.check(t0 + 2 * kDeadline).overall(),
              HealthStatus::Stalled);
    // Still Stalled later: nothing reacts again.
    EXPECT_EQ(dog.react(t0 + 10 * kDeadline).overall(),
              HealthStatus::Stalled);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(transitions(first), 1u);

    // A beat recovers it: Ok again, with one more instant.
    hb->beat();
    EXPECT_EQ(dog.react(hb->lastBeatNs()).overall(), HealthStatus::Ok);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(transitions(first), 2u);
}

// ---------------------------------------------------------------------------
// Events: instants in the trace ring, its retention rule, the writer.
// ---------------------------------------------------------------------------

/** The xpgraph-events-v1 keys, exactly. */
const std::vector<std::string> kEventKeys = {
    "a0", "a1", "category", "host_ns", "level", "name", "op_id", "seq"};

std::vector<std::string>
keysOf(const MiniJson &obj)
{
    std::vector<std::string> keys;
    for (const auto &[key, value] : obj.obj)
        keys.push_back(key);
    return keys;
}

TEST(OpsEventLog, RingKeepsNewestWithStableSeqs)
{
    TraceBuffer ring(8);
    for (uint64_t i = 0; i < 20; ++i)
        ring.emitInstant(EventLevel::Info, "tick", "other", i, i * 2);
    EXPECT_EQ(ring.emitted(), 20u);
    const auto events = ring.collect();
    ASSERT_EQ(events.size(), 8u); // clamped to the ring
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].ticket, 12 + i); // oldest surviving first
        EXPECT_EQ(events[i].a0, 12 + i);     // payload rides with it
        EXPECT_EQ(events[i].a1, 2 * (12 + i));
        EXPECT_EQ(events[i].ph, 'i');
        EXPECT_STREQ(events[i].name, "tick");
    }
    EXPECT_EQ(events.back().ticket, 19u); // the newest is kept

    ring.clear();
    EXPECT_TRUE(ring.collect().empty());
}

TEST(OpsEventLog, JsonAndJsonlExportsParse)
{
    const std::string dir = makeTempDir("xpg_ops_events");
    TraceBuffer ring(16);
    ring.emitInstant(EventLevel::Warn, "log_full_enter", "backpressure", 0,
                     42);
    ring.emitComplete("compaction_pass", "compaction", /*tsNs=*/10,
                      /*durNs=*/5, /*simNs=*/3, /*a0=*/7, /*a1=*/4096);
    ring.emitInstant(EventLevel::Info, "recovery_clean", "recovery", 7,
                     4096);

    // The Chrome trace carries both kinds; the instant's level and
    // arguments ride in its args.
    const MiniJson doc = parseOrDie(ring.toJson().dump());
    EXPECT_EQ(static_cast<uint64_t>(doc.at("otherData").at("emitted").num),
              3u);
    bool found_instant = false;
    for (const MiniJson &e : doc.at("traceEvents").arr) {
        if (e.at("name").str != "log_full_enter")
            continue;
        found_instant = true;
        EXPECT_EQ(e.at("ph").str, "i");
        EXPECT_EQ(e.at("cat").str, "backpressure");
        EXPECT_EQ(e.at("args").at("level").str, "warn");
        EXPECT_EQ(static_cast<uint64_t>(e.at("args").at("a1").num), 42u);
    }
    EXPECT_TRUE(found_instant);

    // The events writer lists the instants only.
    const std::string path = dir + "/events.jsonl";
    ASSERT_TRUE(ring.writeEventsJsonl(path));
    const auto jsonl = lines(slurp(path));
    ASSERT_EQ(jsonl.size(), 2u);
    const MiniJson line0 = parseOrDie(jsonl[0]);
    EXPECT_EQ(line0.at("category").str, "backpressure");
    EXPECT_EQ(line0.at("level").str, "warn");
    const MiniJson line1 = parseOrDie(jsonl[1]);
    EXPECT_EQ(line1.at("name").str, "recovery_clean");
    EXPECT_EQ(static_cast<uint64_t>(line1.at("seq").num), 2u);
    EXPECT_EQ(static_cast<uint64_t>(line1.at("a0").num), 7u);
    EXPECT_EQ(static_cast<uint64_t>(line1.at("a1").num), 4096u);
    EXPECT_TRUE(line1.has("host_ns"));
    std::filesystem::remove_all(dir);
}

TEST(OpsEventLog, MacroFeedsProcessLogOnlyWhenEnabled)
{
    TraceBuffer &ring = Telemetry::instance().trace();
    const uint64_t before = ring.emitted();
    XPG_EVENT(Info, "other", "ops_plane_macro_probe", 11, 22);
    EXPECT_EQ(ring.emitted(), before + 1);
    const auto records = ring.collect();
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.back().ticket, before);
    EXPECT_EQ(records.back().ph, 'i');
    EXPECT_STREQ(records.back().name, "ops_plane_macro_probe");
    EXPECT_EQ(records.back().a0, 11u);
}

TEST(OpsEventLog, InstantSurvivesCapacityMinusOneLaterSpans)
{
    // The retention rule: the ring keeps the newest capacity() records
    // of either kind, so a rare event outlives capacity - 1 spans.
    constexpr size_t kCap = 64;
    TraceBuffer ring(kCap);
    ring.emitInstant(EventLevel::Warn, "recovery_repairs", "recovery", 1,
                     2);
    const auto holds_instant = [&ring] {
        for (const TraceEventView &ev : ring.collect())
            if (ev.ph == 'i')
                return true;
        return false;
    };
    for (uint64_t i = 0; i + 1 < kCap; ++i)
        ring.emitComplete("session_append", "ingest", i, 1, i);
    EXPECT_TRUE(holds_instant());
    ring.emitComplete("session_append", "ingest", kCap, 1, kCap);
    EXPECT_FALSE(holds_instant());
}

TEST(OpsEventLog, TicketsStayStrictlyIncreasingAcrossKinds)
{
    TraceBuffer ring(32);
    for (uint64_t i = 0; i < 100; ++i) {
        if (i % 3 == 0)
            ring.emitInstant(EventLevel::Info, "tick", "other", i);
        else
            ring.emitComplete("span", "test", i, 1, i, i);
    }
    const auto records = ring.collect();
    ASSERT_EQ(records.size(), ring.capacity());
    for (size_t i = 1; i < records.size(); ++i)
        EXPECT_EQ(records[i].ticket, records[i - 1].ticket + 1);
    EXPECT_EQ(records.back().ticket, 99u);
}

TEST(OpsEventLog, EventsWriterListsOnlyInstantsWithV1Keys)
{
    const std::string dir = makeTempDir("xpg_ops_events_v1");
    TraceBuffer ring(64);
    size_t instants = 0;
    for (uint64_t i = 0; i < 40; ++i) {
        if (i % 4 == 0) {
            ring.emitInstant(EventLevel::Error, "health_transition",
                             "watchdog", i, i + 1);
            ++instants;
        } else {
            ring.emitComplete("buffering_phase", "archive", i, 1, i, i);
        }
    }
    const std::string path = dir + "/events.jsonl";
    ASSERT_TRUE(ring.writeEventsJsonl(path));
    const auto jsonl = lines(slurp(path));
    ASSERT_EQ(jsonl.size(), instants);
    uint64_t prev_seq = 0;
    for (size_t i = 0; i < jsonl.size(); ++i) {
        const MiniJson ev = parseOrDie(jsonl[i]);
        EXPECT_EQ(keysOf(ev), kEventKeys) << jsonl[i];
        EXPECT_EQ(ev.at("name").str, "health_transition");
        EXPECT_EQ(ev.at("level").str, "error");
        EXPECT_EQ(ev.at("category").str, "watchdog");
        const auto seq = static_cast<uint64_t>(ev.at("seq").num);
        EXPECT_TRUE(i == 0 || seq > prev_seq);
        EXPECT_EQ(static_cast<uint64_t>(ev.at("a0").num), seq);
        prev_seq = seq;
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Exporter: deterministic sampleOnce artifacts.
// ---------------------------------------------------------------------------

TEST(OpsExporter, SampleOnceWritesParseableArtifacts)
{
    const std::string dir = makeTempDir("xpg_ops_exporter");
    const std::string jsonl = dir + "/ops.jsonl";
    const std::string prom = dir + "/metrics.prom";

    XPGraph graph(opsConfig(64, 4000));
    auto session = graph.session(0);
    const auto edges = generateUniform(64, 2000, 33);
    session->addEdges(edges.data(), edges.size());
    graph.archiveAll();

    MetricsExporter exporter;
    telemetry::ExporterOptions opt;
    opt.jsonlPath = jsonl;
    opt.promPath = prom;
    opt.prePublish = [&graph] { graph.publishTelemetry(); };
    exporter.configure(std::move(opt));

    ASSERT_TRUE(exporter.sampleOnce());
    ASSERT_TRUE(exporter.sampleOnce());
    EXPECT_EQ(exporter.samples(), 2u);
    EXPECT_TRUE(exporter.lastSample().isObject());

    const auto series = lines(slurp(jsonl));
    ASSERT_EQ(series.size(), 2u);
    for (size_t i = 0; i < series.size(); ++i) {
        const MiniJson sample = parseOrDie(series[i]);
        EXPECT_EQ(sample.at("schema").str, "xpgraph-ops-sample-v1");
        EXPECT_EQ(static_cast<uint64_t>(sample.at("seq").num), i);
        EXPECT_TRUE(sample.has("telemetry"));
    }

    const std::string text = slurp(prom);
    for (const std::string &line : lines(text)) {
        if (line[0] == '#') {
            EXPECT_EQ(line.rfind("# TYPE xpg_", 0), 0u) << line;
            continue;
        }
        // "name{labels} value" or "name value": sample lines must end
        // in a space-separated integer.
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.rfind("xpg_", 0), 0u) << line;
        EXPECT_NE(line.substr(space + 1).find_first_of("0123456789"),
                  std::string::npos)
            << line;
    }
    // publishTelemetry populated the registry, so the exposition
    // carries real series (e.g. the ingest edge counter).
    EXPECT_NE(text.find("# TYPE xpg_"), std::string::npos);
    EXPECT_NE(text.find("xpg_ingest_edges_logged_total"), std::string::npos);

    // Reconfiguring truncates the series: each run is self-contained.
    telemetry::ExporterOptions again;
    again.jsonlPath = jsonl;
    exporter.configure(std::move(again));
    EXPECT_TRUE(slurp(jsonl).empty());
    std::filesystem::remove_all(dir);
}

TEST(OpsExporter, PrometheusTextSanitizesAndSortsNames)
{
    telemetry::MetricsRegistry reg;
    reg.gauge("zeta.ops-count").set(3);
    reg.gauge("alpha.depth").set(9);
    reg.histogram("beta.latency_ns").record(5);
    const std::string text = MetricsExporter::prometheusText(reg);
    const std::string::size_type alpha = text.find("xpg_alpha_depth");
    const std::string::size_type zeta = text.find("xpg_zeta_ops_count");
    ASSERT_NE(alpha, std::string::npos) << text;
    ASSERT_NE(zeta, std::string::npos) << text;
    EXPECT_LT(alpha, zeta) << "exposition must be name-sorted";
    EXPECT_NE(text.find("# TYPE xpg_zeta_ops_count gauge"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE xpg_alpha_depth gauge"),
              std::string::npos)
        << text;
    // Histograms share the registry but not the exposition.
    EXPECT_EQ(text.find("beta"), std::string::npos) << text;
}

TEST(OpsExporter, StopTakesFinalSample)
{
    const std::string dir = makeTempDir("xpg_ops_final");
    MetricsExporter exporter;
    telemetry::ExporterOptions opt;
    opt.jsonlPath = dir + "/ops.jsonl";
    opt.periodMs = 60'000; // the thread alone would never sample
    exporter.configure(std::move(opt));
    exporter.start();
    EXPECT_TRUE(exporter.running());
    exporter.stop();
    EXPECT_FALSE(exporter.running());
    EXPECT_GE(exporter.samples(), 1u)
        << "stop() must flush a final sample so short runs have data";
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Flight recorder: record shape and lifecycle.
// ---------------------------------------------------------------------------

TEST(OpsFlightRecorder, UnconfiguredDumpIsANoop)
{
    FlightRecorder &flight = FlightRecorder::instance();
    flight.disable();
    EXPECT_FALSE(flight.enabled());
    EXPECT_FALSE(flight.dump("test_noop"));
}

TEST(OpsFlightRecorder, DumpWritesParseableRecord)
{
    const std::string dir = makeTempDir("xpg_ops_flight");
    FlightRecorder &flight = FlightRecorder::instance();
    flight.configure(dir);
    EXPECT_TRUE(flight.enabled());
    const uint64_t before = flight.dumps();

    json::JsonValue extra = json::JsonValue::object();
    extra.set("answer", uint64_t{42});
    ASSERT_TRUE(flight.dump("test_trigger", "context", extra));
    EXPECT_EQ(flight.dumps(), before + 1);
    ASSERT_FALSE(flight.lastPath().empty());

    const MiniJson rec = parseOrDie(slurp(flight.lastPath()));
    EXPECT_EQ(rec.at("schema").str, "xpgraph-flight-v1");
    EXPECT_EQ(rec.at("reason").str, "test_trigger");
    EXPECT_TRUE(rec.has("in_flight_phase"));
    EXPECT_TRUE(rec.has("event_tail"));
    EXPECT_TRUE(rec.has("trace_tail"));
    EXPECT_TRUE(rec.has("last_sample"));
    EXPECT_EQ(static_cast<uint64_t>(rec.at("context").at("answer").num),
              42u);

    // Successive incidents overwrite: one record, newest reason wins.
    const std::string first_path = flight.lastPath();
    ASSERT_TRUE(flight.dump("second_trigger"));
    EXPECT_EQ(flight.lastPath(), first_path);
    EXPECT_EQ(parseOrDie(slurp(first_path)).at("reason").str,
              "second_trigger");

    flight.disable();
    EXPECT_FALSE(flight.enabled());
    std::filesystem::remove_all(dir);
}

TEST(OpsFlightRecorder, TailsSplitInstantsFromSpans)
{
    const std::string dir = makeTempDir("xpg_ops_flight_tails");
    FlightRecorder &flight = FlightRecorder::instance();
    flight.configure(dir);
    // More spans than one tail holds, with instants between them.
    TraceBuffer &ring = Telemetry::instance().trace();
    for (uint64_t i = 0; i < 2 * FlightRecorder::kTailEvents; ++i) {
        ring.emitComplete("flight_tail_span", "test", i, 1, i);
        if (i % 8 == 0)
            ring.emitInstant(EventLevel::Info, "flight_tail_event", "test",
                             i);
    }
    ASSERT_TRUE(flight.dump("test_tails"));
    const MiniJson rec = parseOrDie(slurp(flight.lastPath()));
    flight.disable();

    const auto &events = rec.at("event_tail").arr;
    const auto &spans = rec.at("trace_tail").arr;
    ASSERT_FALSE(events.empty());
    EXPECT_LE(events.size(), FlightRecorder::kTailEvents);
    EXPECT_EQ(spans.size(), FlightRecorder::kTailEvents);
    for (const MiniJson &ev : events)
        EXPECT_EQ(keysOf(ev), kEventKeys);
    for (const MiniJson &sp : spans)
        EXPECT_EQ(sp.at("ph").str, "X");
    // Each tail ends with the newest record of its kind.
    EXPECT_EQ(events.back().at("name").str, "flight_tail_event");
    EXPECT_EQ(static_cast<uint64_t>(events.back().at("a0").num),
              2 * FlightRecorder::kTailEvents - 8);
    EXPECT_EQ(spans.back().at("name").str, "flight_tail_span");
    EXPECT_EQ(static_cast<uint64_t>(spans.back().at("sim_ns").num),
              2 * FlightRecorder::kTailEvents - 1);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Store-level health(): probes and the wedged compactor.
// ---------------------------------------------------------------------------

TEST(OpsHealth, HealthyStoreReportsOkWithProbes)
{
    XPGraphConfig c = opsConfig(64, 4000);
    c.pipelinedArchiving = true;
    c.backgroundCompaction = true;
    XPGraph graph(c);
    auto session = graph.session(0);
    const auto edges = generateUniform(64, 2000, 5);
    session->addEdges(edges.data(), edges.size());
    graph.archiveAll();

    const HealthReport report = graph.health();
    EXPECT_EQ(report.overall(), HealthStatus::Ok) << report.brief();
    for (const char *name :
         {"archiver", "compactor", "ingest", "backpressure", "view_pins"})
        EXPECT_NE(findComponent(report, name), nullptr)
            << name << " missing from: " << report.brief();
}

TEST(OpsHealth, WedgedCompactorFlaggedWithinDeadline)
{
    XPGraphConfig c = opsConfig(64, 4000);
    c.backgroundCompaction = true;
    c.debugWedgeCompactor = true;
    c.watchdogStallMs = 50;
    const uint64_t first = Telemetry::instance().trace().emitted();
    const auto t0 = std::chrono::steady_clock::now();
    XPGraph graph(c);

    const auto deadline = t0 + std::chrono::seconds(30);
    HealthReport report = graph.health();
    while (report.overall() != HealthStatus::Stalled &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        report = graph.health();
    }
    ASSERT_EQ(report.overall(), HealthStatus::Stalled)
        << "watchdog never flagged the wedged compactor: "
        << report.brief();
    const ComponentHealth *compactor =
        findComponent(report, "compactor");
    ASSERT_NE(compactor, nullptr);
    EXPECT_EQ(compactor->status, HealthStatus::Stalled);
    EXPECT_TRUE(compactor->busy);
    EXPECT_GT(compactor->sinceBeatNs, uint64_t{50} * 1'000'000);
    EXPECT_NE(report.brief().find("compactor=stalled("),
              std::string::npos)
        << report.brief();

    EXPECT_TRUE(sawInstant(first, "compaction", "compactor_wedged"))
        << "wedge must announce itself on the event stream";
    // Destructor must still stop the wedged thread cleanly (the wedged
    // pass waits for the stop); reaching TearDown proves it.
}

TEST(OpsHealth, ViewPinProbeDegradesAndRecovers)
{
    XPGraphConfig c = opsConfig(64, 4000);
    c.watchdogViewPinMs = 1;
    XPGraph graph(c);
    auto session = graph.session(0);
    const auto edges = generateUniform(64, 1000, 9);
    session->addEdges(edges.data(), edges.size());
    graph.archiveAll();

    auto view = graph.openView();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    HealthReport pinned = graph.health();
    const ComponentHealth *pins = findComponent(pinned, "view_pins");
    ASSERT_NE(pins, nullptr);
    EXPECT_EQ(pins->status, HealthStatus::Degraded)
        << "an aged view pin degrades (never stalls): "
        << pinned.brief();
    EXPECT_EQ(pinned.overall(), HealthStatus::Degraded);

    view.reset();
    const HealthReport released = graph.health();
    EXPECT_EQ(findComponent(released, "view_pins")->status,
              HealthStatus::Ok)
        << released.brief();
}

TEST(OpsHealth, BackpressureProbeFlagsBlockedWriter)
{
    XPGraphConfig c = opsConfig(96, 40000);
    c.numNodes = 1;
    c.elogCapacityEdges = 1 << 12;
    c.bufferingThresholdEdges = 1 << 8;
    c.watchdogBackpressureMs = 5;
    c.pmemBytesPerNode = recommendedBytesPerNode(c, 40000);
    XPGraph graph(c);
    auto warm = graph.session(0);
    const auto edges = generateUniform(96, 20000, 21);
    warm->addEdges(edges.data(), 1000);
    graph.archiveAll();

    // An open view pins the log's reclaim floor; a writer pushing past
    // the log capacity must block in waitForLogSpace until the view
    // closes — exactly what the backpressure probe surfaces.
    auto view = graph.openView();
    const uint64_t before_events = Telemetry::instance().trace().emitted();
    std::thread writer([&graph, &edges] {
        auto session = graph.session(0);
        for (size_t i = 1000; i < edges.size(); ++i)
            session->addEdge(edges[i].src, edges[i].dst);
    });

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    HealthStatus seen = HealthStatus::Ok;
    while (seen == HealthStatus::Ok &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const HealthReport report = graph.health();
        const ComponentHealth *bp =
            findComponent(report, "backpressure");
        ASSERT_NE(bp, nullptr);
        seen = bp->status;
    }
    EXPECT_NE(seen, HealthStatus::Ok)
        << "a writer blocked on log space never surfaced";

    view.reset(); // unpins the floor; the writer drains and finishes
    writer.join();
    const HealthReport drained = graph.health();
    EXPECT_EQ(findComponent(drained, "backpressure")->status,
              HealthStatus::Ok)
        << drained.brief();

    EXPECT_TRUE(sawInstant(before_events, "backpressure", "log_full_enter"))
        << "backpressure must announce itself on the event stream";
}

// ---------------------------------------------------------------------------
// Trace ring live: wraparound while background compaction and views
// churn underneath concurrent collectors (TSAN coverage).
// ---------------------------------------------------------------------------

TEST(TelemetryTraceRingLive, WraparoundUnderCompactionAndViews)
{
    const vid_t nv = 128;
    XPGraphConfig c = opsConfig(nv, 60000);
    c.pipelinedArchiving = true;
    c.backgroundCompaction = true;
    XPGraph graph(c);

    telemetry::TraceBuffer &trace =
        telemetry::Telemetry::instance().trace();
    const uint64_t before = trace.emitted();
    const uint64_t target = before + 2 * trace.capacity();

    std::vector<std::thread> writers;
    for (int t = 0; t < 2; ++t)
        writers.emplace_back([&graph, nv, t] {
            auto session = graph.session(0);
            const auto edges = generateUniform(nv, 20000, 100 + t);
            for (size_t i = 0; i < edges.size(); i += 64) {
                const size_t n = std::min<size_t>(64, edges.size() - i);
                session->addEdges(&edges[i], n);
                if (i % 1024 == 0)
                    session->delEdges(&edges[i], n / 2);
            }
        });
    // A filler thread forces genuine ring wraparound (the engine's own
    // span rate is workload-dependent) while the engine's archiver and
    // compactor interleave their spans.
    std::thread filler([&trace, target] {
        while (trace.emitted() < target)
            trace.emitInstant(EventLevel::Info, "ops_wrap_filler", "test");
    });

    // Main thread: churn views and read the ring concurrently. Every
    // collect() must be consistent — strictly ticket-sorted, no torn
    // slots — no matter where the writers are.
    for (int round = 0; round < 40; ++round) {
        auto view = graph.openView();
        const auto events = trace.collect();
        for (size_t i = 1; i < events.size(); ++i)
            ASSERT_LT(events[i - 1].ticket, events[i].ticket)
                << "torn collect at round " << round;
        for (const auto &ev : events) {
            ASSERT_NE(ev.name, nullptr);
            ASSERT_TRUE(ev.ph == 'X' || ev.ph == 'i');
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    for (auto &th : writers)
        th.join();
    filler.join();
    graph.archiveAll();

    EXPECT_GE(trace.emitted(), target);
    const auto final_events = trace.collect();
    EXPECT_LE(final_events.size(), trace.capacity());
    EXPECT_FALSE(final_events.empty());
    // The engine's own spans survive alongside the filler's.
    bool engine_span = false;
    for (const auto &ev : final_events)
        engine_span |=
            std::string(ev.name ? ev.name : "") != "ops_wrap_filler";
    EXPECT_TRUE(engine_span);
}

} // namespace
} // namespace xpg
