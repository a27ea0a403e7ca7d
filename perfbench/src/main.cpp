/**
 * @file
 * The repository benchmark program: one process, one client thread, with
 * archive and query workers capped at the host's core count.
 *
 *   xpg_perfbench --workload bulk_ingest|analytics|serving --seed N
 *                 --seconds S --trace 0|1 --rates-kops WORKLOAD:r1,r2,r3
 *                 --read-p99-limit-us L [--commit ID] [--trace-out PATH]
 *
 * Every workload runs the same three phases (ingest, analytics kernels,
 * serving mix) on its own input; the workload's *measured* phase is
 * repeated for --seconds and reported as the median iteration, the
 * other two run once so every end-to-end metric exists on every
 * workload. With --trace 1 iterations alternate untraced/traced: the
 * traced ones record spans around every call into a layer and give the
 * per-layer metrics; the difference of the two medians is the tracing
 * overhead. The last stdout line is one JSON object with the metric
 * values; perfbench/run.py attaches units and checks the names against
 * BENCHMARK.json.
 */

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/xpgraph.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/read_view.hpp"
#include "phases.hpp"

using namespace perfbench;
using xpg::XPGraph;
using xpg::XPGraphConfig;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string traceOut;
    std::map<std::string, std::vector<double>> ratesKops;
    double readP99LimitUs = 0.0;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "xpg_perfbench: %s\nusage: xpg_perfbench --workload "
                 "bulk_ingest|analytics|serving --seed N --seconds S "
                 "--trace 0|1 --rates-kops WORKLOAD:r1,r2,r3 ... "
                 "--read-p99-limit-us L [--commit ID] [--trace-out PATH]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = end != val.c_str() && *end == '\0';
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            o.trace = val == "1";
        } else if (key == "--commit") {
            o.commit = val;
        } else if (key == "--trace-out") {
            o.traceOut = val;
        } else if (key == "--read-p99-limit-us") {
            o.readP99LimitUs = std::strtod(val.c_str(), &end);
        } else if (key == "--rates-kops") {
            // WORKLOAD:r1,r2,... — one fixed ladder per workload, since
            // the workloads' read costs differ by an order of magnitude.
            const size_t colon = val.find(':');
            if (colon == std::string::npos)
                usage("--rates-kops wants WORKLOAD:r1,r2,...");
            std::vector<double> &rates = o.ratesKops[val.substr(0, colon)];
            rates.clear();
            for (const char *p = val.c_str() + colon + 1; *p != '\0';) {
                rates.push_back(std::strtod(p, &end));
                if (end == p || rates.back() <= 0)
                    usage("bad --rates-kops");
                p = *end == ',' ? end + 1 : end;
            }
            std::sort(rates.begin(), rates.end());
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (o.workload != "bulk_ingest" && o.workload != "analytics" &&
        o.workload != "serving")
        usage("unknown or missing --workload");
    if (!have_seed)
        usage("missing or bad --seed");
    if (!(o.seconds > 0) || o.ratesKops[o.workload].empty() ||
        !(o.readP99LimitUs > 0))
        usage("bad --seconds, or no --rates-kops for the workload or "
              "--read-p99-limit-us");
    return o;
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** A generated input stream shaped like one of the paper's datasets. */
struct Stream
{
    std::string shape; ///< dataset abbreviation (TT, UK)
    unsigned scaleShift = 0;
    vid_t numVertices = 0;
    std::vector<Edge> edges;
};

/** RMAT edges with the dataset's skew and |V|/|E| at 1/2^shift scale. */
Stream
makeStream(const char *abbrev, unsigned shift, uint64_t seed)
{
    const xpg::DatasetSpec &spec = xpg::datasetByAbbrev(abbrev);
    Stream s;
    s.shape = abbrev;
    s.scaleShift = shift;
    s.numVertices = static_cast<vid_t>(spec.paperVertices >> shift);
    const uint64_t active = std::max<uint64_t>(
        256, static_cast<uint64_t>(static_cast<double>(s.numVertices) *
                                   spec.activeFraction));
    s.edges = xpg::generateRmat(std::bit_width(active - 1),
                                spec.paperEdges >> shift, spec.rmat, seed);
    xpg::foldVertices(s.edges, s.numVertices);
    return s;
}

/** bench_common's xpgraphConfig() for a stream at its scale. */
XPGraphConfig
storeConfig(const Stream &s, uint64_t expected_edges, unsigned threads)
{
    XPGraphConfig c = XPGraphConfig::persistent(s.numVertices, 0);
    c.archiveThreads = threads;
    c.elogCapacityEdges =
        std::max<uint64_t>(1ull << 14, (1ull << 30) >> s.scaleShift);
    c.bufferingThresholdEdges =
        std::clamp<uint64_t>(s.numVertices, 1ull << 12, 1ull << 16);
    c.memoryModeCacheBytes =
        std::max<uint64_t>(1ull << 20, (128ull << 30) >> s.scaleShift) / 4;
    c.pmemBytesPerNode = xpg::recommendedBytesPerNode(c, expected_edges);
    return c;
}

/** @p n query vertices drawn uniformly among those with out-edges (the
 *  paper queries random non-zero-degree vertices). */
std::vector<vid_t>
sampleQueries(const ReferenceGraph &ref, uint64_t n, uint64_t seed)
{
    std::vector<vid_t> candidates;
    for (vid_t v = 0; v < ref.numVertices(); ++v)
        if (ref.degree(v) > 0)
            candidates.push_back(v);
    xpg::Rng rng(seed);
    std::vector<vid_t> out(n);
    for (vid_t &v : out)
        v = candidates[rng.nextBounded(candidates.size())];
    return out;
}

/** Up to @p n vertices drawn without replacement among those with
 *  [@p min_degree, 2 * @p min_degree) live out-edges: the serving mix's
 *  delete targets. Mid-degree vertices, not hubs: enough records for the
 *  compactor to rewrite, and rarely read, so tombstone folding stays off
 *  the hot read path. */
std::vector<vid_t>
sampleChurn(const ReferenceGraph &ref, uint32_t min_degree, uint64_t n,
            uint64_t seed)
{
    std::vector<vid_t> candidates;
    for (vid_t v = 0; v < ref.numVertices(); ++v)
        if (ref.degree(v) >= min_degree && ref.degree(v) < 2 * min_degree)
            candidates.push_back(v);
    xpg::Rng rng(seed);
    const uint64_t take = std::min<uint64_t>(n, candidates.size());
    for (uint64_t i = 0; i < take; ++i)
        std::swap(candidates[i],
                  candidates[i + rng.nextBounded(candidates.size() - i)]);
    candidates.resize(take);
    return candidates;
}

/** Every vertex's live out-degree in the store equals the reference's. */
void
checkDegrees(const XPGraph &g, const ReferenceGraph &ref, Checks &checks)
{
    for (vid_t v = 0; v < ref.numVertices(); ++v) {
        const uint32_t got = g.degreeOut(v);
        if (got != ref.degree(v))
            checks.expect(false, "vertex out-degree", got, ref.degree(v));
        else
            ++checks.attempted;
    }
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Span-derived per-layer metrics of one traced iteration (0 for a
 *  layer the iteration never called). */
void
addSpanMetrics(const SpanRecorder &spans, Metrics &m)
{
    static const SpanTotals kNone;
    const auto totals = [&](const char *name) -> const SpanTotals & {
        const auto it = spans.totals().find(name);
        return it == spans.totals().end() ? kNone : it->second;
    };
    const SpanTotals &add = totals(spanName::kSessionAdd);
    m["graph.session.add_host_ns_p50"] = quantile(add.durations, 0.50);
    m["graph.session.add_host_ns_p99"] = quantile(add.durations, 0.99);
    m["graph.session.add_host_ns_sum"] = add.totalNs;
    const SpanTotals &open = totals(spanName::kViewOpen);
    m["core.view.open_host_ns_p50"] = quantile(open.durations, 0.50);
    m["core.view.open_host_ns_p99"] = quantile(open.durations, 0.99);
    m["core.compaction.pass_host_ns"] = totals(spanName::kCompaction).totalNs;
    for (const char *name :
         {spanName::kIteration, spanName::kSetup, spanName::kSessionAdd,
          spanName::kArchive,
          spanName::kViewOpen, spanName::kViewRead, spanName::kCompaction,
          spanName::kBfs, spanName::kPageRank, spanName::kCc,
          spanName::kOneHop})
        m[std::string("trace.") + name + ".self_s"] =
            static_cast<double>(totals(name).selfNs) / 1e9;
}

/** What a workload run produced. */
struct RunResult
{
    double generateS = 0.0;
    std::vector<double> setupS;    ///< per set-up
    std::vector<Metrics> measured; ///< per measured iteration
    std::vector<bool> traced;      ///< per measured iteration
    Metrics once;                  ///< phases run once per run
    uint64_t edges = 0;
    vid_t vertices = 0;
    std::string shape;
    unsigned scaleShift = 0;
};

/**
 * Runs measured iterations until @p seconds of wall time have passed
 * (at least two, and two of each kind when tracing). @p iteration
 * fills the iteration's metrics; odd iterations are traced.
 */
template <typename F>
void
measureLoop(const Options &opt, SpanRecorder &spans, RunResult &r,
            F &&iteration)
{
    const unsigned min_iters = opt.trace ? 4 : 2;
    const uint64_t t0 = hostNs();
    for (uint64_t i = 0;; ++i) {
        const double elapsed = static_cast<double>(hostNs() - t0) / 1e9;
        if (i >= min_iters && elapsed >= opt.seconds)
            break;
        const bool traced = opt.trace && i % 2 == 1;
        spans.setEnabled(traced);
        spans.resetTotals();
        Metrics m;
        {
            SpanRecorder::Scope span(spans, spanName::kIteration, i);
            iteration(m);
        }
        if (traced)
            addSpanMetrics(spans, m);
        spans.setEnabled(opt.trace);
        r.measured.push_back(std::move(m));
        r.traced.push_back(traced);
    }
}

constexpr uint64_t kOneHopQueries = 1 << 18;
constexpr uint64_t kServingOps = 240'000;
constexpr uint32_t kChurnMinDegree = 64;
constexpr uint64_t kChurnVertices = 2048;

/**
 * bulk_ingest: a TT-shaped stream (social skew, 1/512 scale) into an
 * empty store through one session with inline archiving, then
 * archiveAll(). Measured: the ingest. Once: analytics on the archived
 * store, then the serving mix writing the rest of the stream.
 */
void
runBulkIngest(const Options &opt, PhaseEnv &env, RunResult &r)
{
    uint64_t t0 = hostNs();
    const Stream s = makeStream("TT", 9, mixSeed(opt.seed, 1));
    r.generateS = static_cast<double>(hostNs() - t0) / 1e9;
    ServingPlan plan;
    plan.ops = kServingOps;
    plan.seed = mixSeed(opt.seed, 3);
    const uint64_t head = s.edges.size() - servingInsertEdges(plan);
    const std::span<const Edge> ingest(s.edges.data(), head);
    const std::span<const Edge> tail(s.edges.data() + head,
                                     s.edges.size() - head);
    const XPGraphConfig cfg = storeConfig(s, s.edges.size(), env.threads);
    ReferenceGraph ref(s.numVertices, ingest);

    std::unique_ptr<XPGraph> last;
    measureLoop(opt, *env.spans, r, [&](Metrics &m) {
        last.reset();
        const uint64_t c0 = hostNs();
        std::unique_ptr<XPGraph> g;
        {
            SpanRecorder::Scope span(*env.spans, spanName::kSetup, 0);
            g = std::make_unique<XPGraph>(cfg);
        }
        r.setupS.push_back(static_cast<double>(hostNs() - c0) / 1e9);
        runIngest(*g, ingest, env, m);
        checkDegrees(*g, ref, *env.checks);
        last = std::move(g);
    });

    const std::vector<vid_t> queries =
        sampleQueries(ref, kOneHopQueries, mixSeed(opt.seed, 2));
    runAnalytics(*last, queries, expectAnalytics(ref, queries), env, r.once);
    const std::vector<vid_t> churn = sampleChurn(
        ref, kChurnMinDegree, kChurnVertices, mixSeed(opt.seed, 4));
    uint64_t next = 0;
    runServing(*last, ref, tail, next, queries, churn, plan, env, r.once);
    r.edges = s.edges.size();
    r.vertices = s.numVertices;
    r.shape = s.shape;
    r.scaleShift = s.scaleShift;
}

/**
 * analytics: set-up preloads and archives a UK-shaped stream (web skew,
 * 1/1024 scale). Measured: BFS, PageRank, CC and the one-hop set on the
 * quiesced store. Once: the preload's ingest metrics (from set-up) and
 * the serving mix writing the rest of the stream.
 */
void
runAnalyticsWorkload(const Options &opt, PhaseEnv &env, RunResult &r)
{
    uint64_t t0 = hostNs();
    const Stream s = makeStream("UK", 10, mixSeed(opt.seed, 11));
    r.generateS = static_cast<double>(hostNs() - t0) / 1e9;
    ServingPlan plan;
    plan.ops = kServingOps;
    plan.seed = mixSeed(opt.seed, 13);
    const uint64_t head = s.edges.size() - servingInsertEdges(plan);
    const std::span<const Edge> preload(s.edges.data(), head);
    const std::span<const Edge> tail(s.edges.data() + head,
                                     s.edges.size() - head);

    t0 = hostNs();
    XPGraph g(storeConfig(s, s.edges.size(), env.threads));
    runIngest(g, preload, env, r.once);
    r.setupS.push_back(static_cast<double>(hostNs() - t0) / 1e9);
    ReferenceGraph ref(s.numVertices, preload);
    checkDegrees(g, ref, *env.checks);

    const std::vector<vid_t> queries =
        sampleQueries(ref, kOneHopQueries, mixSeed(opt.seed, 12));
    const AnalyticsExpect expect = expectAnalytics(ref, queries);
    measureLoop(opt, *env.spans, r, [&](Metrics &m) {
        runAnalytics(g, queries, expect, env, m);
    });

    const std::vector<vid_t> churn = sampleChurn(
        ref, kChurnMinDegree, kChurnVertices, mixSeed(opt.seed, 14));
    uint64_t next = 0;
    Metrics serving;
    runServing(g, ref, tail, next, queries, churn, plan, env, serving);
    for (auto &[name, value] : serving)
        r.once.emplace(name, value); // the preload's ingest metrics win
    r.edges = s.edges.size();
    r.vertices = s.numVertices;
    r.shape = s.shape;
    r.scaleShift = s.scaleShift;
}

/**
 * serving: set-up preloads half of a TT-shaped stream (1/512 scale)
 * without a sync point, so the tail stays in vertex buffers and the log
 * window. Measured: the 95/5 mix on a fresh preloaded store, the same op
 * sequence every iteration. Once: analytics on a view of the last store.
 */
void
runServingWorkload(const Options &opt, PhaseEnv &env, RunResult &r)
{
    const uint64_t t0 = hostNs();
    const Stream s = makeStream("TT", 9, mixSeed(opt.seed, 21));
    r.generateS = static_cast<double>(hostNs() - t0) / 1e9;
    const uint64_t half = s.edges.size() / 2;
    const std::span<const Edge> preload(s.edges.data(), half);
    const std::span<const Edge> writes(s.edges.data() + half,
                                       s.edges.size() - half);
    ServingPlan plan;
    plan.ops = kServingOps;
    plan.seed = mixSeed(opt.seed, 22);
    if (servingInsertEdges(plan) > writes.size())
        usage("serving plan needs more insert edges than the stream has");
    const XPGraphConfig cfg = storeConfig(s, s.edges.size(), env.threads);
    const ReferenceGraph preloaded(s.numVertices, preload);
    const std::vector<vid_t> reads =
        sampleQueries(preloaded, kOneHopQueries, mixSeed(opt.seed, 23));
    const std::vector<vid_t> churn = sampleChurn(
        preloaded, kChurnMinDegree, kChurnVertices, mixSeed(opt.seed, 24));

    std::unique_ptr<XPGraph> last;
    std::optional<ReferenceGraph> last_ref;
    measureLoop(opt, *env.spans, r, [&](Metrics &m) {
        last.reset();
        const uint64_t c0 = hostNs();
        std::unique_ptr<XPGraph> g;
        {
            SpanRecorder::Scope span(*env.spans, spanName::kSetup, 0);
            g = std::make_unique<XPGraph>(cfg);
            auto session = g->session(0);
            for (uint64_t off = 0; off < preload.size(); off += 1024)
                session->addEdges(
                    preload.data() + off,
                    std::min<uint64_t>(1024, preload.size() - off));
        }
        r.setupS.push_back(static_cast<double>(hostNs() - c0) / 1e9);
        ReferenceGraph ref = preloaded;
        uint64_t next = 0;
        runServing(*g, ref, writes, next, reads, churn, plan, env, m);
        last = std::move(g);
        last_ref.emplace(std::move(ref));
    });

    auto view = last->openView();
    const std::vector<vid_t> queries =
        sampleQueries(*last_ref, kOneHopQueries, mixSeed(opt.seed, 25));
    runAnalytics(*view, queries, expectAnalytics(*last_ref, queries), env,
                 r.once);
    r.edges = s.edges.size();
    r.vertices = s.numVertices;
    r.shape = s.shape;
    r.scaleShift = s.scaleShift;
}

void
printJsonMetrics(const Metrics &m)
{
    bool first = true;
    for (const auto &[name, value] : m) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                    value);
        first = false;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads = std::min(4u, nproc);
    if (threads > nproc) {
        std::fprintf(stderr, "worker count %u exceeds nproc %u\n", threads,
                     nproc);
        return 3;
    }

    SpanRecorder spans;
    Checks checks;
    PhaseEnv env;
    env.threads = threads;
    env.spans = &spans;
    env.checks = &checks;
    env.ratesKops = opt.ratesKops.at(opt.workload);
    env.readP99LimitNs = static_cast<uint64_t>(opt.readP99LimitUs * 1e3);

    RunResult r;
    if (opt.workload == "bulk_ingest")
        runBulkIngest(opt, env, r);
    else if (opt.workload == "analytics")
        runAnalyticsWorkload(opt, env, r);
    else
        runServingWorkload(opt, env, r);

    // End-to-end: the median over untraced measured iterations of every
    // metric the measured phase produced; the once-per-run phases fill
    // in the rest.
    Metrics e2e;
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    for (size_t i = 0; i < r.measured.size(); ++i)
        (r.traced[i] ? traced_wall : untraced_wall)
            .push_back(r.measured[i].at("host_wall_s"));
    for (const auto &[name, value] : r.measured.front()) {
        std::vector<double> vals;
        for (size_t i = 0; i < r.measured.size(); ++i)
            if (!r.traced[i])
                vals.push_back(r.measured[i].at(name));
        e2e[name] = median(vals);
    }
    for (const auto &[name, value] : r.once)
        e2e.emplace(name, value);
    e2e["setup_s"] = r.generateS + median(r.setupS);
    e2e["host_wall_s"] = median(untraced_wall);

    // Per-layer: the traced iteration with the median host time, whole
    // (so its counters stay mutually consistent), then the rest.
    Metrics layers;
    if (opt.trace) {
        size_t pick = 0;
        std::vector<std::pair<double, size_t>> by_wall;
        for (size_t i = 0; i < r.measured.size(); ++i)
            if (r.traced[i])
                by_wall.emplace_back(r.measured[i].at("host_wall_s"), i);
        std::sort(by_wall.begin(), by_wall.end());
        pick = by_wall[(by_wall.size() - 1) / 2].second;
        layers = r.measured[pick];
        for (const auto &[name, value] : r.once)
            layers.emplace(name, value);
        layers["trace.overhead_s"] =
            median(traced_wall) - median(untraced_wall);
        layers["trace.spans_dropped"] =
            static_cast<double>(spans.droppedSpans());
        layers["bench.failed_op_ratio"] =
            static_cast<double>(checks.failed) /
            static_cast<double>(std::max<uint64_t>(1, checks.attempted));
    }

    std::string rates;
    for (double rate : env.ratesKops)
        rates += (rates.empty() ? "" : ", ") + std::to_string(rate);
    char run_info[1024];
    std::snprintf(
        run_info, sizeof run_info,
        "{\"workload\": \"%s\", \"seed\": %llu, \"commit\": \"%s\", "
        "\"nproc\": %u, \"archive_threads\": %u, \"query_threads\": %u, "
        "\"client_threads\": 1, \"shape\": \"%s\", \"scale\": \"1/%llu\", "
        "\"vertices\": %llu, \"edges\": %llu, \"iterations\": %zu, "
        "\"seconds\": %g, \"trace\": %d, \"rates_kops\": [%s], "
        "\"read_p99_limit_us\": %g}",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.commit.c_str(), nproc, threads, threads, r.shape.c_str(),
        1ull << r.scaleShift, static_cast<unsigned long long>(r.vertices),
        static_cast<unsigned long long>(r.edges), r.measured.size(),
        opt.seconds, opt.trace ? 1 : 0, rates.c_str(), opt.readP99LimitUs);
    std::printf("run_info %s\n", run_info);
    std::printf("checks: %llu attempted, %llu failed (failed_op_ratio "
                "%.3g)\n",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                static_cast<double>(checks.failed) /
                    static_cast<double>(std::max<uint64_t>(1,
                                                           checks.attempted)));

    if (opt.trace && !opt.traceOut.empty() &&
        !spans.writeJson(opt.traceOut, run_info))
        std::fprintf(stderr, "cannot write %s\n", opt.traceOut.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    printJsonMetrics(opt.trace ? layers : e2e);
    std::printf("}}\n");
    return 0;
}
