#include "analytics/query_driver.hpp"

#include <algorithm>

#include "graph/graph_store.hpp"
#include "pmem/cost_model.hpp"
#include "pmem/dram_device.hpp"
#include "pmem/numa_topology.hpp"
#include "pmem/xpline.hpp"
#include "telemetry/attribution.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

json::JsonValue
RoundStats::toJson() const
{
    json::JsonValue v = json::JsonValue::object();
    v.set("round", round);
    v.set("active_vertices", activeVertices);
    v.set("sim_ns", simNs);
    if (!probed)
        return v;
    v.set("edges_scanned", edgesScanned);
    v.set("sealed_records", sealedRecords);
    v.set("buffer_records", bufferRecords);
    v.set("log_window_records", logWindowRecords);
    v.set("decoded_bytes", decodedBytes);
    v.set("media_read_ops", mediaReadOps);
    v.set("media_read_bytes", mediaReadBytes);
    json::JsonValue per_dev = json::JsonValue::array();
    for (uint64_t ops : mediaReadOpsPerDevice)
        per_dev.push(ops);
    v.set("media_read_ops_per_device", std::move(per_dev));
    v.set("push_cost_ns", pushCostNs);
    v.set("pull_cost_ns", pullCostNs);
    v.set("direction_switch_gain", directionSwitchGain);
    return v;
}

QueryDriver::QueryDriver(const GraphView &view, unsigned num_threads,
                         QueryBinding binding, SchedulePolicy schedule)
    : view_(view), store_(view.backingStore()), binding_(binding),
      schedule_(schedule), executor_(num_threads)
{
    if (store_)
        store_->declareQueryThreads(num_threads);
    telRoundHist_ = XPG_TEL_HISTOGRAM(
        "query.round_ns", (telemetry::Labels{.phase = "round"}));
    // Round-stat baseline: sample the store's cumulative query-path
    // counters NOW so round 1's delta starts at driver construction —
    // continuous coverage is what makes the per-round deltas sum to
    // the bracketing OpScope's deltas exactly.
    probeActive_ = store_ && store_->sampleQueryProbe(probeLast_);
}

int
QueryDriver::nodeOfOut(vid_t v) const
{
    return store_ ? store_->nodeOfOut(v) : 0;
}

uint64_t
QueryDriver::noteRound(uint64_t round_ns, uint64_t active_vertices,
                       uint64_t host_start_ns)
{
    totalNs_ += round_ns;
    telRoundHist_->record(round_ns);
    XPG_TRACE_EMIT("query_round", "query", host_start_ns,
                   telemetry::hostNowNs() - host_start_ns, round_ns);

    RoundStats &rs = rounds_.emplace_back();
    rs.round = static_cast<uint32_t>(rounds_.size());
    rs.activeVertices = active_vertices;
    rs.simNs = round_ns;

    QueryProbe now;
    if (!probeActive_ || !store_->sampleQueryProbe(now))
        return round_ns; // not probed: the fields below stay unmeasured
    rs.probed = true;
    rs.sealedRecords = now.sealedRecords - probeLast_.sealedRecords;
    rs.bufferRecords = now.bufferRecords - probeLast_.bufferRecords;
    rs.logWindowRecords = now.logWindowRecords - probeLast_.logWindowRecords;
    rs.edgesScanned =
        rs.sealedRecords + rs.bufferRecords + rs.logWindowRecords;
    rs.decodedBytes = now.decodedBytes - probeLast_.decodedBytes;
    rs.mediaReadOps = now.mediaReadOps - probeLast_.mediaReadOps;
    rs.mediaReadBytes = now.mediaReadBytes - probeLast_.mediaReadBytes;
    rs.mediaReadOpsPerDevice.resize(now.mediaReadOpsPerDevice.size(), 0);
    for (size_t d = 0; d < now.mediaReadOpsPerDevice.size(); ++d) {
        const uint64_t prev = d < probeLast_.mediaReadOpsPerDevice.size()
                                  ? probeLast_.mediaReadOpsPerDevice[d]
                                  : 0;
        rs.mediaReadOpsPerDevice[d] = now.mediaReadOpsPerDevice[d] - prev;
    }

    // Direction-switch opportunity (ALPHA-PIM / Ligra-style signal):
    // model this round as frontier-directed push (touch the active
    // vertices, random-read their adjacency — one media read per
    // record in the worst case) vs. a pull sweep (touch every vertex,
    // stream the whole stored edge set — a full XPLine per
    // records-per-line records). Absolute values are cost-model
    // estimates; only the sign/ratio is meant to be consumed.
    const CostParams &p = globalCostParams();
    const double per_vertex = static_cast<double>(p.dramRandomLineNs);
    const double random_rec = static_cast<double>(p.pmemMediaReadNs);
    const double recs_per_line =
        static_cast<double>(kXPLineSize / sizeof(vid_t));
    const double seq_rec = static_cast<double>(p.pmemMediaReadNs) /
                           recs_per_line;
    rs.pushCostNs = static_cast<double>(active_vertices) * per_vertex +
                    static_cast<double>(rs.edgesScanned) * random_rec;
    rs.pullCostNs =
        static_cast<double>(view_.numVertices()) * per_vertex +
        static_cast<double>(now.storedEdges) * seq_rec;
    if (rs.pushCostNs > 0.0)
        rs.directionSwitchGain =
            (rs.pushCostNs - rs.pullCostNs) / rs.pushCostNs;
    probeLast_ = std::move(now);
    return round_ns;
}

bool
QueryDriver::balancedActive() const
{
    // A per-vertex round deals its input as given. Balancing needs
    // per-vertex weights; without a degree cache the gather would cost
    // a full adjacency sweep and defeat the point.
    return binding_ != QueryBinding::PerVertex &&
           schedule_ == SchedulePolicy::Auto && view_.hasFastDegrees();
}

std::vector<uint64_t>
QueryDriver::chunkBoundaries(std::span<const uint64_t> weight,
                             uint64_t list_size, unsigned parts) const
{
    std::vector<uint64_t> bounds(parts + 1, list_size);
    bounds[0] = 0;
    if (parts <= 1 || list_size == 0)
        return bounds;

    // Cut at equal cumulative-weight targets. Chunks stay contiguous in
    // id order so adjacent vertices' adjacencies — packed into shared
    // XPLines by the stores — are read by the same worker.
    uint64_t total = 0;
    for (uint64_t w : weight)
        total += w;
    uint64_t cum = 0;
    uint64_t idx = 0;
    for (unsigned k = 1; k < parts; ++k) {
        const uint64_t target = total * k / parts;
        while (idx < list_size && cum < target)
            cum += weight[idx++];
        bounds[k] = idx;
    }
    return bounds;
}

uint64_t
QueryDriver::buildPlan(std::span<const vid_t> vertices, bool balanced,
                       Plan &plan)
{
    const unsigned workers = executor_.numWorkers();
    plan.built = true;
    plan.perVertex = binding_ == QueryBinding::PerVertex;
    plan.bound = binding_ == QueryBinding::Auto && store_ &&
                 store_->queryBindingEnabled();
    const unsigned nodes = plan.bound ? std::max(1u, store_->numNodes()) : 1;
    plan.lists.resize(nodes);
    for (auto &list : plan.lists)
        list.clear();
    plan.bounds.clear();

    // Grouping by owning node (a bound round) or balancing streams the
    // list through DRAM once; an unbound strided or per-vertex round
    // deals its input as given, for free.
    uint64_t build_ns = 0;
    if (plan.bound || balanced) {
        SimScope classify_scope;
        chargeDramSequential(vertices.size() * sizeof(vid_t) * 2);
        build_ns += classify_scope.elapsed();
    }
    if (nodes == 1) {
        plan.lists[0].assign(vertices.begin(), vertices.end());
    } else {
        for (vid_t v : vertices)
            plan.lists[static_cast<unsigned>(nodeOfOut(v)) % nodes]
                .push_back(v);
    }
    if (!balanced) {
        // Strided: each list keeps its input order. Per-vertex (the
        // S III-D anti-pattern): equal-count contiguous chunks, so
        // consecutive vertices genuinely alternate owners and every
        // vertex triggers a migration.
        if (plan.perVertex) {
            const uint64_t per = (vertices.size() + workers - 1) / workers;
            auto &b = plan.bounds.emplace_back(workers + 1);
            for (unsigned k = 0; k <= workers; ++k)
                b[k] = std::min<uint64_t>(vertices.size(), k * per);
        }
        return build_ns;
    }

    for (auto &list : plan.lists)
        if (!std::is_sorted(list.begin(), list.end()))
            std::sort(list.begin(), list.end());

    // Weight gather, parallel across the query workers (vertexWeight
    // self-charges its metadata touch on the gathering thread).
    std::vector<std::vector<uint64_t>> weights(nodes);
    for (unsigned node = 0; node < nodes; ++node)
        weights[node].resize(plan.lists[node].size());
    const ParallelResult gather = executor_.run([&](unsigned w) {
        XPG_ATTR_SCOPE(attrScope, QueryRead);
        for (unsigned node = 0; node < nodes; ++node) {
            const auto &list = plan.lists[node];
            auto &wt = weights[node];
            for (uint64_t i = w; i < list.size(); i += workers)
                wt[i] = view_.vertexWeight(list[i]);
        }
    });
    build_ns += gather.maxNanos();

    // Boundary scan: one serial streaming pass over the weights. One
    // chunk per virtual slot, so every node gets at least one even
    // when there are fewer workers than nodes (workers then sweep
    // several nodes).
    SimScope scan_scope;
    chargeDramSequential(vertices.size() * sizeof(uint64_t));
    const VirtualSlots slots{workers, nodes};
    for (unsigned node = 0; node < nodes; ++node)
        plan.bounds.push_back(chunkBoundaries(
            weights[node], plan.lists[node].size(), slots.onNode(node)));
    build_ns += scan_scope.elapsed();
    return build_ns;
}

uint64_t
QueryDriver::runPlan(const Plan &plan,
                     const std::function<void(vid_t, unsigned)> &fn)
{
    const unsigned workers = executor_.numWorkers();
    const VirtualSlots slots{workers,
                             static_cast<unsigned>(plan.lists.size())};
    const ParallelResult result = executor_.run([&](unsigned w) {
        // Worker-thread tag: everything a query round touches on the
        // devices lands under QueryRead, whatever path the kernel uses.
        XPG_ATTR_SCOPE(attrScope, QueryRead);
        // Virtual slots cover every node even when workers < nodes (a
        // worker then serves several nodes in turn); unbound, there is
        // one list and one slot per worker.
        slots.forEach(w, workers, [&](const VirtualSlots::Slot &slot) {
            if (plan.bound)
                NumaBinding::bindThread(static_cast<int>(slot.node), true);
            const auto &list = plan.lists[slot.node];
            const auto visit = [&](uint64_t i) {
                if (plan.perVertex)
                    NumaBinding::bindThread(nodeOfOut(list[i]), true);
                fn(list[i], w);
            };
            if (plan.bounds.empty()) {
                for (uint64_t i = slot.local; i < list.size();
                     i += slot.slots)
                    visit(i);
            } else {
                const auto &b = plan.bounds[slot.node];
                for (uint64_t i = b[slot.local]; i < b[slot.local + 1]; ++i)
                    visit(i);
            }
        });
    });
    return result.maxNanos();
}

uint64_t
QueryDriver::forEach(std::span<const vid_t> vertices,
                     const std::function<void(vid_t, unsigned)> &fn)
{
    const uint64_t host_start_ns = telemetry::hostNowNs();
    // Tiny rounds (BFS frontier ramp-up) deal strided: a weight pass
    // would cost more than the imbalance it removes.
    const bool balanced =
        balancedActive() && vertices.size() >= uint64_t{numThreads()} * 4;
    const uint64_t build_ns = buildPlan(vertices, balanced, tmpPlan_);
    return noteRound(build_ns + runPlan(tmpPlan_, fn), vertices.size(),
                     host_start_ns);
}

uint64_t
QueryDriver::forAllVertices(const std::function<void(vid_t, unsigned)> &fn)
{
    if (allVertices_.size() != view_.numVertices()) {
        allVertices_.resize(view_.numVertices());
        for (vid_t v = 0; v < view_.numVertices(); ++v)
            allVertices_[v] = v;
        allPlan_ = Plan{};
    }
    const uint64_t host_start_ns = telemetry::hostNowNs();
    // The whole vertex space balances at any size, and its balanced
    // plan is built once per driver; other plans are built per round.
    const bool balanced = balancedActive();
    const uint64_t build_ns = balanced && allPlan_.built
                                  ? 0
                                  : buildPlan(allVertices_, balanced,
                                              allPlan_);
    return noteRound(build_ns + runPlan(allPlan_, fn), allVertices_.size(),
                     host_start_ns);
}

} // namespace xpg
