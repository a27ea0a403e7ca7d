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
    perNode_.resize(store_ ? std::max(1u, store_->numNodes()) : 1);
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

void
QueryDriver::noteRound(uint64_t round_ns, uint64_t active_vertices,
                       uint64_t host_start_ns)
{
    telRoundHist_->record(round_ns);
    XPG_TRACE_EMIT("query_round", "query", host_start_ns,
                   telemetry::hostNowNs() - host_start_ns, round_ns);

    RoundStats &rs = rounds_.emplace_back();
    rs.round = static_cast<uint32_t>(rounds_.size());
    rs.activeVertices = active_vertices;
    rs.simNs = round_ns;

    QueryProbe now;
    if (!probeActive_ || !store_->sampleQueryProbe(now))
        return; // not probed: the fields below stay unmeasured
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
}

bool
QueryDriver::bindingActive() const
{
    switch (binding_) {
      case QueryBinding::Auto:
        return store_ && store_->queryBindingEnabled();
      case QueryBinding::None:
        return false;
      case QueryBinding::PerRound:
      case QueryBinding::PerVertex:
        return true;
    }
    return false;
}

bool
QueryDriver::balancedActive() const
{
    switch (schedule_) {
      case SchedulePolicy::Strided:
        return false;
      case SchedulePolicy::Balanced:
        return true;
      case SchedulePolicy::Auto:
        // Balancing needs per-vertex weights; without a degree cache the
        // gather would cost a full adjacency sweep and defeat the point.
        return view_.hasFastDegrees();
    }
    return false;
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
QueryDriver::buildPlan(std::span<const vid_t> vertices, Plan &plan)
{
    const unsigned workers = executor_.numWorkers();
    plan.bound = bindingActive();
    const unsigned nodes =
        plan.bound ? std::max(1u, static_cast<unsigned>(perNode_.size()))
                   : 1;
    plan.lists.assign(nodes, {});
    plan.bounds.assign(nodes, {});
    uint64_t build_ns = 0;

    {
        // Classify/copy: one DRAM stream over the list (same charge as
        // the strided bound path's classification).
        SimScope classify_scope;
        chargeDramSequential(vertices.size() * sizeof(vid_t) * 2);
        if (nodes == 1) {
            plan.lists[0].assign(vertices.begin(), vertices.end());
        } else {
            for (vid_t v : vertices)
                plan.lists[static_cast<unsigned>(nodeOfOut(v)) %
                           nodes]
                    .push_back(v);
        }
        for (auto &list : plan.lists)
            if (!std::is_sorted(list.begin(), list.end()))
                std::sort(list.begin(), list.end());
        build_ns += classify_scope.elapsed();
    }

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

    // Boundary scan: one serial streaming pass over the weights.
    SimScope scan_scope;
    chargeDramSequential(vertices.size() * sizeof(uint64_t));

    // Bound: one chunk per virtual slot, so every node gets at least one
    // even when there are fewer workers than nodes (workers then sweep
    // several nodes).
    const VirtualSlots slots{workers, nodes};
    for (unsigned node = 0; node < nodes; ++node) {
        const unsigned parts = plan.bound ? slots.onNode(node) : workers;
        plan.bounds[node] = chunkBoundaries(
            weights[node], plan.lists[node].size(), parts);
    }
    build_ns += scan_scope.elapsed();
    plan.built = true;
    return build_ns;
}

uint64_t
QueryDriver::runPlan(const Plan &plan,
                     const std::function<void(vid_t, unsigned)> &fn)
{
    const unsigned workers = executor_.numWorkers();
    const unsigned nodes = static_cast<unsigned>(plan.lists.size());
    const ParallelResult result = executor_.run([&](unsigned w) {
        // Worker-thread tag: everything a query round touches on the
        // devices lands under QueryRead, whatever path the kernel uses.
        XPG_ATTR_SCOPE(attrScope, QueryRead);
        if (!plan.bound) {
            const auto &list = plan.lists[0];
            const auto &b = plan.bounds[0];
            if (w + 1 < b.size())
                for (uint64_t i = b[w]; i < b[w + 1]; ++i)
                    fn(list[i], w);
            return;
        }
        VirtualSlots{workers, nodes}.forEach(
            w, workers, [&](const VirtualSlots::Slot &slot) {
                NumaBinding::bindThread(static_cast<int>(slot.node), true);
                const auto &list = plan.lists[slot.node];
                const auto &b = plan.bounds[slot.node];
                if (slot.local + 1 < b.size())
                    for (uint64_t i = b[slot.local]; i < b[slot.local + 1];
                         ++i)
                        fn(list[i], w);
            });
    });
    return result.maxNanos();
}

uint64_t
QueryDriver::forEach(std::span<const vid_t> vertices,
                     const std::function<void(vid_t, unsigned)> &fn)
{
    const unsigned workers = executor_.numWorkers();
    const uint64_t host_start_ns = telemetry::hostNowNs();
    uint64_t round_ns = 0;

    if (binding_ == QueryBinding::PerVertex) {
        // Anti-pattern: rebind to the data's node before every vertex.
        // Contiguous chunks, so consecutive vertices genuinely alternate
        // owners and every vertex triggers a migration (S III-D).
        const uint64_t per = (vertices.size() + workers - 1) /
                             std::max(1u, workers);
        const ParallelResult result = executor_.run([&](unsigned w) {
            XPG_ATTR_SCOPE(attrScope, QueryRead);
            const uint64_t begin =
                std::min<uint64_t>(vertices.size(),
                                   static_cast<uint64_t>(w) * per);
            const uint64_t end =
                std::min<uint64_t>(vertices.size(), begin + per);
            for (uint64_t i = begin; i < end; ++i) {
                NumaBinding::bindThread(nodeOfOut(vertices[i]),
                                        /*charge_migration=*/true);
                fn(vertices[i], w);
            }
        });
        round_ns = result.maxNanos();
    } else if (balancedActive() &&
               vertices.size() >= uint64_t{workers} * 4) {
        // Degree-balanced contiguous chunks; the schedule build is part
        // of the round's cost. Tiny rounds (BFS frontier ramp-up) fall
        // through to the strided paths — a weight pass would cost more
        // than the imbalance it removes.
        round_ns += buildPlan(vertices, tmpPlan_);
        round_ns += runPlan(tmpPlan_, fn);
    } else if (!bindingActive()) {
        // Unbound: threads float; devices charge the average remote
        // penalty. Work is dealt round-robin (strided) so the low-id
        // hubs of power-law graphs spread across workers instead of
        // landing on the first chunk.
        const ParallelResult result = executor_.run([&](unsigned w) {
            XPG_ATTR_SCOPE(attrScope, QueryRead);
            for (uint64_t i = w; i < vertices.size(); i += workers)
                fn(vertices[i], w);
        });
        round_ns = result.maxNanos();
    } else {
        // Classify by owning node (one DRAM stream over the list), then
        // bind each worker to its node for the whole round.
        SimScope classify_scope;
        const unsigned nodes =
            std::max(1u, static_cast<unsigned>(perNode_.size()));
        for (auto &list : perNode_)
            list.clear();
        for (vid_t v : vertices)
            perNode_[static_cast<unsigned>(nodeOfOut(v)) % nodes]
                .push_back(v);
        chargeDramSequential(vertices.size() * sizeof(vid_t) * 2);
        round_ns += classify_scope.elapsed();

        // Virtual slots cover every node even when workers < nodes (a
        // worker then serves several nodes in turn); with workers >=
        // nodes this degenerates to the one-slot-per-worker layout.
        const ParallelResult result = executor_.run([&](unsigned w) {
            XPG_ATTR_SCOPE(attrScope, QueryRead);
            VirtualSlots{workers, nodes}.forEach(
                w, workers, [&](const VirtualSlots::Slot &slot) {
                    NumaBinding::bindThread(static_cast<int>(slot.node),
                                            true);
                    const auto &list = perNode_[slot.node];
                    for (uint64_t i = slot.local; i < list.size();
                         i += slot.slots)
                        fn(list[i], w);
                });
        });
        round_ns += result.maxNanos();
    }

    totalNs_ += round_ns;
    noteRound(round_ns, vertices.size(), host_start_ns);
    return round_ns;
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
    if (binding_ != QueryBinding::PerVertex && balancedActive()) {
        const uint64_t host_start_ns = telemetry::hostNowNs();
        uint64_t round_ns = 0;
        if (!allPlan_.built)
            round_ns += buildPlan(allVertices_, allPlan_);
        round_ns += runPlan(allPlan_, fn);
        totalNs_ += round_ns;
        noteRound(round_ns, allVertices_.size(), host_start_ns);
        return round_ns;
    }
    return forEach(allVertices_, fn);
}

} // namespace xpg
