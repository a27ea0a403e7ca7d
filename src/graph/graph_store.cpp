#include "graph/graph_store.hpp"

#include <string>

#include "graph/circular_edge_log.hpp"
#include "pmem/numa_topology.hpp"
#include "pmem/pmem_device.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"
#include "util/sim_clock.hpp"

namespace xpg {

namespace {

void
atomicFetchMax(std::atomic<uint64_t> &target, uint64_t value)
{
    uint64_t cur = target.load(std::memory_order_relaxed);
    while (cur < value &&
           !target.compare_exchange_weak(cur, value,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

// --- IngestSession -----------------------------------------------------------

IngestSession::IngestSession(GraphStore &store, unsigned node)
    : store_(store), node_(node)
{
    XPG_ASSERT(node_ < store_.logs_.size(),
               "session bound to a node without an edge log");
    store_.openSessions_.fetch_add(1, std::memory_order_relaxed);
    id_ = static_cast<unsigned>(
        store_.sessionsOpened_.fetch_add(1, std::memory_order_relaxed) + 1);
    store_.sessionOpened(node_);
    telAppendHist_ = XPG_TEL_HISTOGRAM(
        "ingest.session_append_ns",
        (telemetry::Labels{.store = store_.storeLabel_,
                           .node = static_cast<int>(node_),
                           .session = static_cast<int>(id_)}));
}

IngestSession::~IngestSession()
{
    atomicFetchMax(store_.sessionNsMax_, loggingNs_);
    atomicFetchMax(store_.streamNsMax_, streamNs_);
    store_.openSessions_.fetch_sub(1, std::memory_order_relaxed);
    store_.sessionClosed(node_);
    // Release the pin this session put on its client thread, unless
    // another session has since rebound it.
    if (pinnedThread_ == std::this_thread::get_id() &&
        NumaBinding::currentNode() == static_cast<int>(node_))
        NumaBinding::unbindThread();
}

uint64_t
IngestSession::addEdges(const Edge *edges, uint64_t n)
{
    if (!threadNamed_) {
        telemetry::nameCurrentThread("session-" + std::to_string(id_));
        threadNamed_ = true;
    }
    // Range-check at the ingest boundary, in the offending client's
    // thread, before any record reaches a shared log (a plain CPU check,
    // no simulated cost; a delete flags only dst). The engines' archive
    // phases keep a backstop assert.
    const vid_t nv = store_.numVertices();
    for (uint64_t i = 0; i < n; ++i)
        XPG_ASSERT(edges[i].src < nv && rawVid(edges[i].dst) < nv,
                   "edge endpoint out of range");
    const uint64_t traceStart = telemetry::hostNowNs();
    // A NUMA-aware store pins the client thread to its log's node until
    // the session closes (any migration charge lands outside the
    // logging time).
    if (store_.queryBindingEnabled() &&
        NumaBinding::currentNode() != static_cast<int>(node_)) {
        NumaBinding::bindThread(static_cast<int>(node_));
        pinnedThread_ = std::this_thread::get_id();
    }
    if (store_.ingestHeartbeat_)
        store_.ingestHeartbeat_->beat();

    CircularEdgeLog &log = *store_.logs_[node_];
    uint64_t logging_ns = 0;
    uint64_t inline_ns = 0; // archive phases this client ran itself
    uint64_t done = 0;
    while (done < n) {
        uint64_t non_buffered = 0;
        for (const CircularEdgeLog *l : store_.logs_)
            non_buffered += l->nonBuffered();
        const uint64_t threshold = store_.archiveThreshold();
        uint64_t want = n - done;
        if (non_buffered >= threshold) {
            if (store_.requestArchive(inline_ns))
                continue; // archived inline: re-test the threshold
            // Someone else (a session or a background archiver) is
            // draining the logs: keep logging, that is the pipeline.
        } else {
            // Stop at the threshold so the batch that crosses it
            // triggers archiving at the same point a lone client would.
            want = std::min(want, threshold - non_buffered);
        }
        SimScope scope;
        const uint64_t take = log.append(edges + done, want);
        if (take == 0) {
            store_.waitForLogSpace(node_, inline_ns);
            continue;
        }
        logging_ns += scope.elapsed();
        done += take;
    }

    loggingNs_ += logging_ns;
    streamNs_ += logging_ns + inline_ns;
    edgesLogged_ += n;
    store_.loggingNs_.fetch_add(logging_ns, std::memory_order_relaxed);
    store_.edgesLogged_.fetch_add(n, std::memory_order_relaxed);
    telAppendHist_->record(logging_ns);
    if (n >= kTraceAppendMinEdges)
        XPG_TRACE_EMIT("session_append", "ingest", traceStart,
                       telemetry::hostNowNs() - traceStart,
                       logging_ns + inline_ns);
    return n;
}

// --- GraphStore ----------------------------------------------------------------

std::unique_ptr<IngestSession>
GraphStore::openSession(unsigned node)
{
    return std::unique_ptr<IngestSession>(new IngestSession(*this, node));
}

IngestStats
GraphStore::sessionStats() const
{
    IngestStats s;
    s.loggingNs = loggingNs_.load(std::memory_order_relaxed);
    s.loggingNsMax = sessionNsMax_.load(std::memory_order_relaxed);
    if (s.loggingNsMax == 0)
        s.loggingNsMax = s.loggingNs;
    s.clientNsMax = streamNsMax_.load(std::memory_order_relaxed);
    s.edgesLogged = edgesLogged_.load(std::memory_order_relaxed);
    s.sessionsOpened = sessionsOpened_.load(std::memory_order_relaxed);
    return s;
}

PcmCounters
GraphStore::pmemCounters() const
{
    PcmCounters total;
    for (const MemoryDevice *dev : devices_)
        total += dev->counters();
    return total;
}

telemetry::AttributionSnapshot
GraphStore::pmemAttribution() const
{
    telemetry::AttributionSnapshot total;
    for (const MemoryDevice *dev : devices_)
        total += dev->attribution();
    return total;
}

std::vector<telemetry::LineHeatTable::HotLine>
GraphStore::hotLines(unsigned n) const
{
    std::vector<telemetry::LineHeatTable::HotLine> merged;
    for (const MemoryDevice *dev : devices_) {
        const auto *pmem = dynamic_cast<const PmemDevice *>(dev);
        if (!pmem)
            continue;
        for (telemetry::LineHeatTable::HotLine h : pmem->heat().top(n)) {
            h.node = dev->node();
            merged.push_back(h);
        }
    }
    std::sort(merged.begin(), merged.end(),
              [](const telemetry::LineHeatTable::HotLine &a,
                 const telemetry::LineHeatTable::HotLine &b) {
                  const uint64_t ta = a.reads + a.writes;
                  const uint64_t tb = b.reads + b.writes;
                  if (ta != tb)
                      return ta > tb;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.node < b.node;
              });
    if (merged.size() > n)
        merged.resize(n);
    return merged;
}

std::shared_ptr<FaultInjector>
GraphStore::injectFaults(const FaultPlan &plan)
{
    auto injector = std::make_shared<FaultInjector>(plan);
    for (MemoryDevice *dev : devices_)
        dev->armFaults(injector);
    return injector;
}

void
GraphStore::powerCycle()
{
    for (MemoryDevice *dev : devices_)
        dev->powerCycle();
}

} // namespace xpg
