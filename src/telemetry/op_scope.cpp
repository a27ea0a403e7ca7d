#include "telemetry/op_scope.hpp"

#include "telemetry/telemetry.hpp"

namespace xpg::telemetry {

std::atomic<uint64_t> OpScope::nextOpId_{1};
thread_local uint64_t OpScope::tlsCurrent_ = 0;

namespace {

/** Per-class roll-up cells behind OpScope::classTotals(). */
struct ClassCell
{
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> mediaReadBytes{0};
    std::atomic<uint64_t> mediaWriteBytes{0};
    std::atomic<uint64_t> simNs{0};
};

ClassCell g_classCells[kOpClassCount];

} // namespace

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::Query: return "query";
      case OpClass::Archive: return "archive";
      case OpClass::Compaction: return "compaction";
      case OpClass::Recovery: return "recovery";
      case OpClass::Ingest: return "ingest";
      case OpClass::Other: return "other";
    }
    return "unknown";
}

json::JsonValue
OpCost::toJson() const
{
    json::JsonValue v = json::JsonValue::object();
    v.set("op_id", opId);
    v.set("name", name);
    v.set("class", opClassName(cls));
    v.set("host_ns", hostNs);
    v.set("sim_ns", simNs);
    v.set("decoded_bytes", decodedBytes);
    v.set("decode_calls", decodeCalls);
    v.set("pcm", pcm.toJson());
    v.set("attribution", attribution.toJson());
    return v;
}

OpScope::OpScope(const OpCostSource *source, const char *name, OpClass cls,
                 std::atomic<uint64_t> *stat,
                 ShardedHistogram *hist) noexcept
    : source_(source), stat_(stat), hist_(hist)
{
    cost_.name = name;
    cost_.cls = cls;
    cost_.opId = nextOpId_.fetch_add(1, std::memory_order_relaxed);
    prevOpId_ = tlsCurrent_;
    tlsCurrent_ = cost_.opId;
    if (source_ != nullptr) {
        pcm0_ = source_->opPcmCounters();
        attr0_ = source_->opAttribution();
        decode0_ = source_->opDecodeStats();
    }
    host0_ = hostNowNs();
}

OpScope::~OpScope() { close(); }

const OpCost &
OpScope::close() noexcept
{
    if (closed_)
        return cost_;
    closed_ = true;
    if (stat_ != nullptr)
        stat_->fetch_add(cost_.simNs, std::memory_order_relaxed);
    cost_.hostNs = hostNowNs() - host0_;
    if (source_ != nullptr) {
        cost_.pcm = source_->opPcmCounters() - pcm0_;
        cost_.attribution = source_->opAttribution() - attr0_;
        const OpDecodeStats now = source_->opDecodeStats();
        cost_.decodedBytes = now.decodedBytes - decode0_.decodedBytes;
        cost_.decodeCalls = now.decodeCalls - decode0_.decodeCalls;
    }
    if (hist_ != nullptr)
        hist_->record(cost_.simNs);
    // Emit before restoring the previous id so the span carries ours.
    Telemetry::instance().trace().emitComplete(
        cost_.name, opClassName(cost_.cls), host0_, cost_.hostNs,
        cost_.simNs, a0_, a1_);
    tlsCurrent_ = prevOpId_;
    ClassCell &cell = g_classCells[static_cast<unsigned>(cost_.cls)];
    cell.ops.fetch_add(1, std::memory_order_relaxed);
    cell.mediaReadBytes.fetch_add(cost_.pcm.mediaBytesRead,
                                  std::memory_order_relaxed);
    cell.mediaWriteBytes.fetch_add(cost_.pcm.mediaBytesWritten,
                                   std::memory_order_relaxed);
    cell.simNs.fetch_add(cost_.simNs, std::memory_order_relaxed);
    return cost_;
}

OpClassTotals
OpScope::classTotals(OpClass cls) noexcept
{
    OpClassTotals t;
    const ClassCell &cell = g_classCells[static_cast<unsigned>(cls)];
    t.ops = cell.ops.load(std::memory_order_relaxed);
    t.mediaReadBytes =
        cell.mediaReadBytes.load(std::memory_order_relaxed);
    t.mediaWriteBytes =
        cell.mediaWriteBytes.load(std::memory_order_relaxed);
    t.simNs = cell.simNs.load(std::memory_order_relaxed);
    return t;
}

uint64_t
OpScope::currentOpId() noexcept
{
    return tlsCurrent_;
}

uint64_t
OpScope::opsOpened() noexcept
{
    return nextOpId_.load(std::memory_order_relaxed) - 1;
}

} // namespace xpg::telemetry
