/**
 * @file
 * In-memory span recorder for the traced benchmark run. The benchmark
 * opens a span around every call it makes into a layer of the library
 * (session appends, archiving, views, compaction, analytics kernels);
 * each span has a name, host start/end, the enclosing span and a request
 * id shared by the spans of one request. Self time (duration minus the
 * part covered by child spans) is folded per name as spans close; the
 * spans themselves are kept up to a cap and written out at exit.
 *
 * With tracing off every call is a single branch, so the untraced run
 * that produces the end-to-end metrics pays nothing measurable.
 */

#ifndef XPG_PERFBENCH_SPANS_HPP
#define XPG_PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Span names: one per layer boundary the benchmark calls across. */
namespace spanName {
inline constexpr const char *kIteration = "bench.iteration";
inline constexpr const char *kSetup = "bench.setup";
inline constexpr const char *kSessionAdd = "graph.session.add";
inline constexpr const char *kArchive = "core.archive";
inline constexpr const char *kViewOpen = "core.view.open";
inline constexpr const char *kViewRead = "core.view.read";
inline constexpr const char *kCompaction = "core.compaction";
inline constexpr const char *kBfs = "analytics.bfs";
inline constexpr const char *kPageRank = "analytics.pagerank";
inline constexpr const char *kCc = "analytics.cc";
inline constexpr const char *kOneHop = "analytics.onehop";
} // namespace spanName

/** Host nanoseconds on the steady clock. */
inline uint64_t
hostNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Per-name aggregate of closed spans. */
struct SpanTotals
{
    uint64_t count = 0;
    uint64_t totalNs = 0;
    uint64_t selfNs = 0;
    std::vector<uint64_t> durations; ///< for quantiles

    void
    reset()
    {
        count = totalNs = selfNs = 0;
        durations.clear();
    }
};

class SpanRecorder
{
  public:
    static constexpr uint32_t kNoParent = ~0u;

    struct Span
    {
        const char *name;
        uint64_t startNs;
        uint64_t endNs;
        uint32_t parent; ///< index into spans(), kNoParent at a root
        uint64_t request;
    };

    /** Spans kept for the trace file; later ones are only counted. */
    static constexpr size_t kMaxStored = 1u << 18;

    SpanRecorder() : epochNs_(hostNs()) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Turn recording on or off (between iterations, no span open). */
    void setEnabled(bool on) { enabled_ = on; }

    /** RAII span; a no-op when the recorder is disabled. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name, uint64_t request)
            : rec_(rec.enabled_ ? &rec : nullptr)
        {
            if (rec_ != nullptr)
                rec_->open(name, request);
        }
        ~Scope()
        {
            if (rec_ != nullptr)
                rec_->close();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
    };

    /** Aggregates since the last resetTotals(), keyed by span name
     *  (names are the constants in spanName, compared by address). */
    const std::map<const char *, SpanTotals> &totals() const
    {
        return totals_;
    }
    void
    resetTotals()
    {
        for (auto &[name, t] : totals_)
            t.reset();
    }

    uint64_t droppedSpans() const { return dropped_; }

    /** Write every stored span as one JSON document. */
    bool
    writeJson(const std::string &path, const std::string &run_info) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"run_info\": %s,\n \"dropped_spans\": %llu,\n"
                        " \"fields\": [\"name\", \"start_ns\", \"end_ns\", "
                        "\"parent\", \"request\"],\n \"spans\": [",
                     run_info.c_str(),
                     static_cast<unsigned long long>(dropped_));
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f, "%s\n  [\"%s\", %llu, %llu, %lld, %llu]",
                         i == 0 ? "" : ",", s.name,
                         static_cast<unsigned long long>(s.startNs),
                         static_cast<unsigned long long>(s.endNs),
                         s.parent == kNoParent
                             ? -1ll
                             : static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.request));
        }
        std::fprintf(f, "\n ]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Open
    {
        const char *name;
        uint64_t startNs;
        uint64_t childNs;
        uint32_t stored; ///< index in spans_, or kNoParent if dropped
        uint64_t request;
    };

    void
    open(const char *name, uint64_t request)
    {
        const uint64_t now = hostNs() - epochNs_;
        uint32_t stored = kNoParent;
        if (spans_.size() < kMaxStored) {
            stored = static_cast<uint32_t>(spans_.size());
            spans_.push_back(Span{name, now, now,
                                  stack_.empty() ? kNoParent
                                                 : stack_.back().stored,
                                  request});
        } else {
            ++dropped_;
        }
        stack_.push_back(Open{name, now, 0, stored, request});
    }

    void
    close()
    {
        const uint64_t now = hostNs() - epochNs_;
        const Open o = stack_.back();
        stack_.pop_back();
        const uint64_t dur = now - o.startNs;
        if (o.stored != kNoParent)
            spans_[o.stored].endNs = now;
        if (!stack_.empty())
            stack_.back().childNs += dur;
        SpanTotals &t = totals_[o.name];
        ++t.count;
        t.totalNs += dur;
        t.selfNs += dur > o.childNs ? dur - o.childNs : 0;
        t.durations.push_back(dur);
    }

    bool enabled_ = false;
    uint64_t epochNs_;
    uint64_t dropped_ = 0;
    std::vector<Span> spans_;
    std::vector<Open> stack_;
    std::map<const char *, SpanTotals> totals_;
};

} // namespace perfbench

#endif // XPG_PERFBENCH_SPANS_HPP
