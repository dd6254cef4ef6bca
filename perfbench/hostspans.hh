/**
 * @file
 * Host-time spans recorded by the benchmark around the calls it makes
 * into the program: world set-up phases, each Simulator::run slice,
 * teardown, and the layer probes. Spans stay in memory and are written
 * out once, at exit. Recording is off in untraced runs.
 */

#ifndef PERFBENCH_HOSTSPANS_HH
#define PERFBENCH_HOSTSPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host clock in seconds. */
inline double
hostNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

class HostSpans
{
  public:
    struct Span
    {
        std::string name;
        double start = 0; ///< Host seconds.
        double end = 0;
        int parent = -1;  ///< Index of the enclosing span, -1 at top.
        int workload = 0;
    };

    bool recording = false;
    int workload = 0; ///< Stamped on every span begun from now on.

    /** Open a span under the innermost open one; -1 when off. */
    int
    begin(const std::string &name)
    {
        if (!recording)
            return -1;
        spans_.push_back({name, hostNow(), 0.0,
                          open_.empty() ? -1 : open_.back(), workload});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int idx)
    {
        if (idx < 0)
            return;
        spans_[idx].end = hostNow();
        open_.pop_back();
    }

    /** Scoped span. */
    class Scope
    {
      public:
        Scope(HostSpans &s, const std::string &name)
            : s_(s), idx_(s.begin(name))
        {}
        ~Scope() { s_.end(idx_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostSpans &s_;
        int idx_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time per span name, in seconds: each span's duration minus
     * the part its direct children cover.
     */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] +=
                spans_[i].end - spans_[i].start - child[i];
        return out;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPANS_HH
