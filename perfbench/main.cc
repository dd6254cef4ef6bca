/**
 * @file
 * ccn_perfbench: the repository benchmark. One process runs one
 * workload at one seed for a host-time budget and prints its metrics;
 * the last line of standard output is the JSON result. See README.md
 * for the workloads, the metric map and how to read a traced run.
 *
 *   ccn_perfbench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> [--out <dir>]
 *
 * Exit status: 0 when every correctness check passed, 1 when one
 * failed (the result line then says "correct": false), 2 on bad
 * arguments.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/coherence_profiler.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

#include "hostspans.hh"
#include "probes.hh"
#include "workloads.hh"

using namespace perfbench;
using ccn::sim::Tick;

namespace {

// ---------------------------------------------------------------------
// Small numeric helpers.
// ---------------------------------------------------------------------

/** Nearest-rank percentile of exact samples (0 when empty). */
double
percentile(std::vector<Tick> v, double p)
{
    if (v.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return static_cast<double>(v[rank - 1]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** FNV-1a, 64-bit. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void str(const std::string &s) { bytes(s.data(), s.size()); }
};

/**
 * Digest of every modeled output of a repetition: operation
 * accounting, every latency and generator-lag sample, every registry
 * counter and the span table. Host timings are not modeled outputs
 * and are left out, so a change that only speeds up the simulator
 * keeps the digest.
 */
std::uint64_t
modeledDigest(const RepResult &r)
{
    Fnv f;
    for (std::uint64_t v :
         {r.attempted, r.completed, r.refused, r.unanswered,
          r.duplicates, r.completedAll, r.windowCompletions, r.events, r.memOps, r.kvSent,
          r.kvResponses, r.serverDelivered, r.connAborts})
        f.u64(v);
    for (Tick t : r.latency)
        f.u64(t);
    f.u64(~0ULL);
    for (Tick t : r.genLag)
        f.u64(t);
    for (const auto &[name, value] : r.counters) {
        f.str(name);
        f.u64(value);
    }
    f.str(r.spanTable);
    return f.h;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::uint64_t
counter(const RepResult &r, const std::string &name)
{
    auto it = r.counters.find(name);
    return it == r.counters.end() ? 0 : it->second;
}

/** Independent arrival streams per run, pooled for modeled metrics. */
constexpr int kStreams = 7;

std::uint64_t
streamSeed(std::uint64_t seed, int i)
{
    return seed * kStreams + static_cast<std::uint64_t>(i);
}

/** Sum of the modeled outputs of several reps (samples concatenated). */
RepResult
pooled(const std::vector<const RepResult *> &reps)
{
    RepResult p;
    for (const RepResult *r : reps) {
        p.attempted += r->attempted;
        p.completed += r->completed;
        p.refused += r->refused;
        p.unanswered += r->unanswered;
        p.duplicates += r->duplicates;
        p.completedAll += r->completedAll;
        p.windowCompletions += r->windowCompletions;
        p.latency.insert(p.latency.end(), r->latency.begin(),
                         r->latency.end());
        p.genLag.insert(p.genLag.end(), r->genLag.begin(),
                        r->genLag.end());
        p.windowSeconds += r->windowSeconds;
        p.events += r->events;
        p.memOps += r->memOps;
        p.kvResponses += r->kvResponses;
        for (const auto &[name, value] : r->counters)
            p.counters[name] += value;
    }
    return p;
}

// ---------------------------------------------------------------------
// Span reconstruction from the tracepoint ring (traced runs).
// ---------------------------------------------------------------------

constexpr std::size_t kStages = ccn::obs::kSpanStages;

/**
 * Exact per-stage span samples, rebuilt from the SpanStage
 * tracepoints. The ring is drained after every Simulator::run slice
 * so it never wraps between drains; ring overflow is still counted.
 */
struct SpanCollector
{
    struct Partial
    {
        Tick t[kStages] = {};
        unsigned mask = 0;
    };

    std::unordered_map<std::uint64_t, Partial> open;
    std::vector<Tick> stage[kStages - 1];
    std::vector<Tick> e2e;
    std::uint64_t dropped = 0;
    std::uint64_t tracepoints = 0;

    void
    drain()
    {
        auto &tr = ccn::obs::Trace::global();
        dropped += tr.dropped();
        const auto events = tr.events();
        tr.clear();
        tracepoints += events.size();
        for (const auto &e : events) {
            if (e.kind != ccn::obs::EventKind::SpanStage)
                continue;
            std::size_t s = 0;
            while (s < kStages &&
                   std::strcmp(e.name, ccn::obs::spanStageTraceName(
                                           static_cast<ccn::obs::SpanStage>(
                                               s))) != 0)
                ++s;
            if (s == kStages)
                continue;
            if (s == 0)
                open[e.arg] = Partial{}; // Span ids restart per rep.
            Partial &p = open[e.arg];
            p.t[s] = e.tick;
            p.mask |= 1u << s;
            if (s + 1 == kStages) {
                if (p.mask == (1u << kStages) - 1) {
                    for (std::size_t i = 0; i + 1 < kStages; ++i)
                        stage[i].push_back(p.t[i + 1] - p.t[i]);
                    e2e.push_back(p.t[kStages - 1] - p.t[0]);
                }
                open.erase(e.arg);
            }
        }
    }
};

// ---------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out = ".";
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    bool have_w = false, have_s = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a->workload = v;
            have_w = true;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                return false;
            have_s = true;
        } else if (k == "--seconds") {
            a->seconds = std::strtod(v.c_str(), &end);
            if (*end || !(a->seconds > 0))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a->trace = v == "1";
        } else if (k == "--out") {
            a->out = v;
        } else {
            return false;
        }
    }
    return have_w && have_s;
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << num(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
}

/** Span-stage name as used in metric names ("host_enqueue", ...). */
std::string
stageName(std::size_t i)
{
    return ccn::obs::spanStageName(static_cast<ccn::obs::SpanStage>(i));
}

/** Layer that owns the modeled time of adjacent-stage interval @p i. */
const char *
stageLayer(std::size_t i)
{
    static const char *layers[kStages - 1] = {
        "driver", // host_enqueue -> batch_flush: publish-batch hold.
        "mem",    // batch_flush -> desc_publish: stores made visible.
        "mem",    // desc_publish -> nic_observe: signal handoff.
        "nic",    // nic_observe -> wire_tx: device TX engine.
        "net",    // wire_tx -> link_deliver: wire / fabric.
        "nic",    // link_deliver -> rx_publish: device RX engine.
        "driver", // rx_publish -> host_reap: host poll + rxBurst.
    };
    return layers[i];
}

void
writeSpans(const std::string &path, const HostSpans &spans)
{
    std::ofstream f(path);
    if (!f)
        return;
    f << "{\"spans\": [\n";
    const auto &v = spans.spans();
    const double t0 = v.empty() ? 0.0 : v.front().start;
    for (std::size_t i = 0; i < v.size(); ++i) {
        f << (i ? ",\n" : "") << "  {\"id\": " << i << ", \"name\": \""
          << v[i].name << "\", \"start_s\": " << num(v[i].start - t0)
          << ", \"end_s\": " << num(v[i].end - t0)
          << ", \"parent\": " << v[i].parent
          << ", \"workload\": " << v[i].workload << "}";
    }
    f << "\n]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    WorkloadSpec spec;
    if (!parseArgs(argc, argv, &args) ||
        !findWorkload(args.workload, &spec)) {
        std::fprintf(stderr,
                     "usage: ccn_perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out <dir>]\n"
                     "workloads:");
        for (const auto &n : workloadNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    const double t_start = hostNow();
    HostSpans spans;
    spans.workload = spec.id;
    std::vector<std::string> violations;
    SpanCollector collector;

    // Repetitions. The run's inputs are kStreams independent arrival
    // streams derived from --seed; modeled metrics pool all of them.
    // Every later repetition re-runs one of those streams, so repeating
    // measures host time only and must reproduce its modeled output.
    struct Rep
    {
        int stream;
        bool traced;
        std::uint64_t digest;
        RepResult r; ///< Samples kept only for the first kStreams.
    };
    std::vector<Rep> reps;
    auto run = [&](int stream, bool traced) {
        auto &tr = ccn::obs::Trace::global();
        if (traced) {
            ccn::obs::CoherenceProfiler::setDefaultEnabled(true);
            ccn::obs::CoherenceProfiler::clearLedger();
            tr.enable(1 << 18);
            tr.clear();
        }
        const int sp = spans.begin(traced ? "rep.traced" : "rep.untraced");
        // Traced: drain the tracepoint ring after every slice.
        RepResult r = runRep(spec, streamSeed(args.seed, stream), spans,
                             traced ? std::function<void()>(
                                          [&] { collector.drain(); })
                                    : std::function<void()>());
        spans.end(sp);
        if (traced) {
            collector.drain();
            tr.disable();
            ccn::obs::CoherenceProfiler::setDefaultEnabled(false);
        }
        const std::uint64_t digest = modeledDigest(r);
        if (reps.size() >= static_cast<std::size_t>(kStreams)) {
            r.latency = {};
            r.genLag = {};
        }
        reps.push_back({stream, traced, digest, std::move(r)});
    };

    double last = 0;
    auto budget_left = [&] {
        return hostNow() - t_start + last < args.seconds;
    };
    auto timed = [&](int stream, bool traced) {
        const double h0 = hostNow();
        run(stream % kStreams, traced);
        last = hostNow() - h0;
    };

    spans.recording = args.trace;
    for (int i = 0; i < kStreams; ++i)
        timed(i, false);
    // Peak RSS over the pooled repetitions only, so it does not depend
    // on how many repeats the host-time budget allowed.
    const double peak_rss = peakRssMb();
    int next_plain = kStreams;
    int next_traced = 0;
    if (args.trace) {
        timed(next_traced++, true);
        timed(next_traced++, true);
        while (budget_left()) {
            timed(next_plain++, false);
            if (budget_left())
                timed(next_traced++, true);
        }
    } else {
        timed(next_plain++, false);
        while (budget_left())
            timed(next_plain++, false);
    }

    // ---- Correctness -------------------------------------------------
    std::vector<const RepResult *> first;
    std::vector<std::uint64_t> stream_digest;
    for (int i = 0; i < kStreams; ++i) {
        first.push_back(&reps[i].r);
        stream_digest.push_back(reps[i].digest);
    }
    Fnv run_digest;
    for (std::uint64_t d : stream_digest)
        run_digest.u64(d);
    for (std::size_t i = 0; i < stream_digest.size(); ++i) {
        for (std::size_t j = i + 1; j < stream_digest.size(); ++j) {
            if (stream_digest[i] == stream_digest[j])
                violations.push_back("determinism: two different seeds "
                                     "gave the same digest");
        }
    }
    for (const Rep &rep : reps) {
        const RepResult &r = rep.r;
        violations.insert(violations.end(), r.violations.begin(),
                          r.violations.end());
        if (rep.digest != stream_digest[rep.stream])
            violations.push_back(
                rep.traced ? "determinism: tracing changed a modeled "
                             "output"
                           : "determinism: the same seed gave a "
                             "different digest");
        if (r.attempted == 0)
            violations.push_back("no operation fell due in the window");
        if (r.duplicates != 0)
            violations.push_back("an operation completed twice");
        if (counter(r, "watchdog.recoveries") + counter(r, "ccnic.resets") +
                counter(r, "pcie_nic.resets") + counter(r, "pio.resets") !=
            0)
            violations.push_back(
                "watchdog or device reset during the run");
        if (spec.kv) {
            if (r.kvResponses > r.kvSent)
                violations.push_back("kv: more responses than requests");
            if (r.serverDelivered > r.kvSent)
                violations.push_back("kv: a request was executed twice");
            if (r.connAborts != 0)
                violations.push_back("kv: a connection aborted");
        } else if (r.leakedAfterTeardown != 0) {
            violations.push_back(
                "loopback: pool.leaked != 0 after teardown");
        }
    }
    std::sort(violations.begin(), violations.end());
    violations.erase(std::unique(violations.begin(), violations.end()),
                     violations.end());

    // ---- End-to-end metrics ------------------------------------------
    const RepResult r0 = pooled(first);
    std::vector<double> ops_per_s, setup, ns_per_event, sim_seconds;
    std::vector<double> setup_mem, setup_nic, setup_fabric, setup_app;
    std::vector<double> traced_ops;
    std::size_t n_plain = 0;
    for (const Rep &rep : reps) {
        const RepResult &r = rep.r;
        if (rep.traced) {
            traced_ops.push_back(ratio(r.completedAll, r.simulate));
            continue;
        }
        n_plain++;
        ops_per_s.push_back(ratio(r.completedAll, r.simulate));
        ns_per_event.push_back(ratio(r.simulate * 1e9, r.events));
        sim_seconds.push_back(r.simulate);
        for (const SetupTimes &t : r.setups) {
            setup.push_back(t.total());
            setup_mem.push_back(t.mem);
            setup_nic.push_back(t.nic);
            setup_fabric.push_back(t.fabric);
            setup_app.push_back(t.app);
        }
    }
    const double host_ops = median(ops_per_s);
    const double model_mops =
        ratio(r0.windowCompletions, r0.windowSeconds) / 1e6;
    const double p50 = percentile(r0.latency, 50.0) / 1e3;
    const double p99 = percentile(r0.latency, 99.0) / 1e3;
    const std::uint64_t failed =
        r0.refused + r0.unanswered + r0.duplicates;
    const double completed_frac = ratio(r0.completed, r0.attempted);

    std::printf("workload %s seed %" PRIu64 " (%s run)\n",
                spec.name.c_str(), args.seed,
                args.trace ? "traced" : "untraced");
    std::printf("  repetitions: %zu untraced, %zu traced, cycling %d "
                "arrival streams (seeds %" PRIu64 "..%" PRIu64 ")\n",
                n_plain, traced_ops.size(), kStreams,
                streamSeed(args.seed, 0), streamSeed(args.seed, kStreams - 1));
    std::printf("  host_ops_per_s  %14.1f ops/s  (median of %zu reps)\n",
                host_ops, n_plain);
    std::printf("    per rep:");
    for (double v : ops_per_s)
        std::printf(" %.0f", v);
    std::printf("\n");
    std::printf("  setup_s         %14.6f s      (median of %zu builds)\n",
                median(setup), setup.size());
    std::printf("  peak_rss_mb     %14.1f MB     (over the first %d reps)\n",
                peak_rss, kStreams);
    std::printf("  model_mops      %14.4f Mops   (%" PRIu64
                " completed in %.0f us)\n",
                model_mops, r0.windowCompletions, r0.windowSeconds * 1e6);
    std::printf("  model_p50_ns    %14.3f ns     (n=%zu)\n", p50,
                r0.latency.size());
    std::printf("  model_p99_ns    %14.3f ns     (n=%zu, %zu beyond)\n",
                p99, r0.latency.size(), r0.latency.size() / 100);
    std::printf("  failed_frac     %14.6f ratio  (%" PRIu64 " of %" PRIu64
                ": %" PRIu64 " refused, %" PRIu64 " unanswered, %" PRIu64
                " duplicated)\n",
                ratio(failed, r0.attempted), failed, r0.attempted,
                r0.refused, r0.unanswered, r0.duplicates);
    std::printf("  completed_frac  %14.6f ratio\n", completed_frac);
    std::printf("  digest %016" PRIx64 " (streams:", run_digest.h);
    for (std::uint64_t d : stream_digest)
        std::printf(" %016" PRIx64, d);
    std::printf(")\n");
    for (const std::string &v : violations)
        std::printf("  CORRECTNESS VIOLATION: %s\n", v.c_str());

    if (!args.trace) {
        printResult(violations.empty(), r0.attempted, failed,
                    {
                        {"host_ops_per_s", host_ops, "ops/s"},
                        {"setup_s", median(setup), "s"},
                        {"peak_rss_mb", peak_rss, "MB"},
                        {"model_mops", model_mops, "Mops"},
                        {"model_p50_ns", p50, "ns"},
                        {"model_p99_ns", p99, "ns"},
                        {"completed_frac", completed_frac, "ratio"},
                    });
        return violations.empty() ? 0 : 1;
    }

    // ---- Traced run: per-layer metrics --------------------------------
    const ProbeResults pr = runProbes(spec, spans);
    const double ops = static_cast<double>(r0.completedAll);
    auto per_op = [&](const std::string &name) {
        return ratio(static_cast<double>(counter(r0, name)), ops);
    };
    const double overhead = 1.0 - ratio(median(traced_ops), host_ops);
    const double host_ns_event = median(ns_per_event);

    // Host time of the simulate phase attributed to layers by probe
    // cost x matching modeled count, per untraced rep (the pooled
    // counts cover kStreams reps).
    const double sim_s = median(sim_seconds);
    const double per_rep = 1.0 / kStreams;
    const double ev = static_cast<double>(r0.events) * per_rep;
    const double mem_net_ns = std::max(
        0.0, pr.coherentOpNs - pr.coherentOpEventsPerOp *
                                   pr.kernelNsPerEvent);
    const double descs =
        per_rep * static_cast<double>(counter(r0, "ccnic.tx_packets") +
                                      counter(r0, "ccnic.rx_delivered") +
                                      counter(r0, "pcie_nic.tx_packets"));
    const double frames =
        per_rep * static_cast<double>(counter(r0, "ccnic.tx_packets") +
                                      counter(r0, "pcie_nic.tx_packets") +
                                      counter(r0, "pio.tx_packets"));
    struct LayerEst
    {
        const char *layer;
        const char *basis;
        double seconds;
    };
    const std::vector<LayerEst> est = {
        {"sim", "kernel_ns_per_event x events", pr.kernelNsPerEvent * ev * 1e-9},
        {"mem", "coherent_op_ns (minus its events) x demand line walks",
         mem_net_ns * static_cast<double>(r0.memOps) * per_rep * 1e-9},
        {"driver", "slot_crc_ns x stamped descriptors",
         pr.slotCrcNs * descs * 1e-9},
        {"nic", "wire_fcs_ns x frames stamped",
         pr.wireFcsNs * frames * 1e-9},
    };
    double attributed = 0;
    for (const LayerEst &e : est)
        attributed += e.seconds;
    const double unattributed = 1.0 - ratio(attributed, sim_s);

    // Exact span-stage percentiles.
    auto stage_p = [&](const std::vector<Tick> &v, double p) {
        return percentile(v, p) / 1e3;
    };

    std::vector<Metric> layer;
    auto add = [&](const std::string &n, double v) {
        // Unit from the name's suffix (see BENCHMARK.json).
        auto ends = [&n](const char *sfx) {
            const std::size_t k = std::strlen(sfx);
            return n.size() >= k && n.compare(n.size() - k, k, sfx) == 0;
        };
        std::string unit = "count";
        if (ends("_ns") || ends("_ns_per_event"))
            unit = "ns";
        else if (ends("_ms"))
            unit = "ms";
        else if (ends("_s"))
            unit = "s";
        else if (ends("_frac"))
            unit = "ratio";
        else if (n.find("_per_") != std::string::npos)
            unit = "count/op";
        layer.push_back({n, v, unit});
    };
    add("sim.events_per_op", ratio(static_cast<double>(r0.events), ops));
    add("sim.host_ns_per_event", host_ns_event);
    add("sim.kernel_ns_per_event", pr.kernelNsPerEvent);
    add("sim.calendar_reserve_ns", pr.calendarReserveNs);
    add("mem.cache_ctor_ms", pr.cacheCtorMs);
    add("mem.cache_touch_ns", pr.cacheTouchNs);
    add("mem.coherent_op_ns", pr.coherentOpNs);
    add("driver.slot_crc_ns", pr.slotCrcNs);
    add("ccnic.wire_fcs_ns", pr.wireFcsNs);
    add("setup.mem_s", median(setup_mem));
    add("setup.nic_s", median(setup_nic));
    add("setup.fabric_s", median(setup_fabric));
    add("setup.app_s", median(setup_app));
    add("mem.remote_reads_per_op", per_op("mem.remote_reads"));
    add("mem.remote_rfos_per_op", per_op("mem.remote_rfos"));
    add("mem.invalidations_per_op", per_op("mem.invalidations"));
    add("mem.migratory_handoffs_per_op",
        per_op("mem.migratory_handoffs"));
    add("mem.dram_reads_per_op", per_op("mem.dram_reads"));
    add("mem.line_walks_per_op", ratio(static_cast<double>(r0.memOps), ops));
    add("ccnic.signal_reads_per_op", per_op("ccnic.signal_reads"));
    add("ccnic.signal_writes_per_op", per_op("ccnic.signal_writes"));
    add("pool.allocs_per_op", per_op("pool.allocs"));
    add("pool.recycle_hit_frac",
        ratio(static_cast<double>(counter(r0, "pool.recycle_hits")),
              static_cast<double>(counter(r0, "pool.allocs"))));
    add("pool.exhausted", static_cast<double>(counter(r0, "pool.exhausted")));
    add("workload.refused", static_cast<double>(r0.refused));
    add("workload.gen_lag_p99_ns", stage_p(r0.genLag, 99.0));
    for (std::size_t i = 0; i + 1 < kStages; ++i) {
        add("span." + stageName(i) + ".p50_ns",
            stage_p(collector.stage[i], 50.0));
        add("span." + stageName(i) + ".p99_ns",
            stage_p(collector.stage[i], 99.0));
    }
    add("span.end_to_end.p50_ns", stage_p(collector.e2e, 50.0));
    add("span.end_to_end.p99_ns", stage_p(collector.e2e, 99.0));
    add("pcie_nic.doorbells_per_op", per_op("pcie_nic.doorbells"));
    add("pio.spills_per_op", per_op("pio.spills"));
    add("pio.slot_polls_per_op", per_op("pio.slot_polls"));
    add("pio.credit_stalls",
        static_cast<double>(counter(r0, "pio.credit_stalls")));
    add("net.link.drops", static_cast<double>(counter(r0, "net.link.drops")));
    add("net.link.fault_drops",
        static_cast<double>(counter(r0, "net.link.fault_drops")));
    add("transport.retransmits_per_req",
        ratio(static_cast<double>(counter(r0, "transport.retransmits") +
                                  counter(r0, "transport.fast_retransmits")),
              static_cast<double>(r0.kvResponses)));
    for (const char *n : {"transport.timeouts", "transport.window_stalls",
                          "transport.dups_received",
                          "transport.out_of_order"})
        add(n, static_cast<double>(counter(r0, n)));
    add("obs.profiler_overhead_frac", overhead);
    double traced_completed = 0;
    for (const Rep &rep : reps) {
        if (rep.traced)
            traced_completed += static_cast<double>(rep.r.completedAll);
    }
    add("obs.tracepoints_per_op",
        ratio(static_cast<double>(collector.tracepoints), traced_completed));
    add("host.unattributed_frac", unattributed);

    // ---- Traced-run report --------------------------------------------
    std::printf("\nper-layer metrics (traced run; counts per completed "
                "operation over warmup+window+drain, n=%" PRIu64 ")\n",
                r0.completedAll);
    for (const Metric &m : layer)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  probe geometry: %d kernel tasks, %" PRIu64
                " footprint lines vs %u L2 lines\n",
                pr.kernelTasks, pr.footprintLines, spec.plat.l2Lines);
    std::printf("  spans rebuilt from the tracepoint ring: %zu complete, "
                "%" PRIu64 " tracepoints lost to ring overflow\n",
                collector.e2e.size(), collector.dropped);
    std::printf("  tracing overhead: traced %.1f vs untraced %.1f ops/s "
                "(medians of %zu and %zu reps)\n",
                median(traced_ops), host_ops, traced_ops.size(), n_plain);

    std::printf("\nhost self time per benchmark span (all reps, s)\n");
    for (const auto &[n, s] : spans.selfTimes())
        std::printf("  %-24s %10.4f\n", n.c_str(), s);

    std::printf("\nsimulate-phase host time by layer (per untraced rep, "
                "median %.4f s)\n",
                sim_s);
    for (const LayerEst &e : est)
        std::printf("  %-8s %10.4f s  %5.1f%%  (%s)\n", e.layer,
                    e.seconds, 100.0 * ratio(e.seconds, sim_s), e.basis);
    std::printf("  %-8s %10.4f s  %5.1f%%  (remainder: no probe with a "
                "matching count; calendar and cache probes have no "
                "registry count)\n",
                "unattr.", sim_s - attributed, 100.0 * unattributed);

    std::printf("\njoined view: modeled time per span stage | host time "
                "of the owning layer\n");
    std::printf("  %-26s %10s %10s %10s  %-7s %8s\n", "stage", "mean_ns",
                "p50_ns", "p99_ns", "layer", "host_%");
    for (std::size_t i = 0; i + 1 < kStages; ++i) {
        const auto &v = collector.stage[i];
        double sum = 0;
        for (Tick t : v)
            sum += static_cast<double>(t);
        double host = 0;
        for (const LayerEst &e : est) {
            if (std::strcmp(e.layer, stageLayer(i)) == 0)
                host = e.seconds;
        }
        std::printf("  %-26s %10.1f %10.1f %10.1f  %-7s %7.1f%%\n",
                    (stageName(i) + "->" + stageName(i + 1)).c_str(),
                    ratio(sum, static_cast<double>(v.size())) / 1e3,
                    stage_p(v, 50.0), stage_p(v, 99.0), stageLayer(i),
                    100.0 * ratio(host, sim_s));
    }

    const std::string path = args.out + "/trace-" + spec.name + "-" +
                             std::to_string(args.seed) + ".json";
    writeSpans(path, spans);
    std::printf("\nhost spans written to %s\n", path.c_str());

    printResult(violations.empty(), r0.attempted, failed, layer);
    return violations.empty() ? 0 : 1;
}
