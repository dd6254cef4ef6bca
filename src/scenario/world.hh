/**
 * @file
 * World construction: the interface-family registry and the factories
 * that build a simulated machine with one NIC attached.
 *
 * This is the single place that knows how to turn a family key
 * ("ccnic", "pcie_e810", "pio", ...) into a running world. Benches,
 * examples, and the scenario runner all build through here, so adding
 * an interface family is one registry entry plus one makeNic() case.
 *
 * Two world shapes:
 *
 *  - World: self-contained (owns its Simulator + Sampler). One per
 *    loopback measurement point; what every bench uses.
 *  - HostWorld: one host on a shared Simulator, for multi-host fabric
 *    scenarios where several machines must advance in one event loop.
 */

#ifndef CCN_SCENARIO_WORLD_HH
#define CCN_SCENARIO_WORLD_HH

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccnic/ccnic.hh"
#include "mem/platform.hh"
#include "net/fabric.hh"
#include "nic/pcie_nic.hh"
#include "obs/coherence_profiler.hh"
#include "obs/obs.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "pio/pio.hh"
#include "stats/json.hh"
#include "workload/loopback.hh"

namespace ccn::scenario {

/** A self-contained simulated world for one measurement point. */
struct World
{
    explicit World(const mem::PlatformConfig &plat)
        : simv(), system(simv, plat), rng(7), sampler(simv)
    {
        sampler.start();
    }

    sim::Simulator simv;
    mem::CoherentSystem system;
    sim::Rng rng;
    /// Time-series snapshotter: every world feeds the process-wide
    /// sample ring under its own run id, so a bench's "timeseries"
    /// section separates measurement points.
    obs::Sampler sampler;
    std::unique_ptr<driver::NicInterface> nic;
    ccnic::CcNic *ccnic = nullptr;   // Set when the NIC is a CcNic.
};

/**
 * Append the standard observability sections every bench and scenario
 * report emits:
 *
 *  - "counters": aggregated Registry snapshot (name, kind, value).
 *  - "latency": per-stage packet lifecycle latency percentiles from
 *    the sampled span table (paper Fig 7/11 stage decomposition).
 *  - "timeseries": interval snapshots of counter deltas / gauge
 *    changes recorded by each World's Sampler.
 *
 * Plus the coherence-profiler sections (all-zero counts unless the
 * run enabled profiling via --profile-coherence / `profile
 * coherence;` — the region registry itself is always active):
 *
 *  - "coherence": per-region traffic totals with attribution.
 *  - "coherence_hotlines": top contended lines, perf-c2c style.
 *  - "coherence_matrix": region x (requester, supplier) traffic.
 */
inline void
addObsSections(stats::JsonReport &json)
{
    json.add("counters", obs::Registry::global().snapshot());
    json.add("latency", obs::SpanTable::global().table());
    json.add("timeseries", obs::Sampler::table());
    json.add("coherence", obs::CoherenceProfiler::regionTable());
    json.add("coherence_hotlines",
             obs::CoherenceProfiler::hotLineTable());
    json.add("coherence_matrix", obs::CoherenceProfiler::matrixTable());
}

/**
 * Parse a scenario/bench batch spec into a driver::BatchPolicy:
 * "" or "off" → coalescing disabled, a positive integer → Fixed with
 * that publish target, "adaptive" → Adaptive with the default start
 * target. Throws std::invalid_argument on anything else so typos in
 * baselines and CI configs fail loudly.
 */
inline driver::BatchPolicy
batchPolicyFromSpec(const std::string &spec)
{
    driver::BatchPolicy p;
    if (spec.empty() || spec == "off")
        return p;
    if (spec == "adaptive") {
        p.mode = driver::BatchMode::Adaptive;
        return p;
    }
    char *end = nullptr;
    const unsigned long n = std::strtoul(spec.c_str(), &end, 10);
    if (end == spec.c_str() || *end != '\0' || n == 0)
        throw std::invalid_argument(
            "bad batch spec '" + spec +
            "' (expected off, adaptive, or a positive size)");
    p.mode = driver::BatchMode::Fixed;
    p.size = static_cast<std::uint32_t>(n);
    p.maxSize = std::max(p.maxSize, p.size);
    return p;
}

/** Build a world with a CC-NIC (or variant) attached. */
inline std::unique_ptr<World>
makeCcNicWorld(const mem::PlatformConfig &plat,
               const ccnic::CcNicConfig &cfg, int host_socket = 0,
               int nic_socket = 1)
{
    auto w = std::make_unique<World>(plat);
    auto n = std::make_unique<ccnic::CcNic>(w->simv, w->system, cfg,
                                            host_socket, nic_socket,
                                            w->rng);
    w->ccnic = n.get();
    n->start();
    w->nic = std::move(n);
    return w;
}

/** Build a world with a PCIe NIC attached. */
inline std::unique_ptr<World>
makePcieWorld(const mem::PlatformConfig &plat,
              const nic::NicParams &params, int queues)
{
    auto w = std::make_unique<World>(plat);
    w->nic = std::make_unique<nic::PcieNic>(w->simv, w->system, params,
                                            queues, 0, w->rng);
    w->nic->start();
    return w;
}

/**
 * One entry in the interface-family registry. `kind` names the
 * family's architecture (ring-over-coherence, ring-over-PCIe,
 * PIO-over-coherence) for docs and report labels.
 */
struct InterfaceFamily
{
    const char *key;   ///< Factory key (stable, used in baselines/CI).
    const char *label; ///< Human-readable series label.
    const char *kind;  ///< Architecture family.
};

/**
 * The interface families every comparison bench/example/scenario
 * enumerates. Adding an entry here (plus a makeNic() case) wires
 * a new interface into bench_fig11_overview, bench_pio_smallmsg,
 * examples/interface_compare, and the scenario DSL at once.
 */
inline const std::vector<InterfaceFamily> &
interfaceFamilies()
{
    static const std::vector<InterfaceFamily> families = {
        {"ccnic", "CC-NIC", "ring-over-coherence"},
        {"upi_unopt", "UPI-unopt", "ring-over-coherence"},
        {"pcie_e810", "PCIe-E810", "ring-over-PCIe"},
        {"pcie_cx6", "PCIe-CX6", "ring-over-PCIe"},
        {"pio", "PIO-UPI", "PIO-over-coherence"},
        {"pio_cxl", "PIO-CXL", "PIO-over-coherence"},
    };
    return families;
}

/** Display label for an interface-family key. */
inline const char *
familyLabel(const std::string &key)
{
    for (const InterfaceFamily &f : interfaceFamilies()) {
        if (key == f.key)
            return f.label;
    }
    return key.c_str();
}

/**
 * Resolve a user-facing family name to its canonical registry key.
 * Accepts canonical keys plus the generation-agnostic spellings the
 * DSL allows ("pcie", "pcie_gen5"). Returns "" when unknown.
 */
inline std::string
canonicalFamilyKey(const std::string &name)
{
    if (name == "pcie")
        return "pcie_e810";
    if (name == "pcie_gen5")
        return "pcie_cx6";
    for (const InterfaceFamily &f : interfaceFamilies()) {
        if (name == f.key)
            return f.key;
    }
    return {};
}

/** Comma-separated canonical keys, for diagnostics. */
inline std::string
familyKeyList()
{
    std::string out;
    for (const InterfaceFamily &f : interfaceFamilies()) {
        if (!out.empty())
            out += ", ";
        out += f.key;
    }
    return out;
}

/**
 * The one family switch: build (but do not start) the NIC for
 * canonical family @p key on @p system, with the host on socket 0 and
 * a coherent device on socket 1. @p loopback keeps TX folded back to
 * local RX; the PCIe families ignore it and switch to the wire once a
 * TX sink is installed. Throws std::invalid_argument on an unknown key
 * so baseline/CI typos fail loudly.
 */
inline std::unique_ptr<driver::NicInterface>
makeNic(const std::string &key, sim::Simulator &sim,
        mem::CoherentSystem &system, const mem::PlatformConfig &plat,
        int queues, bool loopback, const driver::BatchPolicy &batch,
        sim::Rng &rng)
{
    if (key == "ccnic" || key == "upi_unopt") {
        auto cfg = key == "ccnic"
                       ? ccnic::optimizedConfig(queues, 0, plat)
                       : ccnic::unoptimizedConfig(queues, 0, plat);
        cfg.loopback = loopback;
        cfg.batch = batch;
        return std::make_unique<ccnic::CcNic>(sim, system, cfg, 0, 1,
                                              rng);
    }
    if (key == "pcie_e810" || key == "pcie_cx6") {
        nic::NicParams params = key == "pcie_e810" ? nic::e810Params()
                                                   : nic::cx6Params();
        params.batch = batch;
        return std::make_unique<nic::PcieNic>(sim, system, params, queues,
                                              0, rng);
    }
    if (key == "pio" || key == "pio_cxl") {
        auto cfg = key == "pio" ? pio::upiConfig(queues, 0, plat)
                                : pio::cxlConfig(queues, 0, plat);
        cfg.loopback = loopback;
        cfg.batch = batch;
        return std::make_unique<pio::PioNic>(sim, system, cfg, 0, 1, rng);
    }
    throw std::invalid_argument("unknown interface family: " + key);
}

/**
 * World factory for an interface-family key: every measurement point
 * gets a fresh deterministic world with that interface attached.
 * Throws on an unknown key (here, not when a world is built) so
 * baseline/CI typos fail loudly.
 *
 * @p loopback keeps TX folded back to local RX (the bench loopback
 * harness). Pass false for worlds that attach to a net::Fabric.
 */
inline std::function<std::unique_ptr<World>()>
worldFactory(const std::string &key, const mem::PlatformConfig &plat,
             int queues, bool loopback = true,
             const std::string &batch = {})
{
    const driver::BatchPolicy bp = batchPolicyFromSpec(batch);
    if (key.empty() || canonicalFamilyKey(key) != key)
        throw std::invalid_argument("unknown interface family: " + key);
    return [key, plat, queues, loopback, bp] {
        auto w = std::make_unique<World>(plat);
        w->nic = makeNic(key, w->simv, w->system, plat, queues, loopback,
                         bp, w->rng);
        w->ccnic = dynamic_cast<ccnic::CcNic *>(w->nic.get());
        w->nic->start();
        return w;
    };
}

/**
 * One host on a shared Simulator: a memory system plus a NIC, for
 * multi-host fabric scenarios. Unlike World it owns no Simulator or
 * Sampler — the scenario run provides one of each for all hosts.
 */
struct HostWorld
{
    HostWorld(sim::Simulator &sim, const mem::PlatformConfig &plat,
              std::uint64_t seed)
        : system(sim, plat), rng(seed)
    {}

    mem::CoherentSystem system;
    sim::Rng rng;
    std::unique_ptr<driver::NicInterface> nic;
};

/**
 * Build one fabric-ready host (loopback off) for a canonical family
 * key on the shared simulator. Throws std::invalid_argument on an
 * unknown key.
 */
inline std::unique_ptr<HostWorld>
makeHost(sim::Simulator &sim, const std::string &key,
         const mem::PlatformConfig &plat, int queues,
         std::uint64_t seed, const std::string &batch = {})
{
    const driver::BatchPolicy bp = batchPolicyFromSpec(batch);
    auto w = std::make_unique<HostWorld>(sim, plat, seed);
    w->nic = makeNic(key, sim, w->system, plat, queues,
                     /*loopback=*/false, bp, w->rng);
    w->nic->start();
    return w;
}

/** Fabric attachment hooks for whatever NIC the host carries. */
inline net::NicPortHooks
hostHooks(HostWorld &w)
{
    return net::hooksFor(*w.nic);
}

/** Inspects a point's world after its run, before it is destroyed. */
using WorldCheck = std::function<void(World &)>;

/** Run one loopback point in a fresh world built by @p factory. */
inline workload::LoopbackResult
runPoint(const std::function<std::unique_ptr<World>()> &factory,
         workload::LoopbackConfig cfg, const WorldCheck &check = {})
{
    auto w = factory();
    auto r = workload::runLoopback(w->simv, w->system, *w->nic, cfg);
    if (check)
        check(*w);
    return r;
}

/**
 * Find the peak sustainable packet rate: sweep offered load on a
 * geometric grid around @p guess_pps and return the best achieved
 * rate (the paper's "maximum sustainable rate" methodology).
 */
inline workload::LoopbackResult
findPeak(const std::function<std::unique_ptr<World>()> &factory,
         workload::LoopbackConfig cfg, double guess_pps)
{
    workload::LoopbackResult best;
    for (double f : {0.8, 1.0, 1.3}) {
        cfg.offeredPps = guess_pps * f;
        auto r = runPoint(factory, cfg);
        if (r.achievedMpps > best.achievedMpps)
            best = r;
    }
    return best;
}

/** Measure the closed-loop (window=1) minimum latency. */
inline double
minLatencyNs(const std::function<std::unique_ptr<World>()> &factory,
             std::uint32_t pkt_size = 64, const WorldCheck &check = {})
{
    workload::LoopbackConfig cfg;
    cfg.threads = 1;
    cfg.pktSize = pkt_size;
    cfg.closedWindow = 1;
    cfg.window = sim::fromUs(250.0);
    auto r = runPoint(factory, cfg, check);
    return r.minNs;
}

/**
 * Trace a throughput-latency curve: open-loop rates up to slightly
 * past saturation. Returns (achievedMpps, medianNs) pairs.
 */
struct CurvePoint
{
    double offeredMpps, achievedMpps, medianNs, gbps;
};

inline std::vector<CurvePoint>
traceCurve(const std::function<std::unique_ptr<World>()> &factory,
           workload::LoopbackConfig cfg, double max_pps, int points = 7)
{
    std::vector<CurvePoint> out;
    for (int i = 1; i <= points; ++i) {
        const double frac =
            static_cast<double>(i) / static_cast<double>(points);
        cfg.offeredPps = max_pps * frac * frac; // Dense near the knee.
        auto r = runPoint(factory, cfg);
        out.push_back({r.offeredMpps, r.achievedMpps, r.medianNs,
                       r.gbps});
    }
    return out;
}

/** Latency at approximately the given fraction of peak load. */
inline double
latencyAtLoadNs(const std::function<std::unique_ptr<World>()> &factory,
                workload::LoopbackConfig cfg, double peak_pps,
                double fraction)
{
    cfg.offeredPps = peak_pps * fraction;
    auto r = runPoint(factory, cfg);
    return r.medianNs;
}

} // namespace ccn::scenario

#endif // CCN_SCENARIO_WORLD_HH
