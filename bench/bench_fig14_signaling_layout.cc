/**
 * @file
 * Figure 14 reproduction: (a) inline vs register signaling, and (b)
 * descriptor layout (optimized grouped / packed / padded), measured as
 * peak 64B packet rate and minimum latency on SPR.
 */

#include "bench/common.hh"
#include "stats/json.hh"

using namespace ccn;
using namespace ccn::bench;

namespace {

void
variant(const char *name, const ccnic::CcNicConfig &cfg,
        const mem::PlatformConfig &plat, int cores, double guess,
        const char *note, stats::Table &t)
{
    auto mk = [&] { return makeCcNicWorld(plat, cfg); };
    workload::LoopbackConfig lc;
    lc.threads = cores;
    lc.window = sim::fromUs(100.0);
    auto peak = findPeak(mk, lc, guess);
    t.row().cell(name).cell(peak.achievedMpps, 1)
        .cell(minLatencyNs(mk), 0).cell(note);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::BenchOptions::parse(argc, argv);
    // Profile every variant: the distinct regionTag per layout lets
    // the ping-pong detector (and the coherence block of
    // bench/baselines/fig14_signaling_layout.json) show that packed
    // 16B descriptor lines thrash while the grouped 4+1 layout's
    // intended two-way lines do not.
    obs::CoherenceProfiler::setDefaultEnabled(true);
    stats::JsonReport json("fig14_signaling_layout");
    auto spr = mem::sprConfig();
    const int cores = 32;

    stats::banner("Figure 14a: signaling (SPR, 64B)");
    stats::Table a({"signal", "peak_Mpps", "min_ns", "paper"});
    {
        auto cfg = ccnic::optimizedConfig(cores, 0, spr);
        cfg.regionTag = "sig_inline";
        variant("inline", cfg, spr, cores, 28e6 * cores, "baseline",
                a);
    }
    {
        auto cfg = ccnic::optimizedConfig(cores, 0, spr);
        cfg.signal = driver::SignalMode::Register;
        cfg.regionTag = "sig_register";
        variant("register", cfg, spr, cores, 22e6 * cores,
                "paper: 1.3x lower rate, +59% min latency", a);
    }
    a.print();
    json.add("signaling", a);

    stats::banner("Figure 14b: descriptor layout (SPR, 64B)");
    stats::Table b({"layout", "peak_Mpps", "min_ns", "paper"});
    {
        auto cfg = ccnic::optimizedConfig(cores, 0, spr);
        cfg.regionTag = "opt_grouped";
        variant("opt (grouped)", cfg, spr, cores, 28e6 * cores,
                "3.0x tput of pad, min lat of pad", b);
    }
    {
        auto cfg = ccnic::optimizedConfig(cores, 0, spr);
        cfg.layout = driver::RingLayout::Packed;
        cfg.regionTag = "pack16";
        variant("pack (16B)", cfg, spr, cores, 26e6 * cores,
                "2.9x tput of pad, but thrashes (higher lat)", b);
    }
    {
        auto cfg = ccnic::optimizedConfig(cores, 0, spr);
        cfg.layout = driver::RingLayout::Padded;
        cfg.regionTag = "pad64";
        variant("pad (64B)", cfg, spr, cores, 10e6 * cores,
                "low latency, 1/3 the throughput", b);
    }
    b.print();
    json.add("descriptor_layout", b);
    ccn::bench::addObsSections(json);
    json.write();
    opts.finish();
    return 0;
}
