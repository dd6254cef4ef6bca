/**
 * @file
 * Figure 2 + §2.2 reproduction: single-threaded write throughput for
 * WC MMIO (to the NIC), WC-mapped DRAM, and regular WB DRAM, as a
 * function of bytes written per sfence barrier; plus the §2.2 UC MMIO
 * read latency measurements.
 */

#include <functional>

#include "bench/common.hh"
#include "pcie/pcie.hh"
#include "stats/json.hh"

using namespace ccn;

namespace {

sim::Task
body(std::function<sim::Coro<void>()> fn, bool &done)
{
    co_await fn();
    done = true;
}

double
wcThroughputGbps(pcie::WcTarget target, std::uint32_t bytes_per_barrier)
{
    sim::Simulator simv;
    mem::CoherentSystem system(simv, mem::icxConfig());
    pcie::PcieLink link(simv, pcie::PcieParams{}, system, 0);
    pcie::WcWindow wc(simv, link, target);
    double gbps = 0;
    bool done = false;
    auto fn = [&]() -> sim::Coro<void> {
        const std::uint64_t total = 2 * 1024 * 1024;
        const sim::Tick t0 = simv.now();
        std::uint64_t written = 0;
        mem::Addr a = 0x40000000;
        while (written < total) {
            for (std::uint32_t b = 0; b < bytes_per_barrier; b += 64) {
                co_await wc.store(a, 64);
                a += 64;
            }
            co_await wc.fence();
            written += bytes_per_barrier;
        }
        gbps = sim::bytesOverTicksToGbps(
            static_cast<double>(total), simv.now() - t0);
        co_return;
    };
    simv.spawn(body(fn, done));
    simv.run();
    return gbps;
}

double
wbThroughputGbps(std::uint32_t bytes_per_barrier)
{
    sim::Simulator simv;
    mem::CoherentSystem system(simv, mem::icxConfig());
    const mem::AgentId a = system.addAgent(0);
    double gbps = 0;
    bool done = false;
    auto fn = [&]() -> sim::Coro<void> {
        const std::uint32_t total = 2 * 1024 * 1024;
        const std::vector<mem::CoherentSystem::Span> range{
            {system.alloc(0, total), total}};
        const sim::Tick t0 = simv.now();
        // WB stores: sfence barriers cost nothing extra (Fig 2's flat
        // line), so throughput is barrier-independent.
        (void)bytes_per_barrier;
        co_await system.accessMulti(a, range, true);
        gbps = sim::bytesOverTicksToGbps(
            static_cast<double>(total), simv.now() - t0);
        co_return;
    };
    simv.spawn(body(fn, done));
    simv.run();
    return gbps;
}

} // namespace

int
main()
{
    stats::JsonReport json("fig02_wc_throughput");
    stats::banner("Sec 2.2: UC MMIO read latency (ICX -> E810)");
    {
        sim::Simulator simv;
        mem::CoherentSystem system(simv, mem::icxConfig());
        pcie::PcieLink link(simv, pcie::PcieParams{}, system, 0);
        double lat8 = 0, lat64 = 0;
        bool done = false;
        auto fn = [&]() -> sim::Coro<void> {
            sim::Tick t0 = simv.now();
            co_await link.mmioUcRead(8);
            lat8 = sim::toNs(simv.now() - t0);
            t0 = simv.now();
            co_await link.mmioUcRead(64);
            lat64 = sim::toNs(simv.now() - t0);
            co_return;
        };
        simv.spawn(body(fn, done));
        simv.run();
        stats::Table t({"access", "measured_ns", "paper_ns"});
        t.row().cell("8B UC read").cell(lat8, 0).cell("982");
        t.row().cell("64B AVX512 read").cell(lat64, 0).cell("1026");
        t.print();
        json.add("uc_mmio_read_latency", t);
    }

    stats::banner("Figure 2: single-threaded write throughput [Gbps]");
    stats::Table t({"bytes/barrier", "WC_MMIO", "WC_DRAM", "WB_DRAM",
                    "paper_shape"});
    for (std::uint32_t sz : {64u, 128u, 256u, 512u, 1024u, 2048u,
                             4096u, 8192u}) {
        t.row()
            .cell(static_cast<std::uint64_t>(sz))
            .cell(wcThroughputGbps(pcie::WcTarget::Device, sz), 1)
            .cell(wcThroughputGbps(pcie::WcTarget::LocalDram, sz), 1)
            .cell(wbThroughputGbps(sz), 1)
            .cell(sz == 64
                      ? "WB flat ~100; WC MMIO tiny"
                      : (sz >= 4096 ? "WC MMIO ~76% of WB" : "-"));
    }
    t.print();
    json.add("write_throughput", t);
    ccn::bench::addObsSections(json);
    json.write();
    return 0;
}
