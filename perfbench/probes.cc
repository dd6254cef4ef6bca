#include "probes.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ccnic/ccnic.hh"
#include "driver/ring.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "workload/dists.hh"

namespace perfbench {

using ccn::sim::Tick;
namespace sim = ccn::sim;
namespace mem = ccn::mem;

namespace {

constexpr int kTrials = 5;

/** Keeps probe results observable so the timed work is not elided. */
volatile std::uint64_t g_sink = 0;

/** Median over kTrials of @p trial(), which returns ns per call. */
template <typename Fn>
double
medianOf(Fn trial)
{
    std::vector<double> v;
    for (int i = 0; i < kTrials; ++i)
        v.push_back(trial());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

sim::Task
resumeLoop(sim::Simulator &s, int id, int hops)
{
    for (int i = 0; i < hops; ++i)
        co_await s.delay(sim::fromNs(1.0 + (id * 7 + i) % 13));
    co_return;
}

void
callbackChain(sim::Simulator &s, int id, int left)
{
    if (left == 0)
        return;
    s.scheduleCallback(s.now() + sim::fromNs(1.0 + (id * 5 + left) % 11),
                       [&s, id, left] { callbackChain(s, id, left - 1); });
}

sim::Task
calendarLoad(sim::Simulator &s, sim::CalendarResource &cal,
             std::uint32_t bytes, int n, Tick gap)
{
    for (int i = 0; i < n; ++i) {
        g_sink = g_sink + cal.reserveAt(s.now(), bytes);
        if (i % 32 == 31)
            co_await s.delay(gap);
    }
    co_return;
}

sim::Task
pingPong(mem::CoherentSystem &m, mem::AgentId a, mem::AgentId b,
         mem::Addr base, std::uint64_t lines, int n)
{
    for (int i = 0; i < n; ++i) {
        const mem::Addr line =
            base + (static_cast<mem::Addr>(i) % lines) * 64;
        co_await m.store(a, line, 64);
        co_await m.load(b, line, 64);
    }
    co_return;
}

/** Lines a workload's buffers cycle through (see README.md). */
std::uint64_t
footprintLines(const WorkloadSpec &spec)
{
    if (spec.kv) {
        sim::Rng rng(1);
        const auto sizes = ccn::workload::SizeDist::ads();
        double sum = 0;
        for (int i = 0; i < 10000; ++i)
            sum += sizes.sample(rng);
        return 65536ULL *
               static_cast<std::uint64_t>(std::ceil(sum / 10000 / 64));
    }
    const std::uint64_t ring =
        ccn::ccnic::optimizedConfig(spec.threads, 0, spec.plat)
            .ringEntries;
    return static_cast<std::uint64_t>(spec.threads) * 2 * ring *
           ((spec.pktSize + 63) / 64);
}

} // namespace

ProbeResults
runProbes(const WorkloadSpec &spec, HostSpans &spans)
{
    ProbeResults p;
    const mem::PlatformConfig &plat = spec.plat;
    p.footprintLines = footprintLines(spec);

    {
        HostSpans::Scope scope(spans, "probe.sim_kernel");
        // One host thread plus TX, RX and heartbeat engines per queue.
        const int queues = spec.kv ? 4 + 2 : spec.threads;
        p.kernelTasks = 4 * queues;
        p.kernelNsPerEvent = medianOf([&] {
            sim::Simulator s;
            const int hops = 400000 / p.kernelTasks;
            for (int t = 0; t < p.kernelTasks; ++t) {
                if (t % 2 == 0)
                    s.spawn(resumeLoop(s, t, hops));
                else
                    callbackChain(s, t, hops);
            }
            const double h0 = hostNow();
            s.run();
            return (hostNow() - h0) * 1e9 /
                   static_cast<double>(s.eventsExecuted());
        });
    }
    {
        HostSpans::Scope scope(spans, "probe.calendar");
        // Interconnect data messages offered at ~90% of the rate.
        const std::uint32_t bytes = plat.dataMsgBytes;
        const Tick gap = static_cast<Tick>(
            32.0 * bytes / plat.upiRawBw * sim::kSecond / 0.9);
        const int n = 400000;
        p.calendarReserveNs = medianOf([&] {
            sim::Simulator s;
            sim::CalendarResource cal(s, plat.upiRawBw);
            s.spawn(calendarLoad(s, cal, bytes, n, gap));
            const double h0 = hostNow();
            s.run();
            return (hostNow() - h0) * 1e9 / n;
        });
    }
    {
        HostSpans::Scope scope(spans, "probe.cache_ctor");
        p.cacheCtorMs = medianOf([&] {
            const double h0 = hostNow();
            mem::SetAssocCache l2(plat.l2Lines, plat.l2Ways);
            mem::SetAssocCache llc(plat.llcLines, plat.llcWays);
            const double dt = hostNow() - h0;
            g_sink = g_sink + l2.numSets() + llc.numSets();
            return dt * 1e3;
        });
    }
    {
        HostSpans::Scope scope(spans, "probe.cache_touch");
        const std::uint64_t steps =
            std::max<std::uint64_t>(p.footprintLines, 1000000);
        mem::SetAssocCache c(plat.l2Lines, plat.l2Ways);
        std::uint64_t pos = 0;
        auto step = [&] {
            const mem::Addr line = (pos++ % p.footprintLines) * 64;
            mem::Eviction ev;
            if (!c.touch(line))
                c.insert(line, mem::LineState::Shared, false, &ev);
            g_sink = g_sink + (c.find(line) != nullptr);
        };
        for (std::uint64_t i = 0; i < p.footprintLines; ++i)
            step(); // Warm: a footprint that fits is resident after this.
        p.cacheTouchNs = medianOf([&] {
            const double h0 = hostNow();
            for (std::uint64_t i = 0; i < steps / kTrials; ++i)
                step();
            return (hostNow() - h0) * 1e9 /
                   static_cast<double>(steps / kTrials);
        });
    }
    {
        HostSpans::Scope scope(spans, "probe.coherent_op");
        // Store on socket 0, load on socket 1, over the workload's
        // footprint (capped) so directory and cache sizes match.
        const std::uint64_t lines =
            std::min<std::uint64_t>(p.footprintLines, 1 << 16);
        const int n = 50000;
        double events = 0;
        p.coherentOpNs = medianOf([&] {
            sim::Simulator s;
            mem::CoherentSystem m(s, plat);
            const mem::AgentId a = m.addAgent(0);
            const mem::AgentId b = m.addAgent(1);
            const mem::Addr base = m.alloc(0, lines * 64, 64);
            s.spawn(pingPong(m, a, b, base, lines, n));
            const double h0 = hostNow();
            s.run();
            const double dt = hostNow() - h0;
            events = static_cast<double>(s.eventsExecuted());
            return dt * 1e9 / (2.0 * n);
        });
        p.coherentOpEventsPerOp = events / (2.0 * n);
    }
    {
        HostSpans::Scope scope(spans, "probe.slot_crc");
        sim::Simulator s;
        mem::CoherentSystem m(s, plat);
        ccn::driver::DescRing ring(m, 1, 512,
                                   ccn::driver::RingLayout::Grouped);
        std::vector<ccn::driver::PacketBuf> bufs(512);
        const int n = 200000;
        p.slotCrcNs = medianOf([&] {
            std::uint64_t ok = 0;
            const double h0 = hostNow();
            for (int i = 0; i < n / kTrials; ++i) {
                const auto idx = static_cast<std::uint32_t>(i);
                auto &slot = ring.slot(idx);
                slot.buf = &bufs[idx % bufs.size()];
                slot.len = 64 + idx % 1400;
                slot.meta = idx;
                ring.stampSlot(idx);
                ok += ring.slotValid(idx);
            }
            const double dt = hostNow() - h0;
            g_sink = g_sink + ok;
            return dt * 1e9 / (n / kTrials);
        });
    }
    {
        HostSpans::Scope scope(spans, "probe.wire_fcs");
        ccn::ccnic::WirePacket pkt;
        pkt.len = spec.kv ? 64 : spec.pktSize;
        const int n = 200000;
        p.wireFcsNs = medianOf([&] {
            std::uint64_t acc = 0;
            const double h0 = hostNow();
            for (int i = 0; i < n / kTrials; ++i) {
                pkt.userData = static_cast<std::uint64_t>(i);
                acc += ccn::ccnic::wireFcs(pkt);
            }
            const double dt = hostNow() - h0;
            g_sink = g_sink + acc;
            return dt * 1e9 / (n / kTrials);
        });
    }
    return p;
}

} // namespace perfbench
