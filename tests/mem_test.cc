/**
 * @file
 * Tests for the coherent memory system, including the calibration
 * checks that tie the model to the paper's Figure 7 latencies and the
 * protocol behaviours (invalidation signaling, evictions, prefetch,
 * counters) the CC-NIC design depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/platform.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "workload/chaos.hh"

namespace {

using namespace ccn;
using mem::Addr;
using mem::AgentId;
using mem::CoherentSystem;
using mem::kLineBytes;
using sim::Tick;

/** Run an async test body to completion on a fresh simulator. */
sim::Task
runBody(std::function<sim::Coro<void>()> body, bool &done)
{
    co_await body();
    done = true;
}

struct MemFixture
{
    explicit MemFixture(const mem::PlatformConfig &cfg)
        : system(simv, cfg)
    {
        reader0 = system.addAgent(0);  // "host" core, socket 0.
        writer0 = system.addAgent(0);  // another socket-0 core.
        writer1 = system.addAgent(1);  // remote ("NIC") core.
    }

    void
    run(std::function<sim::Coro<void>()> body)
    {
        bool done = false;
        simv.spawn(runBody(std::move(body), done));
        simv.run();
        ASSERT_TRUE(done) << "test body deadlocked";
    }

    sim::Simulator simv;
    CoherentSystem system;
    AgentId reader0 = -1, writer0 = -1, writer1 = -1;
};

double
nsBetween(Tick a, Tick b)
{
    return sim::toNs(b - a);
}

/** Measure the five Figure 7 access cases; tolerance is ±8%. */
void
checkFig7(const mem::PlatformConfig &cfg, double l_dram, double r_dram,
          double l_l2, double r_l2_rh, double r_l2_lh)
{
    MemFixture f(cfg);
    auto &m = f.system;
    double meas[5] = {0, 0, 0, 0, 0};

    f.run([&]() -> sim::Coro<void> {
        // Local DRAM: untouched line homed on the reader's socket.
        Addr a = m.alloc(0, kLineBytes);
        Tick t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[0] = nsBetween(t0, f.simv.now());

        // Remote DRAM: untouched line homed on the remote socket.
        a = m.alloc(1, kLineBytes);
        t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[1] = nsBetween(t0, f.simv.now());

        // Local L2: another same-socket core holds the line Modified.
        a = m.alloc(0, kLineBytes);
        co_await m.store(f.writer0, a, 8);
        co_await f.simv.delay(sim::fromUs(1.0));
        t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[2] = nsBetween(t0, f.simv.now());

        // Remote L2, writer-homed (rh): remote core modified a line
        // homed on its own socket.
        a = m.alloc(1, kLineBytes);
        co_await m.store(f.writer1, a, 8);
        co_await f.simv.delay(sim::fromUs(1.0));
        t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[3] = nsBetween(t0, f.simv.now());

        // Remote L2, reader-homed (lh): remote core modified a line
        // homed on the reader's socket; the reader's miss triggers a
        // speculative memory read.
        a = m.alloc(0, kLineBytes);
        co_await m.store(f.writer1, a, 8);
        co_await f.simv.delay(sim::fromUs(1.0));
        t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        meas[4] = nsBetween(t0, f.simv.now());
        co_return;
    });

    const double targets[5] = {l_dram, r_dram, l_l2, r_l2_rh, r_l2_lh};
    const char *names[5] = {"L DRAM", "R DRAM", "L L2", "R L2 (rh)",
                            "R L2 (lh)"};
    for (int i = 0; i < 5; ++i) {
        EXPECT_NEAR(meas[i], targets[i], targets[i] * 0.08)
            << cfg.name << " " << names[i];
    }
    // Orderings the paper calls out: remote DRAM ~2x local DRAM;
    // remote L2 faster than remote DRAM; reader-homed slower than
    // writer-homed.
    EXPECT_GT(meas[1], meas[0] * 1.7);
    EXPECT_LT(meas[3], meas[1]);
    EXPECT_GT(meas[4], meas[3]);
}

TEST(Fig7Calibration, Icx)
{
    checkFig7(mem::icxConfig(), 72, 144, 48, 114, 119);
}

TEST(Fig7Calibration, Spr)
{
    checkFig7(mem::sprConfig(), 108, 191, 82, 171, 174);
}

TEST(Coherence, ExclusiveUpgradeIsLocal)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.load(f.reader0, a, 8); // E state.
        Tick t0 = f.simv.now();
        co_await m.store(f.reader0, a, 8); // E->M silently.
        EXPECT_LE(nsBetween(t0, f.simv.now()), 5.0);
        co_return;
    });
    EXPECT_EQ(m.counters(f.reader0).remoteRfos, 0u);
}

TEST(Coherence, StoreInvalidatesRemoteSharer)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.load(f.reader0, a, 8);  // local E.
        co_await m.load(f.writer1, a, 8);  // remote S (downgrades).
        std::uint32_t v0 = m.lineVersion(a);
        co_await m.store(f.reader0, a, 8); // upgrade, invalidate remote.
        EXPECT_NE(m.lineVersion(a), v0);
        // The remote reader now misses and must fetch across sockets.
        auto before = m.counters(f.writer1).remoteReads;
        co_await m.load(f.writer1, a, 8);
        EXPECT_EQ(m.counters(f.writer1).remoteReads, before + 1);
        co_return;
    });
    // The upgrading store crossed the interconnect to invalidate.
    EXPECT_GE(m.counters(f.reader0).remoteRfos, 1u);
}

TEST(Coherence, WaitLineChangeWakesOnWrite)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    Addr a = m.alloc(0, kLineBytes);
    Tick woke_at = 0;
    bool woke = false;

    struct Waiter
    {
        static sim::Task
        run(MemFixture &f, CoherentSystem &m, Addr a, bool &woke,
            Tick &woke_at)
        {
            co_await m.load(f.writer1, a, 8);
            std::uint32_t v = m.lineVersion(a);
            co_await m.waitLineChange(a, v);
            woke = true;
            woke_at = f.simv.now();
        }
    };
    struct Writer
    {
        static sim::Task
        run(MemFixture &f, CoherentSystem &m, Addr a)
        {
            co_await f.simv.delay(sim::fromUs(1.0));
            co_await m.store(f.reader0, a, 8);
        }
    };
    f.simv.spawn(Waiter::run(f, m, a, woke, woke_at));
    f.simv.spawn(Writer::run(f, m, a));
    f.simv.run();
    EXPECT_TRUE(woke);
    // Wakes at write completion, at or after the store began.
    EXPECT_GE(woke_at, sim::fromUs(1.0));
    EXPECT_LT(woke_at, sim::fromUs(2.0));
}

TEST(Coherence, WaitLineChangeReturnsImmediatelyOnStaleVersion)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        std::uint32_t v = m.lineVersion(a);
        co_await m.store(f.reader0, a, 8);
        Tick t0 = f.simv.now();
        co_await m.waitLineChange(a, v); // version already moved.
        EXPECT_EQ(f.simv.now(), t0);
        co_return;
    });
}

TEST(Coherence, L2EvictionFallsBackToLlc)
{
    auto cfg = mem::icxConfig();
    MemFixture f(cfg);
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        // Fill one L2 set past associativity with same-set lines.
        const std::uint64_t set_stride =
            static_cast<std::uint64_t>(kLineBytes) *
            (cfg.l2Lines / cfg.l2Ways < 1024 ? 1024 : 1024);
        Addr base = m.alloc(0, set_stride * (cfg.l2Ways + 4), 1 << 20);
        for (std::uint32_t i = 0; i < cfg.l2Ways + 2; ++i)
            co_await m.store(f.reader0, base + i * set_stride, 8);
        // The first line was evicted (dirty) into the LLC; re-reading
        // it is an LLC hit, much faster than DRAM.
        auto llc_before = m.counters(f.reader0).llcHits;
        Tick t0 = f.simv.now();
        co_await m.load(f.reader0, base, 8);
        EXPECT_EQ(m.counters(f.reader0).llcHits, llc_before + 1);
        EXPECT_LT(nsBetween(t0, f.simv.now()), 45.0);
        co_return;
    });
}

TEST(Coherence, PrefetcherStreamsAndCanBeDisabled)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, 64 * kLineBytes);
        for (int i = 0; i < 16; ++i)
            co_await m.load(f.reader0, a + i * kLineBytes, 8);
        EXPECT_GT(m.counters(f.reader0).prefetchIssued, 8u);
        // Prefetched lines satisfy later demand loads.
        EXPECT_GT(m.counters(f.reader0).l2Hits, 6u);

        m.setPrefetch(0, false);
        auto issued = m.counters(f.reader0).prefetchIssued;
        Addr b = m.alloc(0, 64 * kLineBytes);
        for (int i = 0; i < 16; ++i)
            co_await m.load(f.reader0, b + i * kLineBytes, 8);
        EXPECT_EQ(m.counters(f.reader0).prefetchIssued, issued);
        co_return;
    });
}

TEST(Coherence, NtStoreBypassesCachesAndInvalidates)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(1, kLineBytes); // homed remote.
        co_await m.load(f.writer1, a, 8); // remote core caches it.
        std::uint32_t v = m.lineVersion(a);
        co_await m.ntStoreRange(f.reader0, a, kLineBytes);
        EXPECT_NE(m.lineVersion(a), v);
        // Data is in home DRAM only: remote core's reload is a miss
        // that goes to its local DRAM, not a cache hit.
        auto dram_before = m.counters(f.writer1).dramReads;
        co_await m.load(f.writer1, a, 8);
        EXPECT_EQ(m.counters(f.writer1).dramReads, dram_before + 1);
        co_return;
    });
}

TEST(Coherence, FlushWritesBackAndInvalidates)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.store(f.reader0, a, 8);
        co_await m.flush(f.reader0, a, kLineBytes);
        // Reload comes from DRAM.
        auto dram_before = m.counters(f.reader0).dramReads;
        co_await m.load(f.reader0, a, 8);
        EXPECT_EQ(m.counters(f.reader0).dramReads, dram_before + 1);
        co_return;
    });
}

TEST(Coherence, RangeOverlapBeatsSerialAccess)
{
    MemFixture f(mem::sprConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        // 24 lines (a 1.5KB packet) from remote cache: overlapped
        // fetch must be much faster than 24 serial remote latencies.
        const std::uint32_t n = 24;
        const std::vector<CoherentSystem::Span> range{
            {m.alloc(1, n * kLineBytes), n * kLineBytes}};
        co_await m.accessMulti(f.writer1, range, true);
        Tick t0 = f.simv.now();
        co_await m.accessMulti(f.reader0, range, false);
        const double ns = nsBetween(t0, f.simv.now());
        EXPECT_LT(ns, 24 * 171.0 * 0.5);
        EXPECT_GT(ns, 171.0); // But not faster than one access.
        co_return;
    });
}

TEST(Coherence, AtomicRmwGainsOwnership)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.load(f.writer1, a, 8);
        co_await m.atomicRmw(f.reader0, a);
        // Remote copy is gone; writer1 reload crosses the socket.
        auto before = m.counters(f.writer1).remoteReads;
        co_await m.load(f.writer1, a, 8);
        EXPECT_EQ(m.counters(f.writer1).remoteReads, before + 1);
        co_return;
    });
}

TEST(Coherence, CountersTrackRemoteTraffic)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(1, 4 * kLineBytes);
        // Four demand remote DRAM reads.
        for (int i = 0; i < 4; ++i)
            co_await m.load(f.reader0, a + i * kLineBytes, 8);
        co_return;
    });
    const auto &c = m.counters(f.reader0);
    // Demand remote reads plus possibly prefetch traffic; demand count
    // must be exact.
    EXPECT_EQ(c.remoteReads + c.prefetchRemote >= 4, true);
    EXPECT_EQ(c.loads, 4u);
    EXPECT_EQ(m.upiBytesInto(0) > 0, true);
}

TEST(Coherence, DropCachesForcesMisses)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        co_await m.load(f.reader0, a, 8);
        m.dropCaches();
        auto miss_before = m.counters(f.reader0).l2Misses;
        co_await m.load(f.reader0, a, 8);
        EXPECT_EQ(m.counters(f.reader0).l2Misses, miss_before + 1);
        co_return;
    });
}

TEST(Coherence, AllocRespectsHomingAndAlignment)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    Addr a0 = m.alloc(0, 100, 64);
    Addr a1 = m.alloc(1, 100, 4096);
    EXPECT_EQ(mem::homeSocket(a0), 0);
    EXPECT_EQ(mem::homeSocket(a1), 1);
    EXPECT_EQ(a1 % 4096, 0u);
    EXPECT_NE(mem::lineOf(a0), mem::lineOf(m.alloc(0, 1, 64)));
}

TEST(Coherence, DeterministicReplay)
{
    auto run_once = [] {
        MemFixture f(mem::sprConfig());
        auto &m = f.system;
        f.run([&]() -> sim::Coro<void> {
            const std::vector<CoherentSystem::Span> range{
                {m.alloc(0, 256 * kLineBytes), 256 * kLineBytes}};
            for (int rep = 0; rep < 3; ++rep) {
                co_await m.accessMulti(f.writer1, range, true);
                co_await m.accessMulti(f.reader0, range, false);
            }
            co_return;
        });
        return f.simv.now();
    };
    EXPECT_EQ(run_once(), run_once());
}

/** FNV-1a over the bytes of 64-bit words. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/**
 * From @p at, wait for @p line to change from the version seen then
 * (untimed when @p deadline is 0); record the wake tick and version.
 */
sim::Task
waitFrom(CoherentSystem &m, sim::Simulator &simv, Addr line, Tick at,
         Tick deadline, std::vector<Tick> &out)
{
    co_await simv.delayUntil(at);
    const std::uint32_t v = m.lineVersion(line);
    if (deadline == 0)
        co_await m.waitLineChange(line, v);
    else
        co_await m.waitLineChangeUntil(line, v, deadline);
    out.push_back(simv.now());
    out.push_back(m.lineVersion(line));
}

/**
 * Run a fixed then a seeded mixed sequence of demand, range, posted,
 * NT, flush, DMA, signaling and fault operations on @p cfg, and digest
 * every completion tick, waiter wake, counter, telemetry value, UPI
 * byte count and line version.
 */
std::uint64_t
memTimingDigest(const mem::PlatformConfig &cfg)
{
    MemFixture f(cfg);
    auto &m = f.system;
    auto &simv = f.simv;
    constexpr std::uint64_t kRegionLines = 256;
    const Addr local = m.alloc(0, kRegionLines * kLineBytes);
    const Addr remote = m.alloc(1, kRegionLines * kLineBytes);
    Fnv1a fnv;
    std::vector<Tick> async; // Waiter wakes and posted completions.
    auto posted = [&async, &simv] { async.push_back(simv.now()); };
    const auto L = [](std::uint64_t n) { return n * kLineBytes; };

    f.run([&]() -> sim::Coro<void> {
        auto done = [&] { fnv.add(simv.now()); };
        std::vector<CoherentSystem::Span> spans;

        // Zero-byte inputs, and zero-byte spans among others.
        co_await m.load(f.reader0, local + 8, 0);
        done();
        co_await m.store(f.writer1, local + 72, 0);
        done();
        co_await m.ntStoreRange(f.reader0, remote + 4, 0);
        done();
        co_await m.flush(f.writer0, local + 8, 0);
        done();
        spans = {{local + 100, 0}, {remote + 40, 30}, {local, 0}};
        co_await m.accessMulti(f.reader0, spans, false);
        done();
        spans = {{local + 130, 0}};
        co_await m.accessMulti(f.writer1, spans, true);
        done();
        spans = {{local + 300, 0}, {local + 320, 20}};
        co_await m.postMulti(f.writer0, spans, posted);
        done();

        // Wider than the MSHR window.
        co_await m.load(f.reader0, remote + 10, L(20));
        done();
        co_await m.store(f.writer0, remote + L(24), L(20));
        done();

        // Line-crossing spans; multi-span reads and writes.
        co_await m.load(f.writer1, local + 60, 8);
        done();
        co_await m.store(f.reader0, local + L(2) - 4, 8);
        done();
        spans = {{local + 30, 100}, {remote + 200, 700},
                 {local + 1000, 64}};
        co_await m.accessMulti(f.reader0, spans, false);
        done();
        spans = {{local + 30, 100}, {remote + L(24) + 5, 900}};
        co_await m.accessMulti(f.writer1, spans, true);
        done();

        // Posted stores past the store buffer: admission waits.
        for (std::uint64_t i = 0; i < 4; ++i) {
            spans = {{local + L(64 + 24 * i), 24 * kLineBytes},
                     {remote + 8, 16}};
            co_await m.postMulti(f.writer1, spans, posted);
            done();
        }

        // NT stores past their window, both directions.
        co_await m.ntStoreRange(f.reader0, remote + L(64), L(30));
        done();
        co_await m.ntStoreRange(f.writer1, local + L(200) + 7, L(12));
        done();

        // Pollers woken by a one-range write's publish: two wait on the
        // gate before it, two arrive after its walk, one times out. The
        // writer owns pub + L(2), so that line completes long before
        // the publish.
        const Addr pub = local + L(170);
        co_await m.store(f.writer0, pub + L(2), 8);
        done();
        const Tick t0 = simv.now();
        const Tick until = t0 + sim::fromUs(5.0);
        simv.spawn(waitFrom(m, simv, pub, t0, 0, async));
        simv.spawn(waitFrom(m, simv, pub + L(3), t0, until, async));
        simv.spawn(waitFrom(m, simv, pub + L(2), t0 + 2, 0, async));
        simv.spawn(waitFrom(m, simv, pub + L(5), t0 + 2, until, async));
        simv.spawn(waitFrom(m, simv, pub + L(9), t0,
                            t0 + sim::fromNs(300.0), async));
        co_await simv.delay(1);
        spans = {{pub, 8 * kLineBytes}};
        co_await m.accessMulti(f.writer0, spans, true);
        done();

        // The same for a posted write's publish.
        co_await m.store(f.writer1, pub + L(22), 8);
        done();
        simv.spawn(waitFrom(m, simv, pub + L(22), simv.now() + 2, 0, async));
        co_await simv.delay(1);
        spans = {{pub + L(20), 6 * kLineBytes}};
        co_await m.postMulti(f.writer1, spans, posted);
        done();

        // A stuck invalidation, followed past its expiry.
        const Addr stuck = local + L(180);
        m.injectStuck(stuck, sim::fromUs(2.0));
        simv.spawn(waitFrom(m, simv, stuck, simv.now(), 0, async));
        simv.spawn(waitFrom(m, simv, stuck, simv.now(),
                            simv.now() + sim::fromUs(1.0), async));
        co_await m.store(f.writer1, stuck, 8);
        done();
        fnv.add(m.lineVersion(stuck));
        fnv.add(m.rangeStale(stuck - 4, 8));
        co_await simv.delay(sim::fromUs(2.5));
        fnv.add(m.lineVersion(stuck));
        fnv.add(m.rangeStale(stuck - 4, 8));
        co_await m.store(f.writer1, stuck, 8);
        done();

        // A brownout, followed past its expiry.
        m.injectBrownout(f.reader0, 3.0, sim::fromUs(2.0));
        co_await m.load(f.reader0, remote + L(100), L(4));
        done();
        spans = {{remote + L(110), 6 * kLineBytes}};
        co_await m.accessMulti(f.reader0, spans, true);
        done();
        co_await simv.delay(sim::fromUs(2.5));
        co_await m.load(f.reader0, remote + L(120), L(4));
        done();

        // Poison and torn windows, queried across lines.
        m.injectPoison(local + L(64), sim::fromNs(500.0));
        m.injectTorn(local + L(65), sim::fromNs(500.0));
        fnv.add(m.rangePoisoned(local + L(63) + 10, 100));
        fnv.add(m.rangeStale(local + L(64) + 60, 8));

        // Device-side DMA reads and DDIO writes.
        fnv.add(m.dmaRead(0, local + 5, 300, simv.now()));
        fnv.add(m.dmaRead(1, remote + L(64), 0, simv.now()));
        fnv.add(m.ddioWrite(0, local + L(170) + 9, 200, simv.now()));
        fnv.add(m.ddioWrite(1, remote + 3, 0, simv.now()));

        // Seeded mix.
        sim::Rng rng(0x5eedULL);
        const std::array<AgentId, 3> agents{f.reader0, f.writer0,
                                            f.writer1};
        for (int i = 0; i < 400; ++i) {
            const AgentId ag = agents[rng.below(3)];
            const Addr base = rng.below(2) ? remote : local;
            const Addr addr = base + rng.below(L(200));
            const std::uint32_t bytes =
                rng.below(4) == 0
                    ? 0
                    : static_cast<std::uint32_t>(rng.below(L(24))) + 1;
            const Addr other = base + rng.below(L(200));
            const std::uint32_t other_bytes =
                static_cast<std::uint32_t>(rng.below(L(2)));
            spans = {{addr, bytes}, {other, other_bytes}};
            switch (rng.below(9)) {
              case 0:
                co_await m.load(ag, addr, bytes);
                break;
              case 1:
                co_await m.store(ag, addr, bytes);
                break;
              case 2:
                co_await m.accessMulti(ag, spans, false);
                break;
              case 3:
                co_await m.accessMulti(ag, spans, true);
                break;
              case 4:
                co_await m.postMulti(ag, spans, posted);
                break;
              case 5:
                co_await m.ntStoreRange(ag, addr, bytes);
                break;
              case 6:
                co_await m.flush(ag, addr, bytes);
                break;
              case 7:
                co_await m.atomicRmw(ag, addr);
                break;
              default:
                m.touchLine(ag, addr);
                co_await simv.delay(rng.below(sim::fromNs(200.0)));
                break;
            }
            done();
        }
        co_return;
    });

    for (Tick t : async)
        fnv.add(t);
    for (AgentId a = 0; a < m.numAgents(); ++a) {
        const auto &c = m.counters(a);
        for (std::uint64_t v :
             {c.loads, c.stores, c.l2Hits, c.l2Misses, c.llcHits,
              c.dramReads, c.remoteReads, c.remoteRfos, c.prefetchIssued,
              c.prefetchRemote})
            fnv.add(v);
    }
    const auto &t = m.telemetry();
    for (const obs::Counter *c :
         {&t.remoteReads, &t.remoteRfos, &t.migratoryHandoffs, &t.llcHits,
          &t.dramReads, &t.invalidations, &t.ddioWrites, &t.poisonInjected,
          &t.poisonReads, &t.tornInjected, &t.tornStaleReads,
          &t.stuckInjected, &t.brownouts, &t.brownoutStretchedOps})
        fnv.add(c->value());
    fnv.add(m.upiBytesInto(0));
    fnv.add(m.upiBytesInto(1));
    for (std::uint64_t i = 0; i < kRegionLines; ++i) {
        fnv.add(m.lineVersion(local + L(i)));
        fnv.add(m.lineVersion(remote + L(i)));
    }
    fnv.add(simv.now());
    fnv.add(simv.eventsExecuted());
    return fnv.h;
}

/**
 * Pins the modeled timing of every demand-operation entry point: the
 * constants were measured before the entry points were folded onto
 * one line-walk pipeline, and any change to issue windows, zero-byte
 * rules, publish holds or fault handling moves them.
 */
TEST(Coherence, TimingDigestIsPinned)
{
    const std::uint64_t icx = memTimingDigest(mem::icxConfig());
    const std::uint64_t spr = memTimingDigest(mem::sprConfig());
    EXPECT_EQ(icx, 0x281c0b9011928e75ULL) << std::hex << "icx 0x" << icx;
    EXPECT_EQ(spr, 0x3096e3ac3efef3eeULL) << std::hex << "spr 0x" << spr;
}

/**
 * Pingpong shape check (Figure 8): co-locating the two signal words on
 * one cache line must beat separate lines by the paper's 1.7-2.4x.
 */
double
pingpongNs(CoherentSystem &m, sim::Simulator &simv, AgentId ping_agent,
           AgentId pong_agent, Addr r1, Addr r2, int rounds)
{
    struct State
    {
        std::uint64_t ping = 0, pong = 0;
        Tick start = 0;
        std::vector<Tick> rtts;
    };
    State st;

    struct Ping
    {
        static sim::Task
        run(CoherentSystem &m, sim::Simulator &simv, AgentId a, Addr r1,
            Addr r2, int rounds, State &st)
        {
            for (int i = 1; i <= rounds; ++i) {
                st.start = simv.now();
                co_await m.store(a, r1, 8);
                // Logical visibility follows physical completion: the
                // value is published once the store's coherence
                // transaction is done.
                st.ping = static_cast<std::uint64_t>(i);
                for (;;) {
                    co_await m.load(a, r2, 8);
                    if (st.pong == static_cast<std::uint64_t>(i))
                        break;
                    co_await m.waitLineChange(mem::lineOf(r2),
                                              m.lineVersion(r2));
                }
                st.rtts.push_back(simv.now() - st.start);
            }
        }
    };
    struct Pong
    {
        static sim::Task
        run(CoherentSystem &m, AgentId a, Addr r1, Addr r2, int rounds,
            State &st)
        {
            for (int i = 1; i <= rounds; ++i) {
                for (;;) {
                    co_await m.load(a, r1, 8);
                    if (st.ping == static_cast<std::uint64_t>(i))
                        break;
                    co_await m.waitLineChange(mem::lineOf(r1),
                                              m.lineVersion(r1));
                }
                co_await m.store(a, r2, 8);
                st.pong = static_cast<std::uint64_t>(i);
            }
        }
    };
    simv.spawn(Ping::run(m, simv, ping_agent, r1, r2, rounds, st));
    simv.spawn(Pong::run(m, pong_agent, r1, r2, rounds, st));
    simv.run();
    // Median round trip.
    std::sort(st.rtts.begin(), st.rtts.end());
    return sim::toNs(st.rtts[st.rtts.size() / 2]);
}

TEST(FaultInjection, PoisonVisibleExactlyDuringWindow)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, 2 * kLineBytes);
        Addr other = a + kLineBytes;

        // Zero-cost path: nothing armed, queries are free and false.
        EXPECT_FALSE(m.faultsArmed());
        EXPECT_FALSE(m.rangePoisoned(a, kLineBytes));

        const Tick hold = sim::fromUs(2.0);
        const Tick t0 = f.simv.now();
        m.injectPoison(a, hold);
        EXPECT_TRUE(m.faultsArmed());
        EXPECT_EQ(m.telemetry().poisonInjected.value(), 1u);

        // The scheduled reader (inside the window) observes poison;
        // the neighbouring line never does.
        EXPECT_TRUE(m.rangePoisoned(a, 8));
        EXPECT_FALSE(m.rangePoisoned(other, 8));
        co_await f.simv.delayUntil(t0 + hold - 1);
        EXPECT_TRUE(m.rangePoisoned(a, kLineBytes));
        EXPECT_EQ(m.telemetry().poisonReads.value(), 2u);

        // One tick past the window the line reads clean again, and
        // observations stop counting.
        co_await f.simv.delayUntil(t0 + hold);
        EXPECT_FALSE(m.rangePoisoned(a, kLineBytes));
        EXPECT_EQ(m.telemetry().poisonReads.value(), 2u);
        co_return;
    });
}

TEST(FaultInjection, TornWindowBounded)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        const Tick hold = sim::fromUs(1.0);
        const Tick t0 = f.simv.now();
        m.injectTorn(a, hold);
        EXPECT_EQ(m.telemetry().tornInjected.value(), 1u);

        // Stale exactly while the window is open — a validating
        // consumer rejects the slot — and clean the tick it closes.
        EXPECT_TRUE(m.rangeStale(a, kLineBytes));
        co_await f.simv.delayUntil(t0 + hold - 1);
        EXPECT_TRUE(m.rangeStale(a, 8));
        co_await f.simv.delayUntil(t0 + hold);
        EXPECT_FALSE(m.rangeStale(a, kLineBytes));

        // Torn lines are stale, not poisoned: the poison query never
        // fires for them.
        EXPECT_EQ(m.telemetry().poisonReads.value(), 0u);
        co_return;
    });
}

TEST(FaultInjection, StuckLineHoldsVersionUntilWindowCloses)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        const std::uint32_t v0 = m.lineVersion(a);

        const Tick hold = sim::fromUs(5.0);
        const Tick t0 = f.simv.now();
        m.injectStuck(a, hold);
        EXPECT_EQ(m.telemetry().stuckInjected.value(), 1u);

        // A write lands during the window, but the stuck invalidation
        // keeps pollers on the held version: the line looks unchanged
        // (and stale) until the window expires.
        co_await m.store(f.writer1, a, 8);
        EXPECT_EQ(m.lineVersion(a), v0);
        EXPECT_TRUE(m.rangeStale(a, kLineBytes));

        co_await f.simv.delayUntil(t0 + hold + 1);
        EXPECT_GT(m.lineVersion(a), v0);
        EXPECT_FALSE(m.rangeStale(a, kLineBytes));
        co_return;
    });
}

TEST(FaultInjection, BrownoutStretchesOnlyTargetAgentOps)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    f.run([&]() -> sim::Coro<void> {
        Addr a = m.alloc(0, kLineBytes);
        Addr b = m.alloc(0, kLineBytes);

        // Baseline: a local-DRAM load with no fault armed.
        Tick t0 = f.simv.now();
        co_await m.load(f.reader0, a, 8);
        const Tick clean = f.simv.now() - t0;

        m.injectBrownout(f.reader0, 4.0, sim::fromUs(50.0));
        EXPECT_EQ(m.telemetry().brownouts.value(), 1u);

        // The browned-out agent's ops stretch by ~the factor...
        t0 = f.simv.now();
        co_await m.load(f.reader0, b, 8);
        const Tick stretched = f.simv.now() - t0;
        EXPECT_GE(stretched, 3 * clean);
        EXPECT_GT(m.telemetry().brownoutStretchedOps.value(), 0u);

        // ...while another agent on the same socket is untouched.
        Addr c = m.alloc(0, kLineBytes);
        t0 = f.simv.now();
        co_await m.load(f.writer0, c, 8);
        EXPECT_LT(f.simv.now() - t0, 2 * clean);
        co_return;
    });
}

TEST(FaultInjection, ScheduleIsSeedDeterministic)
{
    // Same seed, same config → bit-identical injection schedules;
    // a different seed must actually move events. (The schedule is
    // the only source of randomness in a chaos run, so this is the
    // reproducibility guarantee for failing runs.)
    auto events_for = [](std::uint64_t seed) {
        sim::Simulator simv;
        workload::ChaosConfig cfg;
        cfg.seed = seed;
        cfg.start = sim::fromUs(10.0);
        cfg.end = sim::fromUs(400.0);
        cfg.poisons = 4;
        cfg.torns = 3;
        cfg.stuckLines = 2;
        cfg.brownouts = 2;
        workload::ChaosSchedule s(simv, cfg, {});
        return s.events();
    };

    const auto a = events_for(0xfeedULL);
    const auto b = events_for(0xfeedULL);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 3u + 2u + 2u + 4u + 3u + 2u + 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at) << i;
        EXPECT_EQ(static_cast<int>(a[i].kind),
                  static_cast<int>(b[i].kind))
            << i;
    }

    const auto c = events_for(0xbeefULL);
    bool any_moved = false;
    for (std::size_t i = 0; i < a.size() && !any_moved; ++i)
        any_moved = a[i].at != c[i].at;
    EXPECT_TRUE(any_moved) << "seed change did not move any event";
}

TEST(Fig8Shape, ColocationBeatsSeparateLines)
{
    auto cfg = mem::icxConfig();
    double separate_ns = 0, colocated_ns = 0;
    {
        MemFixture f(cfg);
        Addr r1 = f.system.alloc(0, kLineBytes);
        Addr r2 = f.system.alloc(0, kLineBytes);
        separate_ns =
            pingpongNs(f.system, f.simv, f.reader0, f.writer1, r1, r2, 51);
    }
    {
        MemFixture f(cfg);
        Addr line = f.system.alloc(0, kLineBytes);
        colocated_ns = pingpongNs(f.system, f.simv, f.reader0, f.writer1,
                                  line, line + 8, 51);
    }
    const double ratio = separate_ns / colocated_ns;
    EXPECT_GE(ratio, 1.5) << "separate=" << separate_ns
                          << " colocated=" << colocated_ns;
    EXPECT_LE(ratio, 2.6) << "separate=" << separate_ns
                          << " colocated=" << colocated_ns;
}

// ---------------------------------------------------------------------
// SetAssocCache: tags kept apart from per-way state.
// ---------------------------------------------------------------------

using mem::LineState;
using mem::SetAssocCache;

TEST(SetAssocCache, EvictionReportsVictimLineStateAndDirty)
{
    SetAssocCache c(8, 2); // 4 sets x 2 ways.
    ASSERT_EQ(c.numSets(), 4u);
    const Addr stride = 4 * kLineBytes; // Same set.
    mem::Eviction ev;
    c.insert(0, LineState::Modified, true, &ev);
    EXPECT_FALSE(ev.valid);
    c.insert(stride, LineState::Shared, false, &ev);
    EXPECT_FALSE(ev.valid);
    c.insert(2 * stride, LineState::Exclusive, false, &ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 0u);
    EXPECT_EQ(ev.state, LineState::Modified);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.find(0), nullptr);
    c.insert(3 * stride, LineState::Shared, false, &ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, stride);
    EXPECT_EQ(ev.state, LineState::Shared);
    EXPECT_FALSE(ev.dirty);
    ASSERT_NE(c.find(2 * stride), nullptr);
    EXPECT_EQ(c.find(2 * stride)->state, LineState::Exclusive);
}

TEST(SetAssocCache, LruVictimOrder)
{
    SetAssocCache c(16, 4); // 4 sets x 4 ways.
    const Addr stride = 4 * kLineBytes;
    mem::Eviction ev;
    for (Addr i = 0; i < 4; ++i)
        c.insert(i * stride, LineState::Shared, false, &ev);
    c.insert(kLineBytes, LineState::Shared, false, &ev); // Other set.
    // Touch lines 0 and 2: least recent first is now 1, 3, 0, 2.
    ASSERT_NE(c.touch(0), nullptr);
    ASSERT_NE(c.touch(2 * stride), nullptr);
    // find() does not count as a use.
    ASSERT_NE(c.find(stride), nullptr);
    for (const Addr victim : {Addr{1}, Addr{3}, Addr{0}, Addr{2}}) {
        c.insert((10 + victim) * stride, LineState::Shared, false, &ev);
        ASSERT_TRUE(ev.valid);
        EXPECT_EQ(ev.line, victim * stride);
    }
    EXPECT_NE(c.find(kLineBytes), nullptr);
    EXPECT_EQ(c.countValid(), 5u);
}

TEST(SetAssocCache, EraseThenFindIsNull)
{
    SetAssocCache c(8, 2);
    mem::Eviction ev;
    c.insert(0, LineState::Modified, true, &ev);
    c.insert(4 * kLineBytes, LineState::Shared, false, &ev);
    EXPECT_TRUE(c.erase(0));
    EXPECT_EQ(c.find(0), nullptr);
    EXPECT_EQ(c.touch(0), nullptr);
    EXPECT_FALSE(c.erase(0));
    EXPECT_EQ(c.countValid(), 1u);
    // The freed way takes the next line without an eviction.
    c.insert(8 * kLineBytes, LineState::Shared, false, &ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_NE(c.find(4 * kLineBytes), nullptr);
    EXPECT_NE(c.find(8 * kLineBytes), nullptr);
}

TEST(SetAssocCache, ClearThenReinsert)
{
    SetAssocCache c(16, 4);
    mem::Eviction ev;
    for (Addr i = 0; i < 16; ++i)
        c.insert(i * kLineBytes, LineState::Exclusive, true, &ev);
    EXPECT_EQ(c.countValid(), 16u);
    c.clear();
    EXPECT_EQ(c.countValid(), 0u);
    for (Addr i = 0; i < 16; ++i)
        EXPECT_EQ(c.find(i * kLineBytes), nullptr);
    for (Addr i = 16; i < 32; ++i) {
        c.insert(i * kLineBytes, LineState::Shared, false, &ev);
        EXPECT_FALSE(ev.valid) << "line " << i;
        const mem::CacheEntry *e = c.find(i * kLineBytes);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->state, LineState::Shared);
        EXPECT_FALSE(e->dirty);
    }
    EXPECT_EQ(c.countValid(), 16u);
}

// ---------------------------------------------------------------------
// Dense directory: per-line state found by index, in 64-line chunks.
// ---------------------------------------------------------------------

sim::Task
waitForChange(CoherentSystem &m, Addr line, bool &woke)
{
    co_await m.waitLineChange(line, m.lineVersion(line));
    woke = true;
}

TEST(DenseDirectory, LinesNeverAllocatedWork)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    const Addr last = m.alloc(0, kLineBytes);
    const std::vector<Addr> lines = {
        last + (Addr{1} << 30),                // Above the last alloc().
        mem::socketBase(1) + 5 * kLineBytes,   // Socket 1, below its heap.
        mem::socketBase(1) + (Addr{1} << 43),  // Past the dense table.
    };
    // A poller on each line is woken by the write to it.
    bool w0 = false, w1 = false, w2 = false;
    f.simv.spawn(waitForChange(m, lines[0], w0));
    f.simv.spawn(waitForChange(m, lines[1], w1));
    f.simv.spawn(waitForChange(m, lines[2], w2));
    f.run([&]() -> sim::Coro<void> {
        co_await f.simv.delay(sim::fromNs(10.0));
        for (const Addr a : lines) {
            const std::uint32_t v = m.lineVersion(a);
            co_await m.store(f.writer1, a, 8);
            EXPECT_EQ(m.lineVersion(a), v + 1);
            const auto remote = m.counters(f.reader0).remoteReads;
            co_await m.load(f.reader0, a, 8);
            // The data comes from writer1's Modified copy on socket 1.
            EXPECT_EQ(m.counters(f.reader0).remoteReads, remote + 1);
            EXPECT_TRUE(m.checkInvariants().empty());
        }
        co_return;
    });
    EXPECT_TRUE(w0);
    EXPECT_TRUE(w1);
    EXPECT_TRUE(w2);
}

TEST(DenseDirectory, DropCachesResetsOwnersAndSharersInEveryChunk)
{
    MemFixture f(mem::icxConfig());
    auto &m = f.system;
    const Addr base0 = m.alloc(0, 200 * kLineBytes);
    const Addr base1 = m.alloc(1, 200 * kLineBytes);
    // Lines in three chunks on socket 0 and two on socket 1.
    const std::vector<Addr> lines = {
        base0, base0 + 70 * kLineBytes, base0 + 150 * kLineBytes,
        base1 + 64 * kLineBytes, base1 + 199 * kLineBytes};
    f.run([&]() -> sim::Coro<void> {
        for (const Addr a : lines) {
            co_await m.store(f.writer0, a, 8); // writer0 owns it (M)...
            co_await m.load(f.writer1, a, 8);  // ...then both share it.
        }
        m.dropCaches();
        EXPECT_TRUE(m.checkInvariants().empty());
        for (const Addr a : lines) {
            // With no owner or sharer left, the read miss installs the
            // line Exclusive, and the store that follows hits in L2.
            co_await m.load(f.reader0, a, 8);
            const auto hits = m.counters(f.reader0).l2Hits;
            const auto misses = m.counters(f.reader0).l2Misses;
            co_await m.store(f.reader0, a, 8);
            EXPECT_EQ(m.counters(f.reader0).l2Hits, hits + 1)
                << "line 0x" << std::hex << a;
            EXPECT_EQ(m.counters(f.reader0).l2Misses, misses);
        }
        co_return;
    });
}

} // namespace
