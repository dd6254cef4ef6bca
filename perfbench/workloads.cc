#include "workloads.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>

#include "apps/kvstore.hh"
#include "ccnic/ccnic.hh"
#include "driver/nic_iface.hh"
#include "mem/coherence.hh"
#include "net/fabric.hh"
#include "nic/pcie_nic.hh"
#include "obs/obs.hh"
#include "obs/span.hh"
#include "pio/pio.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "transport/transport.hh"
#include "workload/dists.hh"

namespace perfbench {

using ccn::sim::Tick;
namespace sim = ccn::sim;
namespace mem = ccn::mem;
namespace driver = ccn::driver;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "loopback_64b", "overload_1500b", "kv_lossy_mixed"};
    return names;
}

bool
findWorkload(const std::string &name, WorkloadSpec *out)
{
    WorkloadSpec s;
    s.name = name;
    if (name == "loopback_64b") {
        // ICX, 16 queue pairs, 64B at ~60% of the modeled peak.
        s.id = 0;
        s.plat = mem::icxConfig();
        s.threads = 16;
        s.pktSize = 64;
        s.offered = 200e6;
        s.warmup = sim::fromUs(40.0);
        s.window = sim::fromUs(1500.0);
        s.drainCap = sim::fromUs(100.0);
        s.slice = sim::fromUs(50.0);
    } else if (name == "overload_1500b") {
        // SPR, 56 queue pairs, 1500B at ~1.5x the modeled capacity.
        s.id = 1;
        s.plat = mem::sprConfig();
        s.threads = 56;
        s.pktSize = 1500;
        s.offered = 70e6;
        // The TX rings fill (~0.7 ms of backlog) before the window
        // opens, so the window sees the steady overloaded state.
        s.warmup = sim::fromUs(800.0);
        s.window = sim::fromUs(400.0);
        s.drainCap = sim::fromUs(1000.0);
        s.slice = sim::fromUs(10.0);
    } else if (name == "kv_lossy_mixed") {
        // Two ICX hosts over a lossy 25 Gb/s fabric, reliable KV.
        s.id = 2;
        s.kv = true;
        s.plat = mem::icxConfig();
        s.offered = 2e6;
        s.warmup = sim::fromUs(50.0);
        s.window = sim::fromUs(10000.0);
        s.drainCap = sim::fromUs(2000.0);
        s.slice = sim::fromUs(250.0);
    } else {
        return false;
    }
    *out = s;
    return true;
}

namespace {

/** Registry values plus the span table, read at the end of the drain. */
void
snapshotObs(RepResult &r)
{
    for (const auto &m : ccn::obs::Registry::global().all())
        r.counters[m.name] = m.value;
    std::ostringstream os;
    ccn::obs::SpanTable::global().table().print(os);
    r.spanTable = os.str();
}

std::uint64_t
memOpsOf(const mem::CoherentSystem &m)
{
    std::uint64_t n = 0;
    for (int a = 0; a < m.numAgents(); ++a)
        n += m.counters(a).l2Hits + m.counters(a).l2Misses;
    return n;
}

/** World constructions timed per repetition; the last one is run. */
constexpr int kSetupSamples = 3;

/** Run @p fn as set-up phase @p name, adding its host seconds to @p acc. */
template <typename Fn>
void
phase(HostSpans &spans, const char *name, double &acc, Fn fn)
{
    HostSpans::Scope scope(spans, name);
    const double h0 = hostNow();
    fn();
    acc += hostNow() - h0;
}

/**
 * Advance the simulator in fixed slices until @p done or @p end,
 * timing the host seconds spent inside Simulator::run.
 */
template <typename Done>
void
runSlices(sim::Simulator &simv, const WorkloadSpec &spec, Tick end,
          HostSpans &spans, RepResult &r,
          const std::function<void()> &after_slice, Done done)
{
    Tick t = simv.now();
    while (!done() && t < end) {
        t = std::min(end, t + spec.slice);
        const int sp = spans.begin("sim.run");
        const double h0 = hostNow();
        simv.run(t);
        r.simulate += hostNow() - h0;
        spans.end(sp);
        if (after_slice)
            after_slice();
    }
}

// ---------------------------------------------------------------------
// Loopback: one open-loop host thread per queue pair (§5.1).
// ---------------------------------------------------------------------

constexpr int kMaxBurst = 64; ///< Per-thread due-but-unaccepted cap.
constexpr int kBatch = 32;    ///< TX and RX burst size.

/** Packet fate, indexed by per-thread sequence number. */
enum class Fate : std::uint8_t
{
    Due,
    Refused,
    Sent,
    Received
};

struct LoopThread
{
    std::vector<Tick> due;
    std::vector<Fate> fate;
};

struct LoopState
{
    Tick measureStart = 0;
    Tick measureEnd = 0;
    Tick drainEnd = 0;
    int active = 0;
    std::vector<LoopThread> threads;
    RepResult *r = nullptr;

    bool
    inWindow(Tick due) const
    {
        return due >= measureStart && due < measureEnd;
    }
};

sim::Task
loopThread(sim::Simulator &simv, mem::CoherentSystem &m,
           driver::NicInterface &nic, const WorkloadSpec &spec, int q,
           LoopState *st, std::uint64_t seed)
{
    sim::Rng rng(seed);
    LoopThread &th = st->threads[q];
    RepResult &r = *st->r;
    const mem::AgentId agent = nic.hostAgent(q);
    const double mean_gap = static_cast<double>(sim::kSecond) /
                            (spec.offered / spec.threads);
    Tick next_due = simv.now() +
                    static_cast<Tick>(rng.exponential(mean_gap));
    bool generating = next_due < st->measureEnd;

    driver::PacketBuf *rx[kBatch];
    driver::PacketBuf *tx[kBatch];
    std::deque<std::uint64_t> pending; // Due, not yet written.
    std::vector<driver::PacketBuf *> backlog; // Written, not accepted.
    std::vector<mem::CoherentSystem::Span> io;
    std::uint64_t outstanding = 0; // Accepted by txBurst, not reaped.

    auto refuse = [&](std::uint64_t seq) {
        th.fate[seq] = Fate::Refused;
        if (st->inWindow(th.due[seq]))
            r.refused++;
    };

    while (simv.now() < st->drainEnd &&
           (generating || !pending.empty() || !backlog.empty() ||
            outstanding > 0)) {
        bool did_work = false;

        // ---- RX: reap, touch every payload, free ----
        const int nr = co_await nic.rxBurst(q, rx, kBatch);
        if (nr > 0) {
            did_work = true;
            io.clear();
            for (int i = 0; i < nr; ++i)
                io.push_back({rx[i]->addr, rx[i]->len});
            co_await m.accessMulti(agent, io, false);
            const Tick now = simv.now();
            for (int i = 0; i < nr; ++i) {
                const std::uint64_t seq = rx[i]->userData;
                if (rx[i]->flowId != static_cast<std::uint64_t>(q) ||
                    seq >= th.fate.size() ||
                    th.fate[seq] != Fate::Sent) {
                    if (seq < th.fate.size() &&
                        th.fate[seq] == Fate::Received)
                        r.duplicates++;
                    else
                        r.violations.push_back(
                            "loopback: packet received that was never "
                            "sent on this queue");
                    continue;
                }
                th.fate[seq] = Fate::Received;
                outstanding--;
                r.completedAll++;
                if (st->inWindow(now))
                    r.windowCompletions++;
                if (st->inWindow(th.due[seq])) {
                    r.completed++;
                    r.latency.push_back(now - th.due[seq]);
                }
            }
            co_await nic.freeBufs(q, rx, nr);
        }

        // ---- TX: queue due arrivals, write payloads, submit ----
        // An arrival that falls due while the thread already holds
        // kMaxBurst packets (queued, or written but not yet accepted
        // by the NIC) is refused: the backlog bound of a poll loop.
        while (generating && next_due <= simv.now()) {
            const std::uint64_t seq = th.due.size();
            th.due.push_back(next_due);
            th.fate.push_back(Fate::Due);
            if (st->inWindow(next_due))
                r.attempted++;
            if (pending.size() + backlog.size() < kMaxBurst)
                pending.push_back(seq);
            else
                refuse(seq);
            next_due += static_cast<Tick>(rng.exponential(mean_gap));
            generating = next_due < st->measureEnd;
        }
        const int admit =
            std::min<int>(static_cast<int>(pending.size()), kBatch);
        if (admit > 0) {
            const int got =
                co_await nic.allocBufs(q, spec.pktSize, tx, admit);
            for (int i = std::max(got, 0); i < admit; ++i)
                refuse(pending[i]); // No buffer.
            if (got > 0) {
                did_work = true;
                io.clear();
                for (int i = 0; i < got; ++i)
                    io.push_back({tx[i]->addr, spec.pktSize});
                co_await m.postMulti(agent, io, nullptr);
                const Tick now = simv.now();
                for (int i = 0; i < got; ++i) {
                    tx[i]->len = spec.pktSize;
                    tx[i]->txTime = now;
                    tx[i]->flowId = static_cast<std::uint64_t>(q);
                    tx[i]->userData = pending[i];
                    backlog.push_back(tx[i]);
                }
            }
            pending.erase(pending.begin(), pending.begin() + admit);
        }
        if (!backlog.empty()) {
            const int sent = co_await nic.txBurst(
                q, backlog.data(),
                std::min<int>(static_cast<int>(backlog.size()),
                              kBatch));
            if (sent > 0) {
                did_work = true;
                const Tick now = simv.now();
                for (int i = 0; i < sent; ++i) {
                    const std::uint64_t seq = backlog[i]->userData;
                    th.fate[seq] = Fate::Sent;
                    if (st->inWindow(th.due[seq]))
                        r.genLag.push_back(now - th.due[seq]);
                }
                outstanding += static_cast<std::uint64_t>(sent);
                backlog.erase(backlog.begin(), backlog.begin() + sent);
            }
        }

        if (!did_work) {
            const Tick deadline = generating
                                      ? std::min(next_due, st->drainEnd)
                                      : st->drainEnd;
            co_await nic.idleWait(q, deadline);
        }
    }
    // Written but never submitted: return the buffers to the pool.
    if (!backlog.empty())
        co_await nic.freeBufs(q, backlog.data(),
                              static_cast<int>(backlog.size()));
    st->active--;
    co_return;
}

/** Quiesce + reset: reclaims ring-held buffers before the leak audit. */
sim::Task
teardownSweep(driver::NicInterface &nic, bool *done)
{
    if (nic.supportsLifecycle()) {
        co_await nic.quiesce();
        co_await nic.reset();
    }
    *done = true;
    co_return;
}

/** One loopback machine: memory system plus a started CC-NIC. */
struct LoopWorld
{
    LoopWorld(const WorkloadSpec &spec, HostSpans &spans, SetupTimes &t)
    {
        phase(spans, "setup.mem", t.mem, [&] {
            system = std::make_unique<mem::CoherentSystem>(simv, spec.plat);
        });
        phase(spans, "setup.nic", t.nic, [&] {
            nic = std::make_unique<ccn::ccnic::CcNic>(
                simv, *system,
                ccn::ccnic::optimizedConfig(spec.threads, 0, spec.plat), 0,
                1, rng);
            nic->start();
        });
    }

    sim::Simulator simv;
    sim::Rng rng{7};
    std::unique_ptr<mem::CoherentSystem> system;
    std::unique_ptr<ccn::ccnic::CcNic> nic;
};

RepResult
runLoopback(const WorkloadSpec &spec, std::uint64_t seed,
            HostSpans &spans, const std::function<void()> &after_slice)
{
    RepResult r;
    auto st = std::make_unique<LoopState>();
    st->r = &r;
    st->threads.resize(static_cast<std::size_t>(spec.threads));

    for (int i = 1; i < kSetupSamples; ++i)
        LoopWorld(spec, spans, r.setups.emplace_back());
    LoopWorld w(spec, spans, r.setups.emplace_back());
    sim::Simulator &simv = w.simv;
    mem::CoherentSystem &system = *w.system;
    ccn::ccnic::CcNic &nic = *w.nic;

    st->measureStart = simv.now() + spec.warmup;
    st->measureEnd = st->measureStart + spec.window;
    st->drainEnd = st->measureEnd + spec.drainCap;
    st->active = spec.threads;
    for (int q = 0; q < spec.threads; ++q)
        simv.spawn(loopThread(simv, system, nic, spec, q, st.get(),
                              seed * 7919 + static_cast<std::uint64_t>(q)));

    runSlices(simv, spec, st->drainEnd, spans, r, after_slice,
              [&] { return st->active == 0; });
    r.events = simv.eventsExecuted();
    r.memOps = memOpsOf(system);
    r.windowSeconds = sim::toSeconds(spec.window);

    // Every arrival due in the window is exactly one of completed,
    // refused, or unanswered (written-but-unsent or still in the
    // rings when the drain ended).
    std::uint64_t due = 0, refused = 0, received = 0;
    for (const LoopThread &th : st->threads) {
        for (std::size_t i = 0; i < th.due.size(); ++i) {
            if (!st->inWindow(th.due[i]))
                continue;
            due++;
            if (th.fate[i] == Fate::Refused)
                refused++;
            else if (th.fate[i] == Fate::Received)
                received++;
            else
                r.unanswered++;
        }
    }
    if (due != r.attempted || refused != r.refused ||
        received != r.completed ||
        r.completed + r.refused + r.unanswered != r.attempted)
        r.violations.push_back("loopback: due packets are not exactly "
                               "received + refused + in flight");
    snapshotObs(r);

    const int tsp = spans.begin("teardown");
    bool down = false;
    simv.spawn(teardownSweep(nic, &down));
    const Tick limit = simv.now() + sim::fromUs(500.0);
    Tick t = simv.now();
    while (!down && t < limit) {
        t += sim::fromUs(10.0);
        simv.run(t);
    }
    if (!down)
        r.violations.push_back("loopback: teardown did not finish");
    r.leakedAfterTeardown = nic.auditLeaks();
    spans.end(tsp);
    return r;
}

// ---------------------------------------------------------------------
// Two-host reliable KV over a lossy fabric.
// ---------------------------------------------------------------------

constexpr std::uint32_t kGetRequestBytes = 64;
constexpr std::uint32_t kKvHeaderBytes = 32;

struct KvState
{
    explicit KvState(std::uint64_t objects, double zipf)
        : zipf(objects, zipf)
    {}

    ccn::workload::ZipfSampler zipf;
    ccn::workload::SizeDist sizes = ccn::workload::SizeDist::ads();
    Tick start = 0;
    Tick measureStart = 0;
    Tick measureEnd = 0;
    Tick drainEnd = 0;
    int generators = 0;          ///< Generator tasks still running.
    std::uint64_t issued = 0;    ///< Request ids handed out.
    std::uint64_t refused = 0;   ///< send() failed (all, not window).
    std::uint64_t answered = 0;  ///< First responses (all).
    std::vector<Tick> due;       ///< Indexed by request id.
    std::vector<Fate> fate;
    RepResult *r = nullptr;

    bool
    inWindow(Tick t) const
    {
        return t >= measureStart && t < measureEnd;
    }

    bool
    settled() const
    {
        return generators == 0 && answered + refused == issued;
    }
};

sim::Task
kvResponses(sim::Simulator &simv, ccn::transport::Connection *conn,
            KvState *st)
{
    RepResult &r = *st->r;
    while (simv.now() < st->drainEnd) {
        ccn::transport::Segment seg;
        if (!co_await conn->recv(&seg, st->drainEnd)) {
            if (conn->state() ==
                ccn::transport::Connection::State::Error)
                break;
            continue;
        }
        const std::uint64_t id = (seg.userData >> 32) & 0x7fffffffULL;
        if (id >= st->fate.size() || st->fate[id] != Fate::Sent) {
            if (id < st->fate.size() && st->fate[id] == Fate::Received)
                r.duplicates++;
            else
                r.violations.push_back(
                    "kv: response for a request never sent");
            continue;
        }
        st->fate[id] = Fate::Received;
        st->answered++;
        r.completedAll++;
        if (st->inWindow(simv.now()))
            r.windowCompletions++;
        if (st->inWindow(st->due[id])) {
            r.completed++;
            r.latency.push_back(simv.now() - st->due[id]);
        }
    }
    co_return;
}

sim::Task
kvGenerator(sim::Simulator &simv, ccn::transport::Endpoint &ep,
            std::uint32_t server_addr, int idx, double rate,
            KvState *st, std::uint64_t seed)
{
    RepResult &r = *st->r;
    ccn::transport::Connection *conn = co_await ep.connect(
        server_addr, 0x5eedULL + static_cast<std::uint64_t>(idx));
    const bool open =
        conn->state() == ccn::transport::Connection::State::Open;
    if (open)
        simv.spawn(kvResponses(simv, conn, st));
    else
        r.violations.push_back("kv: connection handshake failed");

    sim::Rng rng(seed);
    const double mean_gap = static_cast<double>(sim::kSecond) / rate;
    Tick next = st->start;
    while (true) {
        next += static_cast<Tick>(rng.exponential(mean_gap));
        if (next >= st->measureEnd)
            break;
        if (next > simv.now())
            co_await simv.delayUntil(next);
        const std::uint64_t key = st->zipf.sample(rng);
        const bool get = rng.uniform() < 0.5;
        // PUT requests carry the value (client TX / server RX path).
        const std::uint32_t len =
            get ? kGetRequestBytes
                : kKvHeaderBytes + st->sizes.sample(rng);
        const std::uint64_t id = st->issued++;
        st->due.push_back(next);
        // Marked sent before send() returns: its response may land
        // while send() is still suspended.
        st->fate.push_back(Fate::Sent);
        if (st->inWindow(next))
            r.attempted++;
        // userData: bits 0..31 key, 32..62 request id, 63 PUT flag
        // (the layout apps::KvServer echoes back).
        const std::uint64_t ud = (key & 0xffffffffULL) | (id << 32) |
                                 (get ? 0ULL : (1ULL << 63));
        if (!open || !co_await conn->send(len, ud, 0)) {
            st->fate[id] = Fate::Refused;
            st->refused++;
            if (st->inWindow(next))
                r.refused++;
            continue;
        }
        if (st->inWindow(next))
            r.genLag.push_back(simv.now() - next);
    }
    st->generators--;
    co_return;
}

ccn::apps::KvConfig
kvConfig()
{
    ccn::apps::KvConfig c;
    c.numObjects = 65536;
    c.zipf = 0.75;
    c.getFraction = 0.5;
    c.serverThreads = 4;
    return c;
}

/**
 * Two hosts on one simulator: a PCIe-E810 KV server and a PIO-UPI
 * client, each behind a lossy 25 Gb/s link of one fabric switch.
 */
struct KvWorld
{
    KvWorld(const WorkloadSpec &spec, std::uint64_t seed, HostSpans &spans,
            SetupTimes &t)
        : kvRng(seed)
    {
        phase(spans, "setup.mem", t.mem, [&] {
            serverMem = std::make_unique<mem::CoherentSystem>(simv, spec.plat);
            clientMem = std::make_unique<mem::CoherentSystem>(simv, spec.plat);
        });
        phase(spans, "setup.nic", t.nic, [&] {
            serverNic = std::make_unique<ccn::nic::PcieNic>(
                simv, *serverMem, ccn::nic::e810Params(), 4, 0, serverRng);
            serverNic->start();
            auto pcfg = ccn::pio::upiConfig(2, 0, spec.plat);
            pcfg.loopback = false;
            clientNic = std::make_unique<ccn::pio::PioNic>(
                simv, *clientMem, pcfg, 0, 1, clientRng);
            clientNic->start();
        });
        phase(spans, "setup.fabric", t.fabric, [&] {
            fabric = std::make_unique<ccn::net::Fabric>(simv);
            auto link = [seed](std::uint64_t salt) {
                ccn::net::LinkConfig lc;
                lc.gbps = 25.0;
                lc.queuePackets = 128;
                lc.faults.dropRate = 0.01;
                lc.faults.seed = seed * 1000003ULL + salt;
                return lc;
            };
            serverAddr = fabric->attach(
                "server", ccn::net::hooksFor(*serverNic), link(1), link(2));
            fabric->attach("client", ccn::net::hooksFor(*clientNic),
                           link(3), link(4));
        });
        phase(spans, "setup.app", t.app, [&] {
            ccn::transport::TransportConfig tp;
            tp.minRto = sim::fromUs(50.0);
            serverEp = std::make_unique<ccn::transport::Endpoint>(
                simv, *serverMem, *serverNic, tp, "server");
            clientEp = std::make_unique<ccn::transport::Endpoint>(
                simv, *clientMem, *clientNic, tp, "client");
            server = std::make_unique<ccn::apps::KvServer>(
                *serverMem, kvConfig(), kvRng);
        });
    }

    sim::Simulator simv;
    sim::Rng serverRng{11};
    sim::Rng clientRng{12};
    sim::Rng kvRng;
    std::unique_ptr<mem::CoherentSystem> serverMem;
    std::unique_ptr<mem::CoherentSystem> clientMem;
    std::unique_ptr<ccn::nic::PcieNic> serverNic;
    std::unique_ptr<ccn::pio::PioNic> clientNic;
    std::unique_ptr<ccn::net::Fabric> fabric;
    std::uint32_t serverAddr = 0;
    std::unique_ptr<ccn::transport::Endpoint> serverEp;
    std::unique_ptr<ccn::transport::Endpoint> clientEp;
    std::unique_ptr<ccn::apps::KvServer> server;
};

RepResult
runKv(const WorkloadSpec &spec, std::uint64_t seed, HostSpans &spans,
      const std::function<void()> &after_slice)
{
    RepResult r;
    const ccn::apps::KvConfig kvcfg = kvConfig();
    auto st = std::make_unique<KvState>(kvcfg.numObjects, kvcfg.zipf);
    st->r = &r;

    for (int i = 1; i < kSetupSamples; ++i)
        KvWorld(spec, seed, spans, r.setups.emplace_back());
    KvWorld w(spec, seed, spans, r.setups.emplace_back());
    sim::Simulator &simv = w.simv;
    mem::CoherentSystem &server_mem = *w.serverMem;
    ccn::transport::Endpoint &server_ep = *w.serverEp;
    ccn::transport::Endpoint &client_ep = *w.clientEp;
    ccn::apps::KvServer &server = *w.server;

    st->start = simv.now();
    st->measureStart = st->start + spec.warmup;
    st->measureEnd = st->measureStart + spec.window;
    st->drainEnd = st->measureEnd + spec.drainCap;
    server.startOverTransport(simv, server_mem, server_ep, st->drainEnd);
    server_ep.start(st->drainEnd);
    client_ep.start(st->drainEnd);
    const int conns = w.clientNic->numQueues();
    st->generators = conns;
    for (int c = 0; c < conns; ++c)
        simv.spawn(kvGenerator(simv, client_ep, w.serverAddr, c,
                               spec.offered / conns, st.get(),
                               seed * 131 + static_cast<std::uint64_t>(c)));

    runSlices(simv, spec, st->drainEnd, spans, r, after_slice,
              [&] { return st->settled(); });
    r.events = simv.eventsExecuted();
    r.memOps = memOpsOf(server_mem) + memOpsOf(*w.clientMem);
    r.windowSeconds = sim::toSeconds(spec.window);

    std::uint64_t sent = 0;
    for (std::size_t i = 0; i < st->due.size(); ++i) {
        if (st->fate[i] == Fate::Sent || st->fate[i] == Fate::Received)
            sent++;
        if (st->inWindow(st->due[i]) && st->fate[i] == Fate::Sent)
            r.unanswered++;
    }
    r.kvSent = sent;
    r.kvResponses = st->answered;
    r.serverDelivered = server_ep.stats().dataDelivered;
    r.connAborts = client_ep.stats().aborts + server_ep.stats().aborts;
    if (r.completed + r.refused + r.unanswered != r.attempted)
        r.violations.push_back("kv: due requests are not exactly "
                               "answered + refused + unanswered");
    snapshotObs(r);
    return r;
}

} // namespace

RepResult
runRep(const WorkloadSpec &spec, std::uint64_t seed, HostSpans &spans,
       const std::function<void()> &after_slice)
{
    ccn::obs::Registry::global().reset();
    ccn::obs::SpanTable::global().reset();
    return spec.kv ? runKv(spec, seed, spans, after_slice)
                   : runLoopback(spec, seed, spans, after_slice);
}

} // namespace perfbench
