#include "ccnic/ccnic.hh"

#include <algorithm>
#include <unordered_set>

namespace ccn::ccnic {

using driver::BufClass;
using driver::PacketBuf;
using driver::RingLayout;
using driver::SignalMode;
using mem::Addr;
using sim::Tick;

namespace {

/** Host-managed RX slot states carried in Slot::meta. */
constexpr std::uint64_t kRxEmpty = 0;
constexpr std::uint64_t kRxPosted = 1;
constexpr std::uint64_t kRxCompleted = 2;
/// Consumer-private marker: taken but the group's clear has not been
/// published yet (bursts may stop mid-group).
constexpr std::uint64_t kConsumed = 3;

} // namespace

CcNicConfig
optimizedConfig(int num_queues, int host_socket)
{
    CcNicConfig cfg;
    cfg.numQueues = num_queues;
    cfg.layout = RingLayout::Grouped;
    cfg.signal = SignalMode::Inline;
    cfg.nicHomedRx = true;
    cfg.nicBufferMgmt = true;
    cfg.pool.sharedAccess = true;
    cfg.pool.recycleCache = true;
    cfg.pool.smallBuffers = true;
    cfg.pool.nonSequentialFill = true;
    cfg.pool.homeSocket = host_socket;
    cfg.pool.sizeFor(cfg.numQueues, cfg.ringEntries);
    return cfg;
}

CcNicConfig
unoptimizedConfig(int num_queues, int host_socket)
{
    CcNicConfig cfg;
    cfg.numQueues = num_queues;
    // E810 interface verbatim over coherent memory (§5.1): packed 16B
    // descriptors, register doorbells, host-managed 2KB buffers, all
    // structures in host memory.
    cfg.layout = RingLayout::Packed;
    cfg.signal = SignalMode::Register;
    cfg.nicHomedRx = false;
    cfg.nicBufferMgmt = false;
    cfg.pool.sharedAccess = false;
    cfg.pool.recycleCache = false;
    cfg.pool.smallBuffers = false;
    cfg.pool.nonSequentialFill = false;
    cfg.pool.largeBufBytes = 2048;
    cfg.pool.homeSocket = host_socket;
    cfg.nicPipelined = false;
    cfg.spanPath = "upi_unopt";
    cfg.pool.sizeFor(cfg.numQueues, cfg.ringEntries);
    return cfg;
}

driver::CpuCosts
platformCosts(const mem::PlatformConfig &plat)
{
    driver::CpuCosts c;
    if (plat.name == "SPR") {
        // Leaner per-packet software on SPR (§5.3: 1520Mpps across 56
        // cores while the interconnect, not the cores, saturates).
        c.perLoop = 14;
        c.perPktTx = 9;
        c.perPktRx = 8;
        c.perDesc = 3;
        c.perAllocFree = 4;
    } else {
        // ICX: ~21Mpps/core saturated (330Mpps, core-limited, §5.3).
        c.perLoop = 28;
        c.perPktTx = 32;
        c.perPktRx = 28;
        c.perDesc = 9;
        c.perAllocFree = 9;
    }
    return c;
}

CcNicConfig
optimizedConfig(int num_queues, int host_socket,
                const mem::PlatformConfig &plat)
{
    CcNicConfig cfg = optimizedConfig(num_queues, host_socket);
    cfg.hostCosts = platformCosts(plat);
    cfg.nicCosts = platformCosts(plat);
    return cfg;
}

CcNicConfig
unoptimizedConfig(int num_queues, int host_socket,
                  const mem::PlatformConfig &plat)
{
    CcNicConfig cfg = unoptimizedConfig(num_queues, host_socket);
    cfg.hostCosts = platformCosts(plat);
    cfg.nicCosts = platformCosts(plat);
    return cfg;
}

CcNic::Queue::Queue(mem::CoherentSystem &m, const CcNicConfig &cfg,
                    int host_socket, int nic_socket)
    : hostAgent(m.addAgent(host_socket)),
      nicAgent(m.addAgent(nic_socket)),
      tx(m, host_socket, cfg),
      rx(m, cfg.nicHomedRx ? nic_socket : host_socket, cfg),
      txShadow(cfg.ringEntries, nullptr)
{
    // Register lines follow both rings in simulated memory.
    tx.tail = driver::RegisterLine(m, host_socket);
    tx.head = driver::RegisterLine(m, host_socket);
    rx.tail = driver::RegisterLine(m, cfg.nicHomedRx ? nic_socket
                                                     : host_socket);
    rx.head = driver::RegisterLine(m, host_socket);
}

void
CcNic::RingEnd::rewind()
{
    prod = cons = clearScan = 0;
    headCache = tailCache = 0;
    tail.publish(0);
    head.publish(0);
}

CcNic::CcNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
             const CcNicConfig &config, int host_socket, int nic_socket,
             sim::Rng &rng)
    : NicInterface(sim, mem_system,
                   {.prefix = "ccnic",
                    .numQueues = config.numQueues,
                    .reinitLat = mem_system.config().cycles(
                        config.nicCosts.perLoop * 8),
                    .engineBatch = kNicBatch,
                    .loopback = config.loopback}),
      cfg_(config)
{
    cfg_.pool.homeSocket = host_socket;
    // Ring index arithmetic masks with entries-1, so normalize a
    // non-power-of-two request before sizing rings and shadows.
    cfg_.ringEntries = driver::DescRing::roundUpPow2(cfg_.ringEntries);
    // Clamp the publish-batch target well under the ring size so a
    // staged (unpublished, hence not `ready`) region can never be
    // lapped and overwritten by the producer's own full-ring check.
    cfg_.batch.clampTo(cfg_.ringEntries / 4);
    pool_ = std::make_unique<driver::Mempool>(mem_, cfg_.pool, rng);
    for (int q = 0; q < cfg_.numQueues; ++q) {
        queues_.push_back(
            std::make_unique<Queue>(mem_, cfg_, host_socket, nic_socket));
        queues_.back()->sigReads =
            &signalReadsQ_.at(static_cast<std::uint64_t>(q));
        queues_.back()->txPending.setPolicy(cfg_.batch);
        queues_.back()->rxDevPending.setPolicy(cfg_.batch);
    }
    // Heartbeat lines are writer-homed like the rings (§3.3): each
    // side bumps its own line and polls the other's.
    hostBeat_ =
        std::make_unique<driver::RegisterLine>(mem_, host_socket);
    nicBeat_ = std::make_unique<driver::RegisterLine>(mem_, nic_socket);
    registerProfRegions();
}

void
CcNic::registerProfRegions()
{
    using obs::RegionIntent;
    obs::CoherenceProfiler &prof = mem_.profiler();
    const std::string tag =
        cfg_.regionTag.empty() ? cfg_.spanPath : cfg_.regionTag;
    // Grouped and Padded lines carry descriptors plus their inline
    // ready flags: producer writes, consumer reads, ownership
    // migrates back and forth by design (Fig 8). Packed 16B
    // descriptors share a line without that discipline — alternation
    // there is the accidental thrash fig14 measures.
    const RegionIntent ring_intent =
        cfg_.layout == driver::RingLayout::Packed
            ? RegionIntent::Owned
            : RegionIntent::TwoWay;
    for (int q = 0; q < cfg_.numQueues; ++q) {
        Queue &queue = *queues_[q];
        const std::string qs = "[q" + std::to_string(q) + "]";
        auto add = [&](const char *name, Addr base, std::uint64_t bytes,
                       RegionIntent intent) {
            profRegions_.push_back(prof.registerRegion(
                tag + "." + name + qs, base, bytes, intent));
        };
        add("tx_ring", queue.tx.ring.base(), queue.tx.ring.bytes(),
            ring_intent);
        add("rx_ring", queue.rx.ring.base(), queue.rx.ring.bytes(),
            ring_intent);
        // Head/tail register lines are single-line two-way signals
        // whichever signaling mode is active (idle in Inline mode).
        add("tx_tail", queue.tx.tail.addr(), mem::kLineBytes,
            RegionIntent::TwoWay);
        add("tx_head", queue.tx.head.addr(), mem::kLineBytes,
            RegionIntent::TwoWay);
        add("rx_tail", queue.rx.tail.addr(), mem::kLineBytes,
            RegionIntent::TwoWay);
        add("rx_head", queue.rx.head.addr(), mem::kLineBytes,
            RegionIntent::TwoWay);
    }
    profRegions_.push_back(prof.registerRegion(
        tag + ".host_beat", hostBeat_->addr(), mem::kLineBytes,
        RegionIntent::TwoWay));
    profRegions_.push_back(prof.registerRegion(
        tag + ".nic_beat", nicBeat_->addr(), mem::kLineBytes,
        RegionIntent::TwoWay));
}

void
CcNic::spawnEngines(int q)
{
    sim_.spawn(nicTxTask(q));
    sim_.spawn(nicRxTask(q));
}

mem::AgentId
CcNic::hostAgent(int q) const
{
    return queues_[q]->hostAgent;
}

mem::AgentId
CcNic::nicAgent(int q) const
{
    return queues_[q]->nicAgent;
}

std::vector<mem::Addr>
CcNic::faultLines() const
{
    // Queue 0's live descriptor lines: the host's next TX publish
    // target is read by the device engine, the device's next RX
    // publish target by the host's rxBurst.
    const Queue &q = *queues_[0];
    return {q.tx.ring.lineOf(q.tx.cons), q.rx.ring.lineOf(q.rx.cons)};
}

driver::QueueHealth
CcNic::health(int q) const
{
    const Queue &queue = *queues_[q];
    driver::QueueHealth h;
    h.txSubmitted = queue.txSubmittedTotal;
    h.txCompleted = queue.txCompletedTotal;
    h.rxDelivered = queue.rxDeliveredTotal;
    h.txOutstanding = queue.tx.prod - queue.tx.cons;
    // Staged-but-unflushed descriptors are invisible to the device;
    // the Watchdog must not read a coalescing delay as a ring stall.
    h.txHeldInBatch = queue.txPending.size();
    return h;
}

std::vector<PacketBuf *>
CcNic::reclaimSlots(int q)
{
    Queue &queue = *queues_[q];
    // Reclaim every ring-owned buffer exactly once. A kConsumed
    // slot's buffer has already changed hands (inline RX: the app
    // took it; inline TX: the NIC freed it), so only non-consumed
    // occupied slots are ring-owned. txShadow may alias TX slots
    // (host-managed mode stores the buffer in both), so dedup. The
    // result keeps sweep order: freeing in host-address order would
    // make the pool's free lists, and so the run, depend on ASLR.
    std::vector<PacketBuf *> held;
    std::unordered_set<PacketBuf *> seen;
    auto keep = [&held, &seen](PacketBuf *b) {
        if (b && seen.insert(b).second)
            held.push_back(b);
    };
    for (driver::DescRing *ring : {&queue.tx.ring, &queue.rx.ring}) {
        for (std::uint32_t i = 0; i < ring->entries(); ++i) {
            const auto &slot = ring->slot(i);
            if (slot.meta != kConsumed)
                keep(slot.buf);
        }
        ring->clear();
    }
    // Staged-but-unflushed publications never reached a slot, so
    // the ring sweep cannot see their buffers: reclaim them here.
    for (const auto &e : queue.txPending.discard())
        keep(e.buf);
    (void)queue.rxDevPending.discard();
    for (PacketBuf *&b : queue.txShadow) {
        keep(b);
        b = nullptr;
    }
    // Drop wire-side packets queued into the dead device.
    port(q).rxInput.clear();
    return held;
}

void
CcNic::rewindQueue(int q)
{
    Queue &queue = *queues_[q];
    queue.tx.rewind();
    queue.rx.rewind();
    queue.txFreeScan = queue.rxPostProd = 0;
}

std::uint32_t
CcNic::padGroup(const RingEnd &e, std::uint32_t idx) const
{
    const std::uint32_t per_line = e.ring.perLine();
    if (cfg_.layout == RingLayout::Grouped &&
        cfg_.signal == SignalMode::Inline && !cfg_.batch.enabled() &&
        idx % per_line != 0)
        return e.ring.groupBase(idx) + per_line;
    return idx;
}

template <typename Fill>
sim::Coro<std::uint32_t>
CcNic::publish(RingEnd &e, mem::AgentId agent,
               std::vector<driver::PublishBatch::Entry> entries,
               std::vector<std::uint32_t> payload, obs::SpanStage stage,
               Fill fill)
{
    std::vector<mem::CoherentSystem::Span> spans;
    std::uint32_t lines = 0;
    Addr last_line = ~Addr{0};
    for (std::size_t k = 0; k < entries.size(); ++k) {
        if (!payload.empty())
            spans.push_back({entries[k].buf->addr, payload[k]});
        const Addr l = e.ring.lineOf(entries[k].idx);
        if (l != last_line) {
            spans.push_back({l, mem::kLineBytes});
            last_line = l;
            lines++;
        }
    }
    const bool reg = cfg_.signal == SignalMode::Register;
    if (reg)
        spans.push_back({e.tail.addr(), 8});
    // Every entry precedes the producer position. One that padGroup()
    // moved past a partial group leaves that group to be sealed.
    const std::uint32_t end =
        entries.empty() ? e.prod : entries.back().idx + 1;
    const bool seal = end != e.prod;
    const std::uint64_t tail_val = e.prod;

    // Posted stores: the core retires immediately; descriptors, ready
    // flags and (TSO-ordered after them) the tail value become visible
    // at store completion.
    RingEnd *ep = &e;
    auto visible = [ep, entries = std::move(entries), stage,
                    fill = std::move(fill), seal, end, reg, tail_val,
                    simp = &sim_]() {
        for (std::size_t k = 0; k < entries.size(); ++k) {
            PacketBuf *b = entries[k].buf;
            auto &slot = ep->ring.slot(entries[k].idx);
            fill(k, entries[k], slot);
            // Stamped at store completion: when the descriptor became
            // visible, not when the core retired the posted store.
            b->span.stamp(stage, simp->now());
            slot.buf = b;
            slot.ready = true;
            ep->ring.stampSlot(entries[k].idx);
        }
        if (seal)
            ep->ring.sealLine(end);
        if (reg)
            ep->tail.publish(tail_val);
    };
    co_await mem_.postMulti(agent, spans, std::move(visible));
    if (!spans.empty())
        noteSignalWrite(reg ? e.tail.addr() : e.ring.lineOf(end - 1));
    co_return lines;
}

void
CcNic::grantAhead(RingEnd &e, mem::AgentId agent, std::uint32_t lines)
{
    for (std::uint32_t k = 0; k < lines; ++k)
        mem_.touchLine(agent, e.ring.lineOf(e.prod + k * e.ring.perLine()));
}

std::uint32_t
CcNic::consume(RingEnd &e, int max, std::vector<Taken> &taken,
               std::vector<mem::CoherentSystem::Span> &lines)
{
    const bool reg = cfg_.signal == SignalMode::Register;
    const std::uint32_t per_line = e.ring.perLine();
    Addr last_line = ~Addr{0};
    std::uint32_t idx = e.cons;
    while (static_cast<int>(taken.size()) < max) {
        auto &slot = e.ring.slot(idx);
        if (reg) {
            if (idx == static_cast<std::uint32_t>(e.tailCache) ||
                !slot.ready)
                break; // Nothing signaled, or its publish in flight.
        } else if (!slot.ready || slot.meta == kConsumed) {
            if (!slot.ready && cfg_.layout == RingLayout::Grouped &&
                idx % per_line != 0 && e.ring.lineSealed(idx)) {
                // Blank mid-group on a sealed line: the producer
                // abandoned the rest of this group. An open (unsealed)
                // group may still be continued by a later batched
                // flush, so stop there instead — skipping would leap
                // over live descriptors.
                idx = e.ring.groupBase(idx) + per_line;
                continue;
            }
            break;
        }
        if (!e.ring.slotValid(idx)) {
            integrity_.noteReject();
            break; // Torn/corrupt descriptor: re-poll.
        }
        const Addr l = e.ring.lineOf(idx);
        if (l != last_line) {
            lines.push_back({l, mem::kLineBytes});
            last_line = l;
        }
        taken.push_back({idx, slot.buf, slot.len});
        if (reg) {
            slot.buf = nullptr;
            slot.ready = false;
            slot.meta = kRxEmpty;
        } else {
            // The line clear in release() publishes the slot back.
            slot.meta = kConsumed;
        }
        e.ring.clearStamp(idx);
        idx++;
    }
    return idx;
}

sim::Coro<void>
CcNic::release(RingEnd &e, mem::AgentId agent)
{
    RingEnd *ep = &e;
    if (cfg_.signal == SignalMode::Register) {
        const std::uint64_t v = e.cons;
        std::vector<mem::CoherentSystem::Span> reg{{e.head.addr(), 8}};
        co_await mem_.postMulti(agent, reg,
                                [ep, v] { ep->head.publish(v); });
        noteSignalWrite(e.head.addr());
        co_return;
    }
    // Clear every line the consumer has fully passed: the consumer's
    // half of the two-way inline signal (§3.2).
    const std::uint32_t from = e.clearScan;
    const std::uint32_t limit = e.ring.groupBase(e.cons);
    std::vector<mem::CoherentSystem::Span> clear_spans;
    Addr last_clear = ~Addr{0};
    for (std::uint32_t i = from; i != limit; ++i) {
        const Addr l = e.ring.lineOf(i);
        if (l != last_clear) {
            clear_spans.push_back({l, mem::kLineBytes});
            last_clear = l;
        }
    }
    if (clear_spans.empty())
        co_return;
    auto cleared = [ep, from, limit]() {
        for (std::uint32_t i = from; i != limit; ++i) {
            auto &slot = ep->ring.slot(i);
            slot.ready = false;
            slot.meta = kRxEmpty;
            slot.buf = nullptr;
            // Recycled lines start the next lap open.
            ep->ring.clearSeal(i);
        }
    };
    co_await mem_.postMulti(agent, clear_spans, std::move(cleared));
    noteSignalWrite(clear_spans.front().addr);
    e.clearScan = limit;
}

sim::Coro<int>
CcNic::txBurst(int q, PacketBuf **bufs, int count)
{
    // A quiescing/down device refuses bursts (the caller retries, as
    // against a wedged hardware queue). Checked before the op guard so
    // quiesce() cannot wait on a burst that would never finish.
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    RingEnd &tx = queue.tx;
    const auto &costs = cfg_.hostCosts;
    co_await sim_.delay(cycles(costs.perLoop));

    // Host-managed mode: reap TX completions (bookkeeping pass the
    // shared pool eliminates, §3.4).
    if (!cfg_.nicBufferMgmt) {
        std::vector<mem::CoherentSystem::Span> scan_spans;
        std::vector<PacketBuf *> to_free;
        auto reap = [&] {
            PacketBuf *&b = queue.txShadow[queue.txFreeScan &
                                           tx.ring.mask()];
            if (b)
                to_free.push_back(b);
            b = nullptr;
            queue.txFreeScan++;
        };
        if (cfg_.signal == SignalMode::Register) {
            if (queue.txFreeScan !=
                static_cast<std::uint32_t>(tx.head.value())) {
                noteSignalRead(queue, tx.head.addr());
                co_await mem_.load(queue.hostAgent, tx.head.addr(), 8);
                tx.headCache = tx.head.value();
            }
            while (queue.txFreeScan !=
                   static_cast<std::uint32_t>(tx.headCache))
                reap();
        } else {
            // Staged-but-unflushed slots are not `ready` either, but
            // they are pending work, not completions: stop the reap
            // scan before the staged region.
            const std::uint32_t reap_limit =
                tx.prod - queue.txPending.size();
            Addr last_line = ~Addr{0};
            while (queue.txFreeScan != reap_limit &&
                   !tx.ring.slot(queue.txFreeScan).ready) {
                const Addr l = tx.ring.lineOf(queue.txFreeScan);
                if (l != last_line) {
                    scan_spans.push_back({l, mem::kLineBytes});
                    last_line = l;
                }
                reap();
            }
            if (!scan_spans.empty())
                co_await mem_.accessMulti(queue.hostAgent, scan_spans,
                                          false);
        }
        if (!to_free.empty()) {
            co_await pool_->freeBurst(queue.hostAgent, to_free.data(),
                                      static_cast<int>(to_free.size()),
                                      q);
        }
    }

    // Capacity under register signaling: reload the head register
    // when the cached view looks full.
    if (cfg_.signal == SignalMode::Register) {
        auto space = [&] {
            return tx.ring.entries() - 1 -
                   (tx.prod - static_cast<std::uint32_t>(tx.headCache));
        };
        if (space() < static_cast<std::uint32_t>(count)) {
            noteSignalRead(queue, tx.head.addr());
            co_await mem_.load(queue.hostAgent, tx.head.addr(), 8);
            tx.headCache = tx.head.value();
        }
        count = std::min<std::uint32_t>(count, space());
    }

    // Writable slots. Inline: the ring is full where the consumer has
    // not cleared yet.
    const std::uint32_t first = tx.prod;
    int n = 0;
    while (n < count && !(cfg_.signal == SignalMode::Inline &&
                          tx.ring.slot(first + n).ready))
        n++;
    if (n == 0)
        co_return 0;

    // Lifecycle spans: activate the 1-in-N sampled slot on accepted
    // buffers only (rejected packets never entered the pipeline).
    for (int i = 0; i < n; ++i)
        obs::SpanTable::global().maybeStart(bufs[i]->span, sim_.now());
    const std::uint32_t next = padGroup(tx, first + n);

    co_await sim_.delay(cycles((costs.perPktTx + costs.perDesc) *
                               static_cast<double>(n)));
    // Software write-combining: retire the descriptors into the
    // host-side staging batch (no coherence traffic, no signal) and
    // publish when the batch fills, or at once with batching off. The
    // flush timer publishes a partial batch.
    tx.prod = next;
    queue.txSubmittedTotal += static_cast<std::uint64_t>(n);
    for (int i = 0; i < n; ++i)
        queue.txPending.stage(first + i, bufs[i], sim_.now());
    if (!cfg_.batch.enabled() || queue.txPending.full())
        co_await flushTx(q, FlushReason::Full);
    co_return n;
}

sim::Coro<void>
CcNic::flushTx(int q, FlushReason reason)
{
    Queue &queue = *queues_[q];
    // Work still outstanding behind this batch drives adaptive
    // growth: a backlogged device benefits from larger, rarer signal
    // writes.
    auto entries = takeBatch(q, queue.txPending, reason,
                             queue.tx.prod - queue.tx.cons);
    if (entries.empty())
        co_return;
    // One coalesced publication: every staged descriptor, its ready
    // flag, and the signal (line store or tail register) become
    // visible as a single posted-store group — one signal write for
    // the whole batch instead of one per burst.
    const Tick flush_now = sim_.now();
    for (const auto &e : entries)
        e.buf->span.stamp(obs::SpanStage::BatchFlush, flush_now);
    std::vector<PacketBuf *> *shadow =
        cfg_.nicBufferMgmt ? nullptr : &queue.txShadow;
    const std::uint32_t mask = queue.tx.ring.mask();
    auto fill = [shadow, mask](std::size_t,
                               const driver::PublishBatch::Entry &e,
                               driver::DescRing::Slot &slot) {
        slot.len = e.buf->wireLen();
        if (shadow)
            (*shadow)[e.idx & mask] = e.buf;
    };
    const std::uint32_t lines =
        co_await publish(queue.tx, queue.hostAgent, std::move(entries), {},
                         obs::SpanStage::DescPublish, std::move(fill));
    if (cfg_.signal == SignalMode::Inline && cfg_.nicBufferMgmt)
        grantAhead(queue.tx, queue.hostAgent, lines);
}

sim::Coro<int>
CcNic::rxBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    RingEnd &rx = queue.rx;
    const auto &costs = cfg_.hostCosts;
    co_await sim_.delay(cycles(costs.perLoop));

    // Integrity filter on the head RX line: a stale (torn/stuck)
    // view polls as empty; a poisoned line is retried inline.
    if (!co_await consumeGuard(rx.ring.lineOf(rx.cons), mem::kLineBytes))
        co_return 0;

    int collected = 0;
    std::vector<mem::CoherentSystem::Span> load_spans;

    if (cfg_.nicBufferMgmt) {
        // Register mode: reload the tail register when the cached
        // view looks empty.
        if (cfg_.signal == SignalMode::Register &&
            rx.cons == static_cast<std::uint32_t>(rx.tailCache)) {
            noteSignalRead(queue, rx.tail.addr());
            co_await mem_.load(queue.hostAgent, rx.tail.addr(), 8);
            rx.tailCache = rx.tail.value();
        }
        std::vector<Taken> taken;
        const std::uint32_t idx = consume(rx, count, taken, load_spans);
        if (taken.empty())
            co_return 0;
        for (const Taken &t : taken)
            bufs[collected++] = t.buf;
        rx.cons = idx;
        co_await mem_.accessMulti(queue.hostAgent, load_spans, false);
        co_await release(rx, queue.hostAgent);
    } else {
        // Host-managed path (PCIe-style): consume completed slots and
        // repost blank buffers.
        const std::uint32_t per_line = rx.ring.perLine();
        Addr last_load = ~Addr{0};
        std::uint32_t idx = rx.cons;
        while (collected < count &&
               rx.ring.slot(idx).meta == kRxCompleted) {
            if (!rx.ring.slotValid(idx)) {
                integrity_.noteReject();
                break; // Torn/corrupt completion: re-poll.
            }
            const Addr l = rx.ring.lineOf(idx);
            if (l != last_load) {
                load_spans.push_back({l, mem::kLineBytes});
                last_load = l;
            }
            auto &slot = rx.ring.slot(idx);
            bufs[collected++] = slot.buf;
            slot.meta = kRxEmpty;
            slot.buf = nullptr;
            slot.ready = false;
            rx.ring.clearStamp(idx);
            idx++;
        }
        if (collected > 0)
            co_await mem_.accessMulti(queue.hostAgent, load_spans,
                                      false);
        rx.cons = idx;

        // Repost: keep the ring full of blanks (bursted allocation).
        std::vector<mem::CoherentSystem::Span> post_spans;
        Addr last_post = ~Addr{0};
        std::vector<std::pair<std::uint32_t, PacketBuf *>> posts;
        const std::uint32_t avail_slots =
            rx.ring.entries() - per_line - (queue.rxPostProd - rx.cons);
        if (avail_slots > 0 && avail_slots <= rx.ring.entries()) {
            std::vector<PacketBuf *> blanks(avail_slots, nullptr);
            const int got = co_await pool_->allocBurst(
                queue.hostAgent, cfg_.pool.largeBufBytes,
                blanks.data(), static_cast<int>(avail_slots), q);
            for (int i = 0; i < got; ++i) {
                posts.emplace_back(queue.rxPostProd, blanks[i]);
                const Addr l = rx.ring.lineOf(queue.rxPostProd);
                if (l != last_post) {
                    post_spans.push_back({l, mem::kLineBytes});
                    last_post = l;
                }
                queue.rxPostProd++;
            }
        }
        if (!posts.empty()) {
            RingEnd *ep = &rx;
            auto posted = [ep, posts]() {
                for (const auto &[i, b] : posts) {
                    auto &slot = ep->ring.slot(i);
                    slot.buf = b;
                    slot.meta = kRxPosted;
                    ep->ring.stampSlot(i);
                }
            };
            co_await mem_.postMulti(queue.hostAgent, post_spans,
                                    std::move(posted));
            if (cfg_.signal == SignalMode::Register) {
                noteSignalWrite(rx.head.addr());
                co_await mem_.store(queue.hostAgent, rx.head.addr(), 8);
                rx.head.publish(queue.rxPostProd);
            }
        }
    }

    if (collected > 0) {
        co_await sim_.delay(
            cycles((costs.perPktRx + costs.perDesc) * collected));
        queue.rxDeliveredTotal += static_cast<std::uint64_t>(collected);
        rxDelivered_ += static_cast<std::uint64_t>(collected);
        // Close out sampled lifecycle spans: the buffers are in the
        // app's hands as of now.
        for (int i = 0; i < collected; ++i) {
            if (bufs[i]->span.active) {
                obs::SpanTable::global().commit(cfg_.spanPath,
                                                bufs[i]->span,
                                                sim_.now());
            }
        }
    }
    co_return collected;
}

sim::Coro<void>
CcNic::idleWait(int q, Tick deadline)
{
    Queue &queue = *queues_[q];
    Addr watch;
    if (cfg_.signal == SignalMode::Register && cfg_.nicBufferMgmt)
        watch = queue.rx.tail.addr();
    else
        watch = queue.rx.ring.lineOf(queue.rx.cons);
    // Bounded like every engine wait: reset() rewinds rx.cons to slot
    // 0 and restarts delivery there, so a waiter parked on the old
    // consumer line would otherwise sleep through the whole recovery.
    return parkOnLine(watch, deadline);
}

sim::Task
CcNic::nicTxTask(int q)
{
    Queue &queue = *queues_[q];
    RingEnd &tx = queue.tx;
    const auto &costs = cfg_.nicCosts;

    for (;;) {
        co_await parkWhileDown();

        // Wait for work. Line parks are bounded, so a lifecycle
        // transition is observed promptly even when the host has gone
        // quiet.
        if (cfg_.signal == SignalMode::Inline) {
            const Addr line = tx.ring.lineOf(tx.cons);
            noteSignalRead(queue, line);
            co_await mem_.load(queue.nicAgent, line, mem::kLineBytes);
            auto &head = tx.ring.slot(tx.cons);
            if (!head.ready || head.meta == kConsumed) {
                co_await parkOnLine(line);
                continue;
            }
        } else if (static_cast<std::uint32_t>(tx.tailCache) == tx.cons) {
            const Addr line = tx.tail.addr();
            noteSignalRead(queue, line);
            co_await mem_.load(queue.nicAgent, line, 8);
            tx.tailCache = tx.tail.value();
            if (static_cast<std::uint32_t>(tx.tailCache) == tx.cons) {
                co_await parkOnLine(line);
                continue;
            }
        }

        if (!co_await takeTxCore(q))
            continue;

        // Integrity filter on the head descriptor line before
        // trusting its content (poison retried, stale re-polled).
        {
            const Addr head_line = tx.ring.lineOf(tx.cons);
            if (!co_await consumeGuard(head_line, mem::kLineBytes)) {
                releaseCore(q);
                co_await parkOnLine(head_line);
                continue;
            }
        }

        // Gather a batch of submitted descriptors.
        std::vector<Taken> batch;
        std::vector<mem::CoherentSystem::Span> desc_spans;
        const std::uint32_t idx = consume(tx, kNicBatch, batch, desc_spans);
        if (batch.empty()) {
            releaseCore(q);
            continue;
        }

        // The NIC has observed the signal and taken the descriptors.
        for (const Taken &t : batch) {
            if (t.buf)
                t.buf->span.stamp(obs::SpanStage::NicObserve,
                                  sim_.now());
        }

        // Descriptor and payload reads. The CC-NIC engine pipelines
        // across the whole batch; the E810-emulation baseline handles
        // one descriptor at a time, serializing the address-dependent
        // descriptor-then-payload chain (§5.1).
        if (cfg_.nicPipelined) {
            co_await mem_.accessMulti(queue.nicAgent, desc_spans,
                                      false);
            std::vector<mem::CoherentSystem::Span> payload_spans;
            for (const Taken &t : batch) {
                payload_spans.push_back({t.buf->addr, t.buf->len});
                if (t.buf->nextSeg) {
                    payload_spans.push_back(
                        {t.buf->nextSeg->addr, t.buf->segLen});
                }
            }
            co_await mem_.accessMulti(queue.nicAgent, payload_spans,
                                      false);
        } else {
            for (const Taken &t : batch) {
                co_await mem_.load(queue.nicAgent,
                                   tx.ring.addrOf(t.idx), 16);
                std::vector<mem::CoherentSystem::Span> one{
                    {t.buf->addr, t.buf->len}};
                if (t.buf->nextSeg)
                    one.push_back({t.buf->nextSeg->addr, t.buf->segLen});
                co_await mem_.accessMulti(queue.nicAgent, one, false);
            }
        }
        co_await sim_.delay(
            cycles((costs.perPktRx + costs.perDesc) *
                   static_cast<double>(batch.size())));

        // Signal consumption.
        tx.cons = idx;
        queue.txCompletedTotal += batch.size();
        co_await release(tx, queue.nicAgent);

        // Hand to the wire before buffer release (segment metadata is
        // consumed by delivery).
        for (const Taken &t : batch) {
            if (!t.buf)
                continue;
            deliverTx(q, driver::wireFrom(*t.buf, t.len));
        }

        // Buffer management: the NIC returns TX buffers to the shared
        // pool (§3.4); in host-managed mode the host reaps instead.
        if (cfg_.nicBufferMgmt) {
            std::vector<PacketBuf *> frees;
            for (const Taken &t : batch) {
                if (t.buf) {
                    if (t.buf->nextSeg)
                        t.buf->nextSeg = nullptr;
                    frees.push_back(t.buf);
                }
            }
            if (!frees.empty())
                co_await pool_->freeBurst(queue.nicAgent, frees.data(),
                                          static_cast<int>(
                                              frees.size()),
                                          q);
        }

        releaseCore(q);
    }
}

sim::Task
CcNic::nicRxTask(int q)
{
    Queue &queue = *queues_[q];
    RingEnd &rx = queue.rx;
    const auto &costs = cfg_.nicCosts;
    const std::uint32_t per_line = rx.ring.perLine();

    for (;;) {
        co_await parkWhileDown();
        WirePacket first = co_await port(q).rxInput.get();
        co_await takeRxCore(q);
        std::vector<WirePacket> batch = gatherWire(q, std::move(first));

        // The buffer each packet lands in (null: it found none).
        std::vector<PacketBuf *> out(batch.size(), nullptr);
        bool abandoned = false;
        if (cfg_.nicBufferMgmt) {
            // Allocate RX buffers NIC-side, size-aware (§3.4). The
            // recycling stacks make these the most recently freed TX
            // buffers, still in the NIC cache (§3.3).
            // Burst-allocate per size class (§3.4: the NIC assigns
            // buffers with knowledge of the whole burst).
            const std::uint32_t small_cap =
                cfg_.pool.smallBuffers ? cfg_.pool.smallBufBytes : 0;
            for (int pass = 0; pass < 2; ++pass) {
                std::vector<std::size_t> want;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    const bool is_small = batch[i].len <= small_cap;
                    if ((pass == 0) == is_small)
                        want.push_back(i);
                }
                if (want.empty())
                    continue;
                std::vector<PacketBuf *> got(want.size(), nullptr);
                const std::uint32_t hint =
                    pass == 0 ? small_cap : cfg_.pool.largeBufBytes;
                int n = co_await pool_->allocBurst(
                    queue.nicAgent, hint, got.data(),
                    static_cast<int>(got.size()), q);
                for (int k = 0; k < n; ++k)
                    out[want[static_cast<std::size_t>(k)]] = got[k];
            }

            // Wait for ring space if the host is behind. Waits are
            // bounded so a quiesce (host no longer clearing the ring)
            // cannot park this engine forever while it holds the core:
            // once the device leaves Running, abandon the batch.
            while (true) {
                if (devState_ != DevState::Running) {
                    abandoned = true;
                    break;
                }
                std::uint32_t needed = 0;
                for (std::size_t i = 0; i < batch.size(); ++i)
                    needed += out[i] != nullptr;
                if (needed == 0)
                    break;
                const std::uint32_t last_slot = rx.prod + needed - 1;
                if (cfg_.signal == SignalMode::Inline) {
                    if (!rx.ring.slot(last_slot).ready)
                        break;
                    co_await parkOnLine(rx.ring.lineOf(last_slot));
                    continue;
                }
                auto space = [&] {
                    return rx.ring.entries() - 1 -
                           (rx.prod -
                            static_cast<std::uint32_t>(rx.headCache));
                };
                if (space() >= needed)
                    break;
                const Addr line = rx.head.addr();
                noteSignalRead(queue, line);
                co_await mem_.load(queue.nicAgent, line, 8);
                rx.headCache = rx.head.value();
                if (space() < needed)
                    co_await parkOnLine(line);
            }
            if (abandoned) {
                // Return the batch's buffers; the packets are dropped
                // (the device is going down — peers retransmit).
                std::vector<PacketBuf *> give;
                for (PacketBuf *b : out) {
                    if (b)
                        give.push_back(b);
                }
                if (!give.empty()) {
                    co_await pool_->freeBurst(
                        queue.nicAgent, give.data(),
                        static_cast<int>(give.size()), q);
                }
            }
        } else {
            // Host-posted buffers (PCIe-style): wait for blanks in
            // order. Bounded waits, as above: a host that stopped
            // posting (quiesce) must not park this engine while it holds
            // the core.
            std::uint32_t post_idx = rx.prod;
            for (std::size_t i = 0; i < batch.size() && !abandoned; ++i) {
                while (rx.ring.slot(post_idx).meta != kRxPosted) {
                    if (devState_ != DevState::Running) {
                        abandoned = true;
                        break;
                    }
                    const Addr line = rx.ring.lineOf(post_idx);
                    noteSignalRead(queue, line);
                    co_await mem_.load(queue.nicAgent, line,
                                       mem::kLineBytes);
                    if (rx.ring.slot(post_idx).meta == kRxPosted)
                        break;
                    co_await parkOnLine(line);
                }
                if (!abandoned)
                    out[i] = rx.ring.slot(post_idx++).buf;
            }
            // Abandoned: the remaining packets are dropped; posted
            // blanks stay in the ring (reset() reclaims them).
        }
        if (abandoned) {
            releaseCore(q);
            continue;
        }

        // Write payloads and descriptors together (posted stores).
        std::vector<std::uint32_t> payload;
        std::vector<WirePacket> wires;
        std::vector<PacketBuf *> placed;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (!out[i])
                continue;
            placed.push_back(out[i]);
            wires.push_back(batch[i]);
            payload.push_back(batch[i].len);
        }
        // Host-posted slots are completed in order, never skipped.
        const std::uint32_t first_slot = rx.prod;
        std::uint32_t next =
            first_slot + static_cast<std::uint32_t>(placed.size());
        if (cfg_.nicBufferMgmt)
            next = padGroup(rx, next);
        co_await sim_.delay(
            cycles((costs.perPktTx + costs.perDesc) *
                   static_cast<double>(placed.size())));
        rx.prod = next;
        // The device publishes once per gathered batch (the mailbox
        // drain already coalesces arrivals); route it through the
        // batch accumulator so the adaptive target and occupancy
        // metrics see it. A drain that emptied the wire below target
        // is an idle flush; a full gather is a target-size flush.
        for (std::size_t k = 0; k < placed.size(); ++k) {
            queue.rxDevPending.stage(
                first_slot + static_cast<std::uint32_t>(k), placed[k],
                sim_.now());
        }
        auto entries = takeBatch(
            q, queue.rxDevPending,
            queue.rxDevPending.full() ? FlushReason::Full
                                      : FlushReason::Idle,
            static_cast<std::uint32_t>(port(q).rxInput.size()));
        const bool completion = !cfg_.nicBufferMgmt;
        auto fill = [wires = std::move(wires), completion](
                        std::size_t k, const driver::PublishBatch::Entry &e,
                        driver::DescRing::Slot &slot) {
            // Overwrites any stale span slot on the recycled buffer.
            driver::fillFromWire(*e.buf, wires[k]);
            slot.len = e.buf->len;
            if (completion)
                slot.meta = kRxCompleted;
        };
        co_await publish(rx, queue.nicAgent, std::move(entries),
                         std::move(payload), obs::SpanStage::RxPublish,
                         std::move(fill));
        if (cfg_.nicBufferMgmt && cfg_.signal == SignalMode::Inline) {
            // Grant-ahead the next RX ring lines (§3.2).
            grantAhead(rx, queue.nicAgent,
                       std::max<std::uint32_t>(
                           1, static_cast<std::uint32_t>(placed.size()) /
                                  per_line));
        }

        endRxBatch(q);
    }
}

} // namespace ccn::ccnic
