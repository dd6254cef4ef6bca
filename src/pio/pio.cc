#include "pio/pio.hh"

#include <algorithm>

namespace ccn::pio {

using driver::PacketBuf;
using mem::Addr;
using sim::Tick;

Config
upiConfig(int num_queues, int host_socket)
{
    Config cfg;
    cfg.numQueues = num_queues;
    cfg.deviceHomedRx = true;
    cfg.devExtraLat = 0;
    cfg.spanPath = "pio";
    cfg.pool.sharedAccess = true;
    cfg.pool.recycleCache = true;
    cfg.pool.smallBuffers = true;
    cfg.pool.nonSequentialFill = true;
    cfg.pool.homeSocket = host_socket;
    cfg.pool.sizeFor(cfg.numQueues, cfg.numSlots);
    return cfg;
}

Config
upiConfig(int num_queues, int host_socket,
          const mem::PlatformConfig &plat)
{
    Config cfg = upiConfig(num_queues, host_socket);
    cfg.hostCosts = ccnic::platformCosts(plat);
    cfg.nicCosts = ccnic::platformCosts(plat);
    return cfg;
}

Config
cxlConfig(int num_queues, int host_socket,
          const mem::PlatformConfig &plat)
{
    Config cfg = upiConfig(num_queues, host_socket, plat);
    // A CXL.cache (Type 1) device caches host memory but exports
    // none, so both slot arrays are host-homed; every device-side
    // access additionally crosses the CXL port, which today costs
    // tens of nanoseconds over a symmetric CPU interconnect hop.
    cfg.deviceHomedRx = false;
    cfg.devExtraLat = sim::fromNs(40.0);
    cfg.spanPath = "pio_cxl";
    return cfg;
}

PioNic::SlotArray::SlotArray(mem::CoherentSystem &m, int home_socket,
                             const Config &cfg)
    : base(m.alloc(home_socket,
                   static_cast<std::uint64_t>(cfg.numSlots) * kSlotBytes,
                   mem::kLineBytes)),
      mask(cfg.numSlots - 1),
      slots(cfg.numSlots),
      credits(cfg.batch)
{}

PioNic::Queue::Queue(mem::CoherentSystem &m, const Config &cfg,
                     int host_socket, int nic_socket)
    : hostAgent(m.addAgent(host_socket)),
      nicAgent(m.addAgent(nic_socket)),
      tx(m, host_socket, cfg),
      rx(m, cfg.deviceHomedRx ? nic_socket : host_socket, cfg)
{}

PioNic::PioNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
               const Config &config, int host_socket, int nic_socket,
               sim::Rng &rng)
    : NicInterface(sim, mem_system,
                   {.prefix = "pio",
                    .numQueues = config.numQueues,
                    .reinitLat = mem_system.config().cycles(
                        config.nicCosts.perLoop * 8),
                    .engineBatch = kNicBatch,
                    .loopback = config.loopback}),
      cfg_(config)
{
    cfg_.pool.homeSocket = host_socket;
    // Slot index arithmetic masks with numSlots-1, and one device
    // burst must fit the array (placement must not wrap onto itself).
    cfg_.numSlots = driver::DescRing::roundUpPow2(
        std::max(cfg_.numSlots, kNicBatch));
    // Clamp the credit-coalescing target to a quarter of the slot
    // array: held credits shrink the flow-control window, and a target
    // at or above numSlots would wedge the producer permanently.
    cfg_.batch.clampTo(cfg_.numSlots / 4);
    pool_ = std::make_unique<driver::Mempool>(mem_, cfg_.pool, rng);
    for (int q = 0; q < cfg_.numQueues; ++q) {
        queues_.push_back(
            std::make_unique<Queue>(mem_, cfg_, host_socket, nic_socket));
        queues_.back()->polls =
            &slotPollsQ_.at(static_cast<std::uint64_t>(q));
    }
    hostBeat_ =
        std::make_unique<driver::RegisterLine>(mem_, host_socket);
    nicBeat_ = std::make_unique<driver::RegisterLine>(mem_, nic_socket);
    registerProfRegions();
}

void
PioNic::registerProfRegions()
{
    auto &prof = mem_.profiler();
    // Every slot line is an intentional two-way handoff: the producer
    // publishes and the consumer flips the credit back in place.
    const auto intent = obs::RegionIntent::TwoWay;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(cfg_.numSlots) * kSlotBytes;
    for (std::size_t q = 0; q < queues_.size(); ++q) {
        const auto qi = "[q" + std::to_string(q) + "]";
        const Queue &qu = *queues_[q];
        for (const auto &[name, a] : {std::pair{".tx_slots", &qu.tx},
                                      std::pair{".rx_slots", &qu.rx}}) {
            profRegions_.push_back(prof.registerRegion(
                cfg_.spanPath + name + qi, a->base, bytes, intent));
        }
    }
    profRegions_.push_back(
        prof.registerRegion(cfg_.spanPath + ".host_beat",
                            hostBeat_->addr(), mem::kLineBytes, intent));
    profRegions_.push_back(
        prof.registerRegion(cfg_.spanPath + ".nic_beat",
                            nicBeat_->addr(), mem::kLineBytes, intent));
}

void
PioNic::spawnEngines(int q)
{
    sim_.spawn(devTxTask(q));
    sim_.spawn(devRxTask(q));
}

mem::AgentId
PioNic::hostAgent(int q) const
{
    return queues_[q]->hostAgent;
}

std::vector<mem::Addr>
PioNic::faultLines() const
{
    // Queue-0's live slot lines: the device's TX consumer slot and
    // the host's RX consumer slot.
    const Queue &q = *queues_[0];
    return {q.tx.lineOf(q.tx.cons), q.rx.lineOf(q.rx.cons)};
}

driver::QueueHealth
PioNic::health(int q) const
{
    const Queue &queue = *queues_[q];
    driver::QueueHealth h;
    h.txSubmitted = queue.txSubmittedTotal;
    h.txCompleted = queue.txCompletedTotal;
    h.rxDelivered = queue.rxDeliveredTotal;
    h.txOutstanding = queue.tx.prod - queue.tx.cons;
    return h;
}

std::vector<PacketBuf *>
PioNic::reclaimSlots(int q)
{
    Queue &queue = *queues_[q];
    // Reclaim every slot-held spill buffer. Inline messages hold
    // no buffer; a Taken RX slot's spill already changed hands at
    // reap, so only slots still pointing at one are device-owned.
    std::vector<PacketBuf *> held;
    for (SlotArray *a : {&queue.tx, &queue.rx}) {
        for (MsgSlot &s : a->slots) {
            if (s.spill)
                held.push_back(s.spill);
            s = MsgSlot{};
        }
    }
    // Drop wire-side packets queued into the dead device.
    port(q).rxInput.clear();
    return held;
}

void
PioNic::rewindQueue(int q)
{
    Queue &queue = *queues_[q];
    // Pending credit flushes reference slots the sweep freed; drop
    // them (the entries carry no buffers).
    for (SlotArray *a : {&queue.tx, &queue.rx}) {
        (void)a->credits.discard();
        a->prod = a->cons = a->seq = a->seqSeen = 0;
    }
}

sim::Coro<int>
PioNic::txBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    const auto &costs = cfg_.hostCosts;
    co_await sim_.delay(cycles(costs.perLoop));

    // Claim free slots. The credit check is a local spin on the slot's
    // state word: the device's credit write invalidated our copy, so a
    // slot that looks Free is Free.
    std::vector<Msg> pending;
    std::vector<mem::CoherentSystem::Span> spans;
    std::vector<PacketBuf *> frees;
    std::uint32_t idx = queue.tx.prod;
    for (int i = 0; i < count; ++i, ++idx) {
        if (queue.tx.slot(idx).state != SlotState::Free) {
            creditStalls_++;
            break; // Slot array full: credits not yet returned.
        }
        PacketBuf *b = bufs[i];
        // Lifecycle spans: activate the 1-in-N sampled slot on
        // accepted buffers only.
        obs::SpanTable::global().maybeStart(b->span, sim_.now());
        // The span rides in the slot from here; inline TX buffers are
        // recycled immediately and must not keep an active slot.
        WirePacket msg = driver::wireFrom(*b, b->wireLen());
        // Inline messages: the payload now lives in the slot lines, so
        // the source buffer goes straight back to the (host-local)
        // recycle stack — there is no TX completion to reap. Spilled
        // buffers pass to the device, which frees them after reading
        // the payload.
        const bool spilled = msg.len > kInlineBytes;
        if (spilled) {
            spills_++;
        } else {
            msg.segments = 1; // The slot carries both segments inline.
            frees.push_back(b);
        }
        pending.push_back({idx, msg, spilled ? b : nullptr});
        spans.push_back({queue.tx.lineOf(idx), kSlotBytes});
    }
    if (pending.empty())
        co_return 0;
    const int n = static_cast<int>(pending.size());

    co_await sim_.delay(cycles(costs.perPktTx * static_cast<double>(n)));

    // PIO TX has no host-side staging — the slot stores *are* the
    // signal — so BatchFlush coincides with publish initiation.
    for (Msg &m : pending)
        m.msg.span.stamp(obs::SpanStage::BatchFlush, sim_.now());

    // Posted stores of the slot lines: header + inline payload + the
    // Ready flip travel as one write burst; message state is published
    // at store visibility (TSO orders the flip last).
    queue.txSubmittedTotal += static_cast<std::uint64_t>(n);
    co_await publish(queue.tx, queue.hostAgent, spans, std::move(pending),
                     obs::SpanStage::DescPublish);
    noteSlotWrite(spans.front().addr);

    if (!frees.empty()) {
        co_await pool_->freeBurst(queue.hostAgent, frees.data(),
                                  static_cast<int>(frees.size()), q);
    }
    co_return n;
}

sim::Task
PioNic::devTxTask(int q)
{
    Queue &queue = *queues_[q];
    SlotArray &tx = queue.tx;
    const auto &costs = cfg_.nicCosts;

    for (;;) {
        co_await parkWhileDown();

        // Poll the head TX slot: a free local spin until the host's
        // store invalidates our copy, then one (remote) reload.
        const Addr line = tx.lineOf(tx.cons);
        noteSlotPoll(queue, line);
        co_await mem_.load(queue.nicAgent, line, kSlotBytes);
        co_await devPortDelay();
        // Integrity gate: a poisoned or stale (torn/stuck) slot line
        // must not be trusted; park until it heals or the beat expires.
        if (!co_await consumeGuard(line, kSlotBytes) ||
            tx.slot(tx.cons).state != SlotState::Ready) {
            co_await parkOnLine(line);
            continue;
        }

        if (!co_await takeTxCore(q))
            continue;

        // Gather a batch of Ready slots; they are taken once the reads
        // are done (the host sees them as not Free either way, and the
        // held core keeps a reset from sweeping them meanwhile).
        std::vector<mem::CoherentSystem::Span> spans;
        std::vector<Msg> batch = gather(tx, kNicBatch, spans);
        if (batch.empty()) {
            releaseCore(q);
            continue;
        }
        for (Msg &m : batch)
            m.msg.span.stamp(obs::SpanStage::NicObserve, sim_.now());

        // Slot-line reads carry header and inline payload together;
        // spilled payloads are fetched from their pool buffers.
        co_await mem_.accessMulti(queue.nicAgent, spans, false);
        co_await devPortDelay();
        std::vector<mem::CoherentSystem::Span> payload_spans;
        for (const Msg &m : batch) {
            if (m.spill) {
                payload_spans.push_back({m.spill->addr, m.spill->len});
                if (m.spill->nextSeg) {
                    payload_spans.push_back(
                        {m.spill->nextSeg->addr, m.spill->segLen});
                }
            }
        }
        if (!payload_spans.empty()) {
            co_await mem_.accessMulti(queue.nicAgent, payload_spans,
                                      false);
            co_await devPortDelay();
        }
        co_await sim_.delay(
            cycles(costs.perPktRx * static_cast<double>(batch.size())));

        // Credit return: flip the consumed slots back to Free in slot
        // metadata (posted stores; the host's capacity check sees the
        // flip at visibility). Coalescing holds the credits until
        // enough accumulate or the head runs dry (an idle device
        // flushes immediately so a stalled producer never waits on a
        // timer); with batching off they return now.
        take(tx, static_cast<std::uint32_t>(batch.size()));
        queue.txCompletedTotal += batch.size();
        for (const Msg &m : batch)
            tx.credits.stage(m.idx, nullptr, sim_.now());
        if (!cfg_.batch.enabled() || tx.credits.full()) {
            co_await flushCredits(q, tx, FlushReason::Full,
                                  tx.prod - tx.cons);
        } else if (tx.slot(tx.cons).state != SlotState::Ready) {
            co_await flushCredits(q, tx, FlushReason::Idle,
                                  tx.prod - tx.cons);
        }

        // Hand to the wire before buffer release.
        for (const Msg &m : batch)
            deliverTx(q, m.msg);

        std::vector<PacketBuf *> frees;
        for (const Msg &m : batch) {
            if (m.spill) {
                m.spill->nextSeg = nullptr;
                frees.push_back(m.spill);
            }
        }
        if (!frees.empty()) {
            co_await pool_->freeBurst(queue.nicAgent, frees.data(),
                                      static_cast<int>(frees.size()),
                                      q);
        }

        releaseCore(q);
    }
}

sim::Task
PioNic::devRxTask(int q)
{
    Queue &queue = *queues_[q];
    SlotArray &rx = queue.rx;
    const auto &costs = cfg_.nicCosts;

    for (;;) {
        co_await parkWhileDown();
        WirePacket first = co_await port(q).rxInput.get();
        co_await takeRxCore(q);
        std::vector<WirePacket> batch = gatherWire(q, std::move(first));

        // Place each message into the next Free RX slot. Waits are
        // bounded so a quiesce (host no longer returning credits)
        // cannot park this engine while it holds the core.
        std::vector<Msg> placed;
        std::vector<mem::CoherentSystem::Span> spans;
        bool abandoned = false;
        std::uint32_t idx = rx.prod;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            while (rx.slot(idx).state != SlotState::Free) {
                if (devState_ != DevState::Running) {
                    abandoned = true;
                    break;
                }
                const Addr line = rx.lineOf(idx);
                noteSlotPoll(queue, line);
                co_await mem_.load(queue.nicAgent, line, kSlotBytes);
                co_await devPortDelay();
                if (rx.slot(idx).state == SlotState::Free)
                    break;
                co_await parkOnLine(line);
            }
            if (abandoned)
                break;
            PacketBuf *spill = nullptr;
            if (batch[i].len > kInlineBytes) {
                // Oversized frame: the payload spills to a pool buffer
                // allocated device-side (recycle stacks make it the
                // most recently freed one, still device-cached).
                const int got = co_await pool_->allocBurst(
                    queue.nicAgent, batch[i].len, &spill, 1, q);
                if (got == 0 || !spill) {
                    rxNoBuf_++;
                    continue; // Drop; the slot stays available.
                }
                spill->len = batch[i].len;
            }
            spans.push_back({rx.lineOf(idx), kSlotBytes});
            if (spill)
                spans.push_back({spill->addr, batch[i].len});
            placed.push_back({idx++, batch[i], spill});
        }
        if (abandoned) {
            std::vector<PacketBuf *> give;
            for (const Msg &m : placed) {
                if (m.spill)
                    give.push_back(m.spill);
            }
            if (!give.empty()) {
                co_await pool_->freeBurst(queue.nicAgent, give.data(),
                                          static_cast<int>(give.size()),
                                          q);
            }
        } else if (!placed.empty()) {
            co_await sim_.delay(cycles(
                costs.perPktTx * static_cast<double>(placed.size())));

            // Publish messages (and spilled payloads) with posted
            // stores; the Ready flip becomes visible at store
            // completion, which is what wakes the host's idleWait.
            co_await publish(rx, queue.nicAgent, spans, std::move(placed),
                             obs::SpanStage::RxPublish);
            co_await devPortDelay();
            noteSlotWrite(spans.front().addr);
        }

        if (abandoned)
            releaseCore(q);
        else
            endRxBatch(q);
    }
}

sim::Coro<int>
PioNic::rxBurst(int q, PacketBuf **bufs, int count)
{
    if (devState_ != DevState::Running)
        co_return 0;
    OpScope guard(hostOps_);
    Queue &queue = *queues_[q];
    SlotArray &rx = queue.rx;
    const auto &costs = cfg_.hostCosts;
    co_await sim_.delay(cycles(costs.perLoop));

    // Integrity gate on the consumer slot line: a poisoned or stale
    // view must not be trusted; retry on the next poll.
    if (!co_await consumeGuard(rx.lineOf(rx.cons), kSlotBytes))
        co_return 0;

    // Gather Ready slots (local spin: no charge while nothing new).
    std::vector<mem::CoherentSystem::Span> spans;
    std::vector<Msg> got = gather(rx, count, spans);
    if (got.empty())
        co_return 0;

    // Inline messages need a host-local buffer to land in; spilled
    // ones already carry the device-filled pool buffer. If the pool
    // comes up short, leave the uncovered tail Ready for next time.
    const int inline_need = static_cast<int>(std::count_if(
        got.begin(), got.end(), [](const Msg &m) { return !m.spill; }));
    std::vector<PacketBuf *> fresh(
        static_cast<std::size_t>(std::max(inline_need, 1)), nullptr);
    if (inline_need > 0) {
        const int fresh_got = co_await pool_->allocBurst(
            queue.hostAgent, kInlineBytes, fresh.data(), inline_need, q);
        if (fresh_got < inline_need) {
            std::size_t keep = 0;
            int inline_seen = 0;
            for (; keep < got.size(); ++keep) {
                if (!got[keep].spill && ++inline_seen > fresh_got)
                    break;
            }
            if (keep == 0)
                co_return 0;
            got.resize(keep);
            spans.resize(keep);
        }
    }

    // Take the slots and charge the reap reads (slot lines carry the
    // inline payload, so this is the whole cross-socket transfer).
    take(rx, static_cast<std::uint32_t>(got.size()));
    std::vector<mem::CoherentSystem::Span> copy_spans;
    int fresh_next = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        PacketBuf *b = got[i].spill;
        if (!b) {
            b = fresh[static_cast<std::size_t>(fresh_next++)];
            // The inline payload is copied into a host-local recycled
            // buffer: the stores below hit local lines, and the app's
            // subsequent payload reads are cache hits rather than the
            // cross-socket reads the ring interfaces pay.
            copy_spans.push_back({b->addr, std::max<std::uint32_t>(
                                               got[i].msg.len, 1)});
        }
        driver::fillFromWire(*b, got[i].msg);
        bufs[i] = b;
    }

    co_await mem_.accessMulti(queue.hostAgent, spans, false);
    if (!copy_spans.empty())
        co_await mem_.accessMulti(queue.hostAgent, copy_spans, true);
    co_await sim_.delay(
        cycles(costs.perPktRx * static_cast<double>(got.size())));

    // Credit return: posted stores flipping the slots Free. Under
    // coalescing the slots stay Taken (consumer-private) until enough
    // credits accumulate; the flush timer bounds the hold.
    for (const Msg &m : got)
        rx.credits.stage(m.idx, nullptr, sim_.now());
    if (!cfg_.batch.enabled() || rx.credits.full()) {
        co_await flushCredits(
            q, rx, FlushReason::Full,
            static_cast<std::uint32_t>(port(q).rxInput.size()));
    }

    const int n = static_cast<int>(got.size());
    queue.rxDeliveredTotal += static_cast<std::uint64_t>(n);
    rxDelivered_ += static_cast<std::uint64_t>(n);
    for (int i = 0; i < n; ++i) {
        if (bufs[i]->span.active) {
            obs::SpanTable::global().commit(cfg_.spanPath,
                                            bufs[i]->span, sim_.now());
        }
    }
    co_return n;
}

sim::Coro<void>
PioNic::publish(SlotArray &a, mem::AgentId agent,
                const std::vector<mem::CoherentSystem::Span> &spans,
                std::vector<Msg> msgs, obs::SpanStage stage)
{
    a.prod += static_cast<std::uint32_t>(msgs.size());
    auto ready = [&a, msgs = std::move(msgs), stage, simp = &sim_]() {
        for (const Msg &m : msgs) {
            MsgSlot &s = a.slot(m.idx);
            s.msg = m.msg;
            s.msg.span.stamp(stage, simp->now());
            s.spill = m.spill;
            s.seq = ++a.seq;
            s.state = SlotState::Ready;
        }
    };
    return mem_.postMulti(agent, spans, std::move(ready));
}

std::vector<PioNic::Msg>
PioNic::gather(SlotArray &a, int max,
               std::vector<mem::CoherentSystem::Span> &lines)
{
    std::vector<Msg> msgs;
    for (std::uint32_t idx = a.cons; static_cast<int>(msgs.size()) < max;
         ++idx) {
        const MsgSlot &s = a.slot(idx);
        if (s.state != SlotState::Ready)
            break;
        if (s.seq != a.seqSeen + static_cast<std::uint32_t>(msgs.size()) +
                         1) {
            integrity_.noteReject();
            break; // Torn publish: re-poll after the store lands.
        }
        msgs.push_back({idx, s.msg, s.spill});
        lines.push_back({a.lineOf(idx), kSlotBytes});
    }
    return msgs;
}

void
PioNic::take(SlotArray &a, std::uint32_t n)
{
    for (std::uint32_t k = 0; k < n; ++k) {
        MsgSlot &s = a.slot(a.cons + k);
        s.state = SlotState::Taken;
        s.spill = nullptr;
    }
    a.cons += n;
    a.seqSeen += n;
}

sim::Coro<void>
PioNic::flushCredits(int q, SlotArray &a, FlushReason reason,
                     std::uint32_t backlog)
{
    Queue &queue = *queues_[q];
    const auto entries = takeBatch(q, a.credits, reason, backlog);
    if (entries.empty())
        co_return;

    std::vector<mem::CoherentSystem::Span> spans;
    for (const auto &e : entries)
        spans.push_back({a.lineOf(e.idx), kSlotBytes});
    auto freed = [&a, entries]() {
        for (const auto &e : entries) {
            MsgSlot &s = a.slot(e.idx);
            s.msg = WirePacket{};
            s.state = SlotState::Free;
        }
    };
    // The consumer returns the credit; only device writes cross the
    // CXL port.
    const bool device = &a == &queue.tx;
    co_await mem_.postMulti(device ? queue.nicAgent : queue.hostAgent,
                            spans, std::move(freed));
    if (device)
        co_await devPortDelay();
    noteSlotWrite(spans.front().addr);
    co_return;
}

sim::Coro<void>
PioNic::idleWait(int q, Tick deadline)
{
    const SlotArray &rx = queues_[q]->rx;
    // The host's next RX work lands in its consumer slot; park on that
    // line and let the device's publish invalidation wake us. Bounded:
    // reset() rewinds rx.cons, so a waiter must re-check within a beat.
    return parkOnLine(rx.lineOf(rx.cons), deadline);
}

} // namespace ccn::pio
