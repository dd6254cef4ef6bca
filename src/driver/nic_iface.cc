#include "driver/nic_iface.hh"

#include <algorithm>
#include <cassert>
#include <set>

#include "obs/span.hh"
#include "obs/trace.hh"

namespace ccn::driver {

namespace {

/** Stable storage for tracepoint names built at run time (TraceEvent
 *  keeps a raw pointer that must outlive the device). */
const char *
internName(const std::string &name)
{
    static std::set<std::string> names;
    return names.insert(name).first->c_str();
}

} // namespace

std::uint32_t
wireFcs(const WirePacket &pkt)
{
    // CRC-32C (Castagnoli) over the logical field words.
    const std::uint64_t words[] = {
        pkt.len,
        pkt.flowId,
        pkt.userData,
        static_cast<std::uint64_t>(pkt.segments) |
            (static_cast<std::uint64_t>(pkt.dst) << 8),
        static_cast<std::uint64_t>(pkt.tp.srcConn) |
            (static_cast<std::uint64_t>(pkt.tp.dstConn) << 32),
        static_cast<std::uint64_t>(pkt.tp.seq) |
            (static_cast<std::uint64_t>(pkt.tp.ack) << 32),
        pkt.tp.sack,
        static_cast<std::uint64_t>(pkt.tp.credits) |
            (static_cast<std::uint64_t>(pkt.tp.flags) << 16),
    };
    std::uint32_t crc = ~0u;
    for (const std::uint64_t w : words)
        crc = crc32cWord(crc, w);
    crc = ~crc;
    // Reserve 0 as the "unstamped" sentinel.
    return crc ? crc : 1u;
}

NicInterface::NicInterface(sim::Simulator &sim,
                           mem::CoherentSystem &mem_system,
                           const DeviceSpec &spec)
    : sim_(sim), mem_(mem_system), integrity_(mem_system),
      runGate_(sim), spec_(spec),
      resetTrace_(internName(spec.prefix + ".reset")),
      txCount_(spec.prefix + ".tx_packets"),
      rxCrcDrops_(spec.prefix + ".rx_crc_drops"),
      resets_(spec.prefix + ".resets"),
      resetReclaimed_(spec.prefix + ".reset_reclaimed_bufs"),
      batchFlushes_(spec.prefix + ".batch_flushes", "reason"),
      batchOccupancy_(spec.prefix + ".batch_occupancy", "queue")
{
    for (int q = 0; q < spec.numQueues; ++q) {
        ports_.emplace_back(sim);
        batchOcc_.push_back(
            &batchOccupancy_.at(static_cast<std::uint64_t>(q)));
    }
    if (spec.coherentBeat)
        heartbeats_.emplace(spec.prefix + ".heartbeats");
}

NicInterface::~NicInterface()
{
    unregisterProfRegions();
}

void
NicInterface::start()
{
    assert(!started_);
    started_ = true;
    for (int q = 0; q < numQueues(); ++q)
        spawnEngines(q);
    sim_.spawn(heartbeatTask());
}

sim::Coro<int>
NicInterface::allocBufs(int q, std::uint32_t size, PacketBuf **bufs,
                        int count)
{
    co_await sim_.delay(
        cycles(cpuCosts().perAllocFree * std::max(1, count / 8)));
    int got = co_await pool_->allocBurst(hostAgent(q), size, bufs, count,
                                         q);
    // Recycled buffers must not leak a previous transport header or
    // a stale span slot.
    for (int i = 0; i < got; ++i) {
        bufs[i]->tp = {};
        bufs[i]->span.clear();
    }
    co_return got;
}

sim::Coro<void>
NicInterface::freeBufs(int q, PacketBuf **bufs, int count)
{
    co_await sim_.delay(
        cycles(cpuCosts().perAllocFree * std::max(1, count / 8)));
    co_await pool_->freeBurst(hostAgent(q), bufs, count, q);
    co_return;
}

void
NicInterface::noteBatchFlush(int q, const char *reason, std::size_t n)
{
    batchFlushTotal_++;
    batchFlushes_.at(reason)++;
    *batchOcc_[static_cast<std::size_t>(q)] += n;
}

void
NicInterface::deliverTx(int q, const WirePacket &pkt)
{
    txCount_++;
    // TX checksum offload: every packet leaves with a valid FCS.
    WirePacket out = pkt;
    out.span.stamp(obs::SpanStage::WireTx, sim_.now());
    out.fcs = wireFcs(out);
    if (!spec_.loopback && txSink_) {
        txSink_(q, out);
        return;
    }
    sim::Mailbox<WirePacket> *in = &port(q).rxInput;
    if (spec_.wireLat == 0) {
        out.span.stamp(obs::SpanStage::LinkDeliver, sim_.now());
        in->put(out);
    } else {
        sim_.scheduleCallback(sim_.now() + spec_.wireLat,
                              [in, out, simp = &sim_]() mutable {
                                  out.span.stamp(
                                      obs::SpanStage::LinkDeliver,
                                      simp->now());
                                  in->put(out);
                              });
    }
}

void
NicInterface::injectRx(int q, const WirePacket &pkt)
{
    if (!fcsOk(pkt)) {
        rxCrcDrops_++;
        return;
    }
    WirePacket in = pkt;
    in.span.stamp(obs::SpanStage::LinkDeliver, sim_.now());
    port(q).rxInput.put(in);
}

sim::Coro<bool>
NicInterface::consumeGuard(mem::Addr line, std::uint32_t bytes)
{
    if (!mem_.faultsArmed())
        co_return true;
    if (integrity_.staleView(line, bytes)) {
        integrity_.noteReject();
        co_return false;
    }
    co_return co_await integrity_.guardRange(line, bytes);
}

sim::Task
NicInterface::heartbeatTask()
{
    for (;;) {
        co_await sim_.delay(spec_.beatPeriod);
        // A wedged or down device goes silent: that silence is the
        // Watchdog's failure signal, so do not bump the line.
        if (wedged_ || devState_ != DevState::Running)
            continue;
        co_await beatDevice();
    }
}

sim::Coro<void>
NicInterface::beatDevice()
{
    const mem::AgentId agent = deviceAgent(0);
    co_await mem_.store(agent, nicBeat_->addr(), 8);
    nicBeat_->publish(nicBeat_->value() + 1);
    (*heartbeats_)++;
    // Pingpong read of the host's beat line (host-liveness view).
    co_await mem_.load(agent, hostBeat_->addr(), 8);
}

sim::Coro<void>
NicInterface::beatHost()
{
    co_await mem_.store(hostAgent(0), hostBeat_->addr(), 8);
    hostBeat_->publish(hostBeat_->value() + 1);
    co_return;
}

sim::Coro<std::uint64_t>
NicInterface::readDeviceBeat()
{
    co_await mem_.load(hostAgent(0), nicBeat_->addr(), 8);
    co_return nicBeat_->value();
}

void
NicInterface::unwedge()
{
    wedged_ = false;
    runGate_.notifyAll();
}

sim::Coro<void>
NicInterface::quiesce()
{
    if (devState_ == DevState::Down)
        co_return;
    devState_ = DevState::Quiescing;
    // Wake parked engines so they observe the state change; engines
    // blocked on signal lines re-check within one beat period.
    runGate_.notifyAll();
    for (WirePort &p : ports_)
        p.drained.notifyAll();
    // Refuse new host bursts (devState_ guard) and drain the ones in
    // flight.
    while (*hostOps_ > 0)
        co_await sim_.delay(sim::fromNs(100));
    co_await drainEngines();
    devState_ = DevState::Down;
    co_return;
}

sim::Coro<void>
NicInterface::reset()
{
    assert(devState_ == DevState::Down);
    co_await sim_.delay(spec_.resetLat);

    std::uint64_t reclaimed = 0;
    for (int q = 0; q < numQueues(); ++q) {
        std::vector<PacketBuf *> held = reclaimSlots(q);
        if (!held.empty()) {
            for (PacketBuf *b : held)
                b->nextSeg = nullptr; // Second segments are app memory.
            co_await pool_->freeBurst(deviceAgent(q), held.data(),
                                      static_cast<int>(held.size()), q);
            reclaimed += held.size();
        }
        rewindQueue(q);
    }
    // Surface the teardown leak audit through PoolTelemetry: after
    // reclamation every buffer not held by the application must be
    // back in the pool.
    pool_->auditLeaks();
    resetReclaimed_ += reclaimed;
    resets_++;
    obs::tracepoint(obs::EventKind::Custom, resetTrace_, sim_.now(),
                    reclaimed);
    co_return;
}

sim::Coro<void>
NicInterface::reinit()
{
    assert(devState_ == DevState::Down);
    co_await sim_.delay(spec_.reinitLat);
    // Re-register profiler regions across the hot-reset, as a fresh
    // driver attach would. reset() does not reallocate rings, slots or
    // beat lines, so the ranges are identical and the region count
    // must not leak.
    unregisterProfRegions();
    registerProfRegions();
    wedged_ = false;
    devState_ = DevState::Running;
    runGate_.notifyAll();
    for (WirePort &p : ports_)
        p.drained.notifyAll();
    co_return;
}

void
NicInterface::unregisterProfRegions()
{
    for (obs::RegionId id : profRegions_)
        mem_.profiler().unregisterRegion(id);
    profRegions_.clear();
}

} // namespace ccn::driver
