/**
 * @file
 * Common host-side NIC data plane interface, and the device lifecycle
 * every interface family shares.
 *
 * All evaluated interfaces (CC-NIC, unoptimized UPI, E810/CX6 PCIe and
 * PIO-over-coherence) implement this API, which mirrors the semantics
 * of the DPDK mempool and ethdev burst calls (paper Figure 5).
 * Workloads and applications are written once against it.
 *
 * The families differ in their datapath, not in bring-up or reset, so
 * NicInterface implements the lifecycle once: the Running → Quiescing
 * → Down state machine and host-op drain, quiesce()/reset()/reinit(),
 * the heartbeat, the buffer pool, the wire hooks, datapath integrity
 * and profiler-region teardown. A family supplies its datapath plus
 * the hooks in the protected section (engine spawn and drain, the
 * per-queue reclaim sweep, its profiler regions, queue health).
 */

#ifndef CCN_DRIVER_NIC_IFACE_HH
#define CCN_DRIVER_NIC_IFACE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/integrity.hh"
#include "driver/mempool.hh"
#include "driver/packet.hh"
#include "driver/ring.hh"
#include "mem/coherence.hh"
#include "obs/obs.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace ccn::driver {

/**
 * Host CPU cost model for driver software (cycles). These represent
 * the instruction-execution component of per-packet work; memory
 * stalls are charged separately by the access-accurate memory model.
 */
struct CpuCosts
{
    double perLoop = 30;      ///< Poll-loop iteration overhead.
    double perPktTx = 35;     ///< Per-packet TX software cost.
    double perPktRx = 30;     ///< Per-packet RX software cost.
    double perDesc = 10;      ///< Descriptor marshalling.
    double perAllocFree = 10; ///< Buffer bookkeeping.
};

/**
 * Host-sampled per-queue progress counters, consumed by the driver
 * Watchdog: a queue whose txCompleted stops advancing while more
 * than txHeldInBatch descriptors are outstanding is stalled.
 * Descriptors the host itself is holding back for a coalesced
 * publish (batching) are reported in txHeldInBatch so a flush-timer
 * delay is not mistaken for a dead device.
 */
struct QueueHealth
{
    std::uint64_t txSubmitted = 0;   ///< Descriptors ever submitted.
    std::uint64_t txCompleted = 0;   ///< Descriptors ever consumed.
    std::uint64_t rxDelivered = 0;   ///< Packets ever handed to host.
    std::uint32_t txOutstanding = 0; ///< Submitted minus completed.
    std::uint32_t txHeldInBatch = 0; ///< Outstanding but unpublished:
                                     ///< staged in a host-side batch
                                     ///< the device cannot yet see.
};

/**
 * Host-side per-queue data plane interface (DPDK ethdev/mempool
 * semantics) plus the shared device lifecycle.
 */
class NicInterface
{
  public:
    /** Fabric-side consumer of transmitted packets (queue, packet). */
    using TxSink = std::function<void(int, const WirePacket &)>;

    /** What a family tells the shared lifecycle at construction. */
    struct DeviceSpec
    {
        /// Counter and tracepoint prefix ("ccnic", "pio", "pcie_nic").
        std::string prefix;
        int numQueues = 1;
        /// Device heartbeat publish period.
        sim::Tick beatPeriod = 0;
        /// Flat device-reset latency charged by reset().
        sim::Tick resetLat = 0;
        /// Engine restart latency charged by reinit().
        sim::Tick reinitLat = 0;
        /// Loopback wire latency (0 delivers in the same tick).
        sim::Tick wireLat = 0;
        /// TX loops back to the same queue's RX even with a sink set.
        bool loopback = true;
        /// The device agent beats by a coherent store, counted in
        /// "<prefix>.heartbeats"; false for a device that overrides
        /// beatDevice().
        bool coherentBeat = true;
    };

    virtual ~NicInterface();
    NicInterface(const NicInterface &) = delete;
    NicInterface &operator=(const NicInterface &) = delete;

    /**
     * Spawn the device engines of every queue, then the heartbeat.
     * Call once before running.
     */
    void start();

    /**
     * Submit up to @p count packets on queue @p q. Returns the number
     * accepted (backpressure drops the rest, mirroring
     * rte_eth_tx_burst).
     */
    virtual sim::Coro<int> txBurst(int q, PacketBuf **bufs,
                                   int count) = 0;

    /**
     * Receive up to @p count packets from queue @p q. Returns the
     * number received (possibly 0; non-blocking poll).
     */
    virtual sim::Coro<int> rxBurst(int q, PacketBuf **bufs,
                                   int count) = 0;

    /** Allocate packet buffers suited to @p size bytes. */
    sim::Coro<int> allocBufs(int q, std::uint32_t size, PacketBuf **bufs,
                             int count);

    /** Release packet buffers. */
    sim::Coro<void> freeBufs(int q, PacketBuf **bufs, int count);

    /**
     * Block until new RX work is likely (or @p deadline passes).
     * Used by poll loops to sleep without missing either timed TX
     * work or RX arrivals.
     */
    virtual sim::Coro<void> idleWait(int q, sim::Tick deadline) = 0;

    /** Agent (core) bound to queue @p q's host thread. */
    virtual mem::AgentId hostAgent(int q) const = 0;

    /** Number of configured queue pairs. */
    int numQueues() const { return static_cast<int>(ports_.size()); }

    /** Host CPU cost model for this driver. */
    virtual const CpuCosts &cpuCosts() const = 0;

    /** The shared buffer pool. */
    Mempool &pool() { return *pool_; }

    /// @name Wire attachment (external mode).
    /// @{
    /**
     * Divert TX packets to an external sink. A device configured for
     * loopback keeps looping back; one that is not sends every TX
     * packet to the sink once one is installed.
     */
    void setTxSink(TxSink sink) { txSink_ = std::move(sink); }

    /** Inject a packet for RX delivery on queue @p q (FCS-checked). */
    void injectRx(int q, const WirePacket &pkt);
    /// @}

    // ---- Device lifecycle (failure detection + hot-reset) -------------

    /**
     * Always true: every interface family implements the lifecycle.
     * Kept because the benchmark driver (perfbench/workloads.cc) still
     * asks before it quiesces and resets a device.
     */
    bool supportsLifecycle() const { return true; }

    /** True while the device is up and processing descriptors. */
    bool operational() const { return devState_ == DevState::Running; }

    /**
     * Bump the host-side heartbeat line. Called periodically by the
     * Watchdog; the device observes the line to confirm host liveness.
     */
    sim::Coro<void> beatHost();

    /**
     * Read the device-side heartbeat line. A value that stops
     * advancing across successive reads means the device is wedged.
     */
    sim::Coro<std::uint64_t> readDeviceBeat();

    /** Progress counters for queue @p q (monotonic across resets). */
    virtual QueueHealth health(int q) const = 0;

    /**
     * Stop accepting new host bursts and wait for in-flight host and
     * device operations on all queues to drain or park.
     */
    sim::Coro<void> quiesce();

    /**
     * Reclaim every buffer the device still holds back to the
     * mempool, clear all slots and signal lines, and zero positions.
     * Must be called after quiesce(); leaves the device down.
     */
    sim::Coro<void> reset();

    /** Restart queues after reset(); the device resumes processing. */
    sim::Coro<void> reinit();

    /// @name Fault injection (chaos harness).
    /// Wedging freezes the device engines without telling the
    /// driver: heartbeats stop and rings stall, which is exactly what
    /// the Watchdog must detect. It models a firmware hang, not a host
    /// crash; reinit() clears the wedge.
    /// @{
    void wedge() { wedged_ = true; }
    void unwedge();
    bool wedged() const { return wedged_; }
    /// @}

    /**
     * Teardown leak audit: number of pool buffers allocated but never
     * returned (directly or via ring reclaim). Publishes the result to
     * pool telemetry.
     */
    std::size_t auditLeaks() { return pool_->auditLeaks(); }

    // ---- Datapath integrity (memory-chaos hardening) ------------------

    /**
     * Cumulative localized integrity retries (poison re-reads, torn
     * slot rejects). The Watchdog samples this each check and stamps
     * the delta as escalation stage "retry".
     */
    std::uint64_t integrityRetries() const { return integrity_.retries(); }

    /**
     * Cumulative persistent integrity faults (poison retry budget
     * exhausted). A rising count tells the Watchdog the device needs
     * a hot-reset (escalation stage 2).
     */
    std::uint64_t integrityFaults() const { return integrity_.faults(); }

    /**
     * Cache lines carrying queue-0's live producer/consumer signals
     * and descriptors — the lines a memory-fault schedule targets to
     * hit the datapath where it hurts.
     */
    virtual std::vector<mem::Addr> faultLines() const = 0;

    /** Packets that have crossed device TX processing. */
    std::uint64_t txCount() const { return txCount_; }

    /** RX packets discarded on FCS mismatch (corrupted on the wire). */
    std::uint64_t rxCrcDrops() const { return rxCrcDrops_; }

    /** Coalesced publish, doorbell or credit flushes performed. */
    std::uint64_t batchFlushes() const { return batchFlushTotal_; }

  protected:
    /**
     * Allocates no simulated memory and adds no agent: the family
     * constructor creates the pool, queues and beat lines in its own
     * order, which fixes every simulated address.
     */
    NicInterface(sim::Simulator &sim, mem::CoherentSystem &mem_system,
                 const DeviceSpec &spec);

    /** Device lifecycle state. */
    enum class DevState : std::uint8_t
    {
        Running,   ///< Normal operation.
        Quiescing, ///< Draining host and engine operations.
        Down,      ///< Quiesced; awaiting reset()/reinit().
    };

    /**
     * RAII in-flight-operation counter (quiesce waits on it). It
     * shares ownership of the count: the simulator destroys suspended
     * frames, and the scopes in them, after the device is gone.
     */
    struct OpScope
    {
        std::shared_ptr<int> n;
        explicit OpScope(std::shared_ptr<int> count) : n(std::move(count))
        {
            ++*n;
        }
        ~OpScope() { --*n; }
        OpScope(const OpScope &) = delete;
        OpScope &operator=(const OpScope &) = delete;
    };

    /// @name Family hooks.
    /// @{
    /** Spawn queue @p q's device engines (and its flush timer). */
    virtual void spawnEngines(int q) = 0;

    /**
     * Agent doing the device's buffer and liveness work in coherent
     * memory for queue @p q; reset() returns reclaimed buffers
     * through it.
     */
    virtual mem::AgentId deviceAgent(int q) const = 0;

    /**
     * First half of reset() for queue @p q: clear every ring or
     * message slot and return the buffers they still held, each
     * exactly once. Runs before those buffers are freed.
     */
    virtual std::vector<PacketBuf *> reclaimSlots(int q) = 0;

    /**
     * Second half of reset() for queue @p q, after the reclaimed
     * buffers are back in the pool: zero positions and signal state.
     */
    virtual void rewindQueue(int q) = 0;

    /**
     * Last step of quiesce(), once host bursts have drained: wait
     * until no device engine is mid-batch.
     */
    virtual sim::Coro<void> drainEngines() = 0;

    /**
     * Register the family's rings, signal lines and beat lines with
     * the coherence profiler, appending the handles to profRegions_.
     * Called by the family constructor and again by reinit().
     */
    virtual void registerProfRegions() = 0;

    /**
     * One device heartbeat. The default stores the device beat line
     * from queue 0's device agent, then reads the host's beat line
     * (a single-line pingpong, like the descriptor signals).
     */
    virtual sim::Coro<void> beatDevice();
    /// @}

    /**
     * Count one coalesced flush of @p n entries on queue @p q, in
     * "<prefix>.batch_flushes{reason=...}" and in the queue's
     * "<prefix>.batch_occupancy" child (divide by flushes for the
     * mean occupancy).
     */
    void noteBatchFlush(int q, const char *reason, std::size_t n);

    /** TX checksum offload plus wire delivery (loopback or sink). */
    void deliverTx(int q, const WirePacket &pkt);

    /**
     * Consume-side integrity filter on [line, line+bytes): stale
     * (torn/stuck) views read as not-ready, poisoned lines are
     * retried inline (bounded). True = the range may be trusted.
     */
    sim::Coro<bool> consumeGuard(mem::Addr line, std::uint32_t bytes);

    /** Cycles-to-ticks on this platform. */
    sim::Tick
    cycles(double n) const
    {
        return mem_.config().cycles(n);
    }

    /** Per-queue wire attachment: the device's RX input. */
    struct WirePort
    {
        explicit WirePort(sim::Simulator &sim) : rxInput(sim), drained(sim)
        {}

        sim::Mailbox<WirePacket> rxInput;
        /// RX engine drained below its input cap (flow control).
        sim::Gate drained;
    };

    WirePort &port(int q) { return ports_[static_cast<std::size_t>(q)]; }

    sim::Simulator &sim_;
    mem::CoherentSystem &mem_;
    IntegrityGuard integrity_;
    std::unique_ptr<Mempool> pool_;

    // Lifecycle state. Each heartbeat line is writer-homed: one side
    // bumps its line and the other polls it.
    DevState devState_ = DevState::Running;
    bool wedged_ = false;
    /// Host bursts in flight (quiesce drain).
    std::shared_ptr<int> hostOps_ = std::make_shared<int>(0);
    sim::Gate runGate_; ///< Parks device engines while not Running.
    std::unique_ptr<RegisterLine> hostBeat_; ///< Host-bumped.
    std::unique_ptr<RegisterLine> nicBeat_;  ///< Device-bumped.

    /// Live coherence-profiler region handles.
    std::vector<obs::RegionId> profRegions_;

  private:
    sim::Task heartbeatTask();
    void unregisterProfRegions();

    DeviceSpec spec_;
    const char *resetTrace_; ///< "<prefix>.reset" tracepoint name.
    std::deque<WirePort> ports_;
    TxSink txSink_;
    bool started_ = false;

    obs::Counter txCount_;
    obs::Counter rxCrcDrops_;
    obs::Counter resets_;
    obs::Counter resetReclaimed_;
    std::optional<obs::Counter> heartbeats_;
    obs::LabeledCounter batchFlushes_;
    obs::LabeledCounter batchOccupancy_;
    /// Per-queue batch-occupancy children, resolved at construction.
    std::vector<obs::Counter *> batchOcc_;
    std::uint64_t batchFlushTotal_ = 0;
};

} // namespace ccn::driver

#endif // CCN_DRIVER_NIC_IFACE_HH
