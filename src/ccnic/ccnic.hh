/**
 * @file
 * CC-NIC: the paper's cache-coherent host-NIC interface (§3), plus the
 * "unoptimized UPI" baseline (§5.1) as a configuration of the same
 * engine.
 *
 * The host side implements the DPDK-style burst API (Figure 5); the
 * NIC side runs as software agents on the NIC socket, exactly like the
 * paper's software-NIC methodology (§4). All host-NIC communication is
 * ordinary coherent memory traffic through the CoherentSystem model.
 *
 * Design features (each independently toggleable for the Figure 14/15
 * ablations):
 *  - inline signals vs head/tail register lines (§3.2);
 *  - grouped / packed / padded descriptor layouts (§3.2);
 *  - writer-homed rings: TX host-homed, RX NIC-homed (§3.3);
 *  - caching (write-back) stores for all data movement (§3.3);
 *  - recycling buffer allocator and small-buffer subdivision (§3.3);
 *  - shared buffer pool with NIC-side buffer management (§3.4).
 */

#ifndef CCN_CCNIC_CCNIC_HH
#define CCN_CCNIC_CCNIC_HH

#include <memory>
#include <vector>

#include "driver/integrity.hh"
#include "driver/mempool.hh"
#include "driver/nic_iface.hh"
#include "driver/ring.hh"
#include "mem/coherence.hh"
#include "mem/platform.hh"
#include "obs/obs.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace ccn::ccnic {

/// The wire types live in the driver layer, which owns the wire
/// hooks; these names are kept for code written against ccnic::.
using driver::WirePacket;
using driver::wireFcs;

/// NIC-side processing burst. Group-aligned, so the NIC's line clears
/// land on line boundaries.
constexpr int kNicBatch = 32;
static_assert(kNicBatch >= 4 && kNicBatch % 4 == 0,
              "NIC batches must cover whole four-descriptor groups");

/** Full configuration of a CC-NIC instance. */
struct CcNicConfig
{
    int numQueues = 1;
    std::uint32_t ringEntries = 512;

    driver::RingLayout layout = driver::RingLayout::Grouped;
    driver::SignalMode signal = driver::SignalMode::Inline;

    /// Home the RX ring on the NIC socket (writer-homed, §3.3); the
    /// unoptimized baseline keeps all rings in host memory.
    bool nicHomedRx = true;

    /// NIC allocates RX buffers and frees TX buffers itself (§3.4);
    /// when off, the host posts RX buffers and reaps TX completions,
    /// PCIe-style.
    bool nicBufferMgmt = true;

    driver::MempoolConfig pool;
    driver::CpuCosts hostCosts{};
    driver::CpuCosts nicCosts{};

    /// Batched signal publication (Fig 16): host TX descriptors are
    /// staged in software (write-combining, no coherence traffic) and
    /// published — contents, ready flags, and signal — as one posted
    /// store group when the batch reaches its target size or the
    /// flush timeout expires. Off by default: every burst publishes
    /// immediately, as in the paper's base configuration.
    driver::BatchPolicy batch;

    /// NIC engine pipelines descriptor/payload fetches across the
    /// whole batch (CC-NIC). The unoptimized baseline emulates the
    /// E810's per-descriptor hardware handling, serializing each
    /// packet's descriptor-then-payload chain.
    bool nicPipelined = true;
    bool loopback = true;     ///< TX loops back to the same queue's RX.

    /// Path label this NIC's lifecycle spans are recorded under in
    /// obs::SpanTable (keeps CC-NIC and unoptimized-UPI breakdowns
    /// separate in the "latency" bench section).
    std::string spanPath = "ccnic";

    /// Prefix for coherence-profiler region names ("<tag>.tx_ring[q0]"
    /// etc.); empty means "use spanPath". Ablation benches that run
    /// several ring variants in one process (fig14) set distinct tags
    /// so the "coherence" section separates the variants.
    std::string regionTag;
};

/** The paper's optimized CC-NIC configuration. */
CcNicConfig optimizedConfig(int num_queues, int host_socket);

/**
 * Driver software costs calibrated per platform so that saturated
 * per-core 64B packet rates land on the paper's §5.3 measurements
 * (~21Mpps/core on ICX, ~28Mpps/core on SPR).
 */
driver::CpuCosts platformCosts(const mem::PlatformConfig &plat);

/** optimizedConfig() with platform-calibrated software costs. */
CcNicConfig optimizedConfig(int num_queues, int host_socket,
                            const mem::PlatformConfig &plat);

/** unoptimizedConfig() with platform-calibrated software costs. */
CcNicConfig unoptimizedConfig(int num_queues, int host_socket,
                              const mem::PlatformConfig &plat);

/**
 * The "unoptimized UPI" baseline (§5.1): the Intel E810 interface —
 * packed 16B descriptors, head/tail register signaling, host-managed
 * 2KB buffers — run over coherent memory.
 */
CcNicConfig unoptimizedConfig(int num_queues, int host_socket);

/**
 * A CC-NIC instance: host-side burst interface plus NIC-side agent
 * processes.
 */
class CcNic : public driver::NicInterface
{
  public:
    CcNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
          const CcNicConfig &config, int host_socket, int nic_socket,
          sim::Rng &rng);

    /// @name NicInterface implementation (host side).
    /// @{
    sim::Coro<int> txBurst(int q, driver::PacketBuf **bufs,
                           int count) override;
    sim::Coro<int> rxBurst(int q, driver::PacketBuf **bufs,
                           int count) override;
    sim::Coro<void> idleWait(int q, sim::Tick deadline) override;
    mem::AgentId hostAgent(int q) const override;
    const driver::CpuCosts &cpuCosts() const override
    {
        return cfg_.hostCosts;
    }
    driver::QueueHealth health(int q) const override;
    std::vector<mem::Addr> faultLines() const override;
    /// @}

    mem::AgentId nicAgent(int q) const;
    const CcNicConfig &config() const { return cfg_; }

    /** Ring-signal reads (register reloads / inline-signal polls). */
    std::uint64_t signalReads() const { return signalReads_; }

    /** Ring-signal publishes (register writes / inline flag stores). */
    std::uint64_t signalWrites() const { return signalWrites_; }

  private:
    /**
     * One ring and its signals, in either direction. Both rings run
     * the same line protocol (§3.2): the producer (host for TX, NIC
     * for RX) writes descriptors with inline ready flags, or bumps the
     * tail register; the consumer takes them and clears the lines, or
     * bumps the head register. The positions and register caches are
     * those of whichever side plays each role.
     */
    struct RingEnd
    {
        RingEnd(mem::CoherentSystem &m, int home_socket,
                const CcNicConfig &cfg)
            : ring(m, home_socket, cfg.ringEntries, cfg.layout)
        {}

        /** Zero positions and caches; clear both register lines. */
        void rewind();

        driver::DescRing ring;
        driver::RegisterLine tail; ///< Producer-bumped (Register mode).
        driver::RegisterLine head; ///< Consumer-bumped (Register mode).
        std::uint32_t prod = 0;
        std::uint32_t cons = 0;
        std::uint32_t clearScan = 0;  ///< Line clears lag consumption.
        std::uint64_t headCache = 0;  ///< Producer's view of head.
        std::uint64_t tailCache = 0;  ///< Consumer's view of tail.
    };

    /** One descriptor taken by a consumer scan. */
    struct Taken
    {
        std::uint32_t idx;
        driver::PacketBuf *buf;
        std::uint32_t len;
    };

    struct Queue
    {
        Queue(mem::CoherentSystem &m, const CcNicConfig &cfg,
              int host_socket, int nic_socket);

        mem::AgentId hostAgent;
        mem::AgentId nicAgent;

        RingEnd tx; ///< Host produces, NIC consumes.
        /// NIC produces, host consumes. With host-managed buffers the
        /// NIC completes posted slots in order, so rx.prod is also
        /// its position in the host's posts.
        RingEnd rx;

        // Host-managed-mode bookkeeping.
        std::uint32_t txFreeScan = 0;
        std::uint32_t rxPostProd = 0;
        std::vector<driver::PacketBuf *> txShadow;

        // Monotonic progress counters (survive resets); the Watchdog
        // samples these through health() for stall detection.
        std::uint64_t txSubmittedTotal = 0;
        std::uint64_t txCompletedTotal = 0;
        std::uint64_t rxDeliveredTotal = 0;

        /// Host-side TX publish staging (batched signal publication);
        /// empty outside a burst whenever cfg.batch is off.
        driver::PublishBatch txPending;
        /// Device-side RX publication accounting: tracks the adaptive
        /// target and flush occupancy for the NIC's already-batched
        /// per-gather publications.
        driver::PublishBatch rxDevPending;

        /// Per-queue signal-read child ("ccnic.signal_reads{queue=N}"),
        /// resolved once at construction so the hot path pays a
        /// pointer chase, not a label lookup.
        obs::Counter *sigReads = nullptr;
    };

    /// @name Lifecycle hooks (NicInterface).
    /// @{
    void spawnEngines(int q) override;
    mem::AgentId deviceAgent(int q) const override { return nicAgent(q); }
    std::vector<driver::PacketBuf *> reclaimSlots(int q) override;
    void rewindQueue(int q) override;
    /**
     * Ring/signal/heartbeat ranges register under
     * "<regionTag>.tx_ring[qN]"-style names.
     */
    void registerProfRegions() override;
    driver::PublishBatch &timedBatch(int q) override
    {
        return queues_[q]->txPending;
    }
    sim::Coro<void> flushTimedBatch(int q) override
    {
        return flushTx(q, FlushReason::Timeout);
    }
    /// @}

    sim::Task nicTxTask(int q);
    sim::Task nicRxTask(int q);

    /**
     * Publish everything staged on queue @p q's TX ring as one posted
     * store group: descriptor contents, ready flags and the signal.
     */
    sim::Coro<void> flushTx(int q, FlushReason reason);

    /// @name The ring protocol, shared by both rings.
    /// @{
    /**
     * Where a producer that has filled slots up to @p idx continues.
     * Unbatched, a partial final Grouped group is zero-padded and the
     * producer skips to the next line; publish() seals it so the
     * consumer knows the blanks are permanent (§3.2). Batched, the
     * group stays open: the next flush continues mid-group.
     */
    std::uint32_t padGroup(const RingEnd &e, std::uint32_t idx) const;

    /**
     * Producer publish of @p entries on @p e from @p agent: the ring
     * lines (each entry's @p payload bytes at its buffer first, when
     * given) and, in Register mode, the tail register, as one posted
     * store group. At store completion @p fill(k, entries[k], slot)
     * finishes entry k's buffer and sets the slot length; its span is
     * stamped with @p stage and the slot marked ready. A line left
     * behind by padGroup() is sealed. Returns the ring lines written.
     */
    template <typename Fill>
    sim::Coro<std::uint32_t>
    publish(RingEnd &e, mem::AgentId agent,
            std::vector<driver::PublishBatch::Entry> entries,
            std::vector<std::uint32_t> payload, obs::SpanStage stage,
            Fill fill);

    /**
     * Read-ahead the @p lines ring lines the producer writes next:
     * the capacity check doubles as a migratory ownership grant, so
     * the next publish's stores hit locally (§3.2).
     */
    void grantAhead(RingEnd &e, mem::AgentId agent, std::uint32_t lines);

    /**
     * Consumer scan from e.cons: take up to @p max published
     * descriptors into @p taken and their ring lines into @p lines.
     * Inline mode follows ready flags and skips the blanks of sealed
     * lines; Register mode stops at the cached tail. A torn descriptor
     * ends the scan. Returns the new consumer position; the caller
     * commits it to e.cons.
     */
    std::uint32_t consume(RingEnd &e, int max, std::vector<Taken> &taken,
                          std::vector<mem::CoherentSystem::Span> &lines);

    /**
     * Consumer release up to e.cons from @p agent: clear every line
     * the consumer has fully passed (Inline) or bump the head
     * register (Register).
     */
    sim::Coro<void> release(RingEnd &e, mem::AgentId agent);
    /// @}

    /// @name Signal telemetry: counts ring-signal reads/publishes and
    /// records tracepoints when tracing is enabled.
    /// @{
    void
    noteSignalRead(Queue &q, mem::Addr a)
    {
        signalReads_++;
        if (q.sigReads)
            q.sigReads->inc();
        obs::tracepoint(obs::EventKind::RingSignalRead, "ccnic.signal",
                        sim_.now(), a);
    }

    void
    noteSignalWrite(mem::Addr a)
    {
        signalWrites_++;
        obs::tracepoint(obs::EventKind::RingSignalWrite, "ccnic.signal",
                        sim_.now(), a);
    }
    /// @}

    CcNicConfig cfg_;

    std::vector<std::unique_ptr<Queue>> queues_;
    obs::Counter signalReads_{"ccnic.signal_reads"};
    obs::LabeledCounter signalReadsQ_{"ccnic.signal_reads", "queue"};
    obs::Counter signalWrites_{"ccnic.signal_writes"};
    obs::Counter rxDelivered_{"ccnic.rx_delivered"};
};

} // namespace ccn::ccnic

#endif // CCN_CCNIC_CCNIC_HH
