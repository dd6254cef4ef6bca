/**
 * @file
 * PIO-over-coherence: a message-register host-NIC interface with no
 * descriptor ring.
 *
 * "Rethinking Programmed I/O for Fast Devices, Cheap Cores, and
 * Coherent Interconnects" argues that once the device sits on a
 * coherent interconnect, small messages should be *pushed* through
 * shared cache lines rather than *described* in a ring and pulled by
 * the device. PioNic implements that third interface family next to
 * CcNic and PcieNic, sharing their device lifecycle (NicInterface):
 *
 *  - TX: the host writes header + payload inline into a small array
 *    of cache-line message slots (writer-homed, host socket). The
 *    device polls the head slot through the coherence model — a free
 *    local spin until the host's store invalidates its copy — reads
 *    the slot lines, and returns the credit by flipping the slot's
 *    state word back to Free (credit carried in slot metadata, no
 *    separate completion ring).
 *  - RX: symmetric in the other direction. The device writes arriving
 *    messages into a second slot array (device-homed under the UPI
 *    preset) and the host reaps by polling its consumer slot, copying
 *    the inline payload into a freshly allocated (cache-hot, local)
 *    pool buffer, and flipping the slot back to Free.
 *  - Spill: frames larger than the inline budget travel by reference —
 *    the slot carries a mempool buffer pointer and the payload moves
 *    through the shared pool exactly as on the ring interfaces.
 *
 * Collapsing descriptor publish / doorbell / descriptor fetch /
 * payload fetch into one slot-line transfer per direction is what
 * wins at small message sizes; the narrow slot array is also what
 * loses at bulk throughput, which bench_pio_smallmsg locates as a
 * crossover against the ring interfaces.
 *
 * Two presets: upiConfig() (symmetric CPU-interconnect coherence, the
 * paper's platform) and cxlConfig() (CXL.cache-flavored: the device
 * caches *host* memory only, so both slot arrays are host-homed, and
 * every device-side access pays an added CXL port/flit latency).
 */

#ifndef CCN_PIO_PIO_HH
#define CCN_PIO_PIO_HH

#include <memory>
#include <string>
#include <vector>

#include "ccnic/ccnic.hh"
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

namespace ccn::pio {

/// The wire representation is shared with the ring interfaces so the
/// fabric, transport and chaos harness treat all families alike.
using driver::WirePacket;

/// @name Fixed slot geometry.
/// @{
/// Cache lines per message slot: 16B header + 112B inline payload,
/// which keeps 64B packets (the paper's small-message workhorse) on
/// the inline path.
constexpr std::uint32_t kSlotLines = 2;
constexpr std::uint32_t kSlotBytes = kSlotLines * mem::kLineBytes;
constexpr std::uint32_t kHeaderBytes = 16; ///< Front of each slot.
constexpr std::uint32_t kInlineBytes = kSlotBytes - kHeaderBytes;
constexpr std::uint32_t kNicBatch = 8; ///< Device-side processing burst.
/// @}

/** Full configuration of a PioNic instance. */
struct Config
{
    int numQueues = 1;

    /// Message slots per direction per queue (rounded up to a power
    /// of two, and to at least kNicBatch). Deliberately small: the
    /// slot array *is* the flow control window — a consumed slot's
    /// credit returns in its own metadata, so capacity never needs a
    /// separate signal.
    std::uint32_t numSlots = 64;

    driver::MempoolConfig pool;
    driver::CpuCosts hostCosts{};
    driver::CpuCosts nicCosts{};

    /// Credit-return coalescing (Fig 16): consumed slots on both sides
    /// stay Taken until B credits are pending (or the flush timeout /
    /// an idle consumer flushes early), so returning a reaped batch
    /// costs one slot-line write burst instead of one per message. The
    /// target is clamped to a quarter of the slot array so the flow-
    /// control window never collapses. Off by default.
    driver::BatchPolicy batch;

    /// Home the RX slot array on the device socket (writer-homed,
    /// like CC-NIC's RX ring). The CXL.cache preset turns this off:
    /// a Type-1 device caches host memory, it exports none.
    bool deviceHomedRx = true;

    /// Extra latency charged on every device-side slot access burst,
    /// modeling the CXL.cache port/flit overhead relative to a
    /// symmetric CPU interconnect. 0 under the UPI preset.
    sim::Tick devExtraLat = 0;

    bool loopback = true;  ///< TX loops back to the same queue's RX.

    /// obs::SpanTable path label ("pio" / "pio_cxl").
    std::string spanPath = "pio";
};

/** UPI-flavored preset: writer-homed slots, no added port latency. */
Config upiConfig(int num_queues, int host_socket);

/** upiConfig() with platform-calibrated software costs. */
Config upiConfig(int num_queues, int host_socket,
                 const mem::PlatformConfig &plat);

/**
 * CXL.cache-flavored preset with platform-calibrated software costs:
 * all slots host-homed (the device caches host memory) and
 * devExtraLat models the longer CXL round trip.
 */
Config cxlConfig(int num_queues, int host_socket,
                 const mem::PlatformConfig &plat);

/**
 * A PIO message-register NIC: host-side burst interface plus
 * device-side polling engines, no descriptor ring anywhere.
 */
class PioNic : public driver::NicInterface
{
  public:
    PioNic(sim::Simulator &sim, mem::CoherentSystem &mem_system,
           const Config &config, int host_socket, int nic_socket,
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

    const Config &config() const { return cfg_; }

    /** Slot-state polls (the PIO analogue of ring signal reads). */
    std::uint64_t slotPolls() const { return slotPolls_; }

    /** Slot-state publishes (message and credit flips). */
    std::uint64_t slotWrites() const { return slotWrites_; }

    /** Frames that took the spill (pool-buffer) path. */
    std::uint64_t spills() const { return spills_; }

  private:
    /** Slot ownership state (the credit lives here). */
    enum class SlotState : std::uint8_t
    {
        Free,  ///< Writable by the producer side.
        Ready, ///< Holds a message for the consumer side.
        Taken, ///< Consumer-private: taken, credit flip in flight.
    };

    /** One logical message slot (simulated lines carry the traffic). */
    struct MsgSlot
    {
        SlotState state = SlotState::Free;
        std::uint32_t seq = 0; ///< Publish sequence stamp (0 = blank).
        WirePacket msg;                      ///< Inline message contents.
        driver::PacketBuf *spill = nullptr;  ///< Oversized-frame payload.
    };

    /** One message in flight through a slot. */
    struct Msg
    {
        std::uint32_t idx = 0;
        WirePacket msg;
        driver::PacketBuf *spill = nullptr; ///< Null for inline messages.
    };

    /**
     * One direction's slot array and its protocol state. Both
     * directions run the same protocol with the roles swapped: the
     * host produces into tx and the device consumes; the device
     * produces into rx and the host consumes.
     */
    struct SlotArray
    {
        SlotArray(mem::CoherentSystem &m, int home_socket,
                  const Config &cfg);

        mem::Addr
        lineOf(std::uint32_t idx) const
        {
            return base + static_cast<std::uint64_t>(idx & mask) *
                              kSlotBytes;
        }

        MsgSlot &slot(std::uint32_t idx) { return slots[idx & mask]; }

        mem::Addr base; ///< First slot line.
        std::uint32_t mask;
        std::vector<MsgSlot> slots;
        std::uint32_t prod = 0; ///< Producer position (unmasked).
        std::uint32_t cons = 0; ///< Consumer position (unmasked).
        // Publish-sequence counters: each published slot carries the
        // producer's next sequence number; the consumer verifies
        // continuity before trusting slot contents (a torn publish
        // shows a Ready state word with a stale sequence).
        std::uint32_t seq = 0;
        std::uint32_t seqSeen = 0;
        /// Credit-return coalescing: consumed-but-not-yet-freed slot
        /// indices.
        driver::PublishBatch credits;
    };

    struct Queue
    {
        Queue(mem::CoherentSystem &m, const Config &cfg, int host_socket,
              int nic_socket);

        mem::AgentId hostAgent;
        mem::AgentId nicAgent;

        SlotArray tx; ///< Host-homed (writer-homed).
        SlotArray rx; ///< Homing per config (the UPI/CXL distinction).

        // Monotonic progress counters (survive resets); the Watchdog
        // samples these through health() for stall detection.
        std::uint64_t txSubmittedTotal = 0;
        std::uint64_t txCompletedTotal = 0;
        std::uint64_t rxDeliveredTotal = 0;

        /// Per-queue poll child ("pio.slot_polls{queue=N}").
        obs::Counter *polls = nullptr;
    };

    /// @name Lifecycle hooks (NicInterface).
    /// @{
    void spawnEngines(int q) override;
    mem::AgentId deviceAgent(int q) const override
    {
        return queues_[q]->nicAgent;
    }
    std::vector<driver::PacketBuf *> reclaimSlots(int q) override;
    void rewindQueue(int q) override;
    /** Slot arrays and beat lines, as "<spanPath>.*" regions. */
    void registerProfRegions() override;
    driver::PublishBatch &timedBatch(int q) override
    {
        return queues_[q]->rx.credits;
    }
    sim::Coro<void> flushTimedBatch(int q) override
    {
        return flushCredits(
            q, queues_[q]->rx, FlushReason::Timeout,
            static_cast<std::uint32_t>(port(q).rxInput.size()));
    }
    /// @}

    sim::Task devTxTask(int q);
    sim::Task devRxTask(int q);

    /// @name The slot protocol, shared by both directions.
    /// @{
    /**
     * Producer publish of @p msgs from @p agent: posted stores of
     * @p spans (the slot lines, plus any payload the producer writes
     * alongside). At store visibility each slot takes its message,
     * the message's span is stamped with @p stage, and the slot gets
     * the next sequence number and flips Ready. Advances a.prod.
     * Returns the store coroutine itself; @p spans must outlive it.
     */
    sim::Coro<void> publish(SlotArray &a, mem::AgentId agent,
                            const std::vector<mem::CoherentSystem::Span>
                                &spans,
                            std::vector<Msg> msgs, obs::SpanStage stage);

    /**
     * Consumer gather from a.cons: up to @p max Ready slots whose
     * sequence numbers continue a.seqSeen, their slot lines appended
     * to @p lines. A torn publish ends the gather. Changes no slot.
     */
    std::vector<Msg> gather(SlotArray &a, int max,
                            std::vector<mem::CoherentSystem::Span> &lines);

    /**
     * Take the first @p n gathered slots: mark them Taken (the credit
     * is now the consumer's to return) and advance a.cons and
     * a.seqSeen past them.
     */
    void take(SlotArray &a, std::uint32_t n);

    /**
     * Credit return (Fig 16 coalescing): flip every pending consumed
     * slot of @p a back to Free with one posted store burst from the
     * consumer — the device for tx, the host for rx. @p backlog is
     * producer work waiting behind the batch.
     */
    sim::Coro<void> flushCredits(int q, SlotArray &a, FlushReason reason,
                                 std::uint32_t backlog);
    /// @}

    /// @name Slot telemetry (the PIO signaling choke points).
    /// @{
    void
    noteSlotPoll(Queue &q, mem::Addr a)
    {
        slotPolls_++;
        if (q.polls)
            q.polls->inc();
        obs::tracepoint(obs::EventKind::RingSignalRead, "pio.slot",
                        sim_.now(), a);
    }

    void
    noteSlotWrite(mem::Addr a)
    {
        slotWrites_++;
        obs::tracepoint(obs::EventKind::RingSignalWrite, "pio.slot",
                        sim_.now(), a);
    }
    /// @}

    /** Extra per-access-burst device latency (CXL.cache preset). */
    sim::Coro<void>
    devPortDelay()
    {
        if (cfg_.devExtraLat)
            co_await sim_.delay(cfg_.devExtraLat);
        co_return;
    }

    Config cfg_;

    std::vector<std::unique_ptr<Queue>> queues_;

    obs::Counter slotPolls_{"pio.slot_polls"};
    obs::LabeledCounter slotPollsQ_{"pio.slot_polls", "queue"};
    obs::Counter slotWrites_{"pio.slot_writes"};
    obs::Counter rxDelivered_{"pio.rx_delivered"};
    obs::Counter spills_{"pio.spills"};
    obs::Counter creditStalls_{"pio.credit_stalls"};
    obs::Counter rxNoBuf_{"pio.rx_nobuf_drops"};
};

} // namespace ccn::pio

#endif // CCN_PIO_PIO_HH
