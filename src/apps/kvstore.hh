/**
 * @file
 * CliqueMap-style key-value store server (§5.7).
 *
 * Server threads poll NIC RX queues and handle GET/SET RPCs against a
 * hash index in simulated memory. GETs are zero-copy: the response is
 * a header buffer with the object payload attached as a second
 * segment (the DPDK extbuf pattern), so each TX descriptor carries two
 * buffer addresses. Clients live on the far side of a rate-capped wire
 * model standing in for the CX6's 2x100GbE ports.
 */

#ifndef CCN_APPS_KVSTORE_HH
#define CCN_APPS_KVSTORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "driver/nic_iface.hh"
#include "mem/coherence.hh"
#include "sim/random.hh"
#include "transport/transport.hh"
#include "workload/dists.hh"

namespace ccn::apps {

/** Rate-capped full-duplex wire (the CX6 2x100GbE stand-in). */
class WireModel
{
  public:
    WireModel(sim::Simulator &sim, double pps_cap, double bytes_per_sec)
        : pps(sim, pps_cap), bytes(sim, bytes_per_sec)
    {}

    /**
     * Admit one packet; returns its wire-exit time. Multi-segment
     * packets consume one descriptor/WQE slot per segment (§5.7: the
     * extbuf GET path stresses the NIC's descriptor rate).
     */
    sim::Tick
    admit(std::uint32_t len, std::uint32_t segments = 1)
    {
        const sim::Tick a = pps.reserve(segments);
        const sim::Tick b = bytes.reserve(len);
        return std::max(a, b);
    }

    sim::CalendarResource pps;
    sim::CalendarResource bytes;
};

/** KV store configuration. */
struct KvConfig
{
    std::uint64_t numObjects = 1u << 20;
    double zipf = 0.75;
    double getFraction = 0.95;
    workload::SizeDist sizes = workload::SizeDist::ads();
    int serverThreads = 8;
    double offeredOps = 100e6; ///< Client offered load (beyond peak).
    std::uint32_t requestBytes = 64;
    std::uint32_t headerBytes = 32;
    sim::Tick warmup = sim::fromUs(50.0);
    sim::Tick window = sim::fromUs(200.0);
    double parseCycles = 200; ///< Request parse + RPC dispatch.
    double indexCycles = 80;  ///< Hash + bucket walk computation.
    std::uint64_t seed = 11;
};

/** Result of one KV measurement point. */
struct KvResult
{
    double mopsPerSec = 0;
    double gbpsOut = 0;
    std::uint64_t served = 0;
};

/**
 * Reusable KV server: owns the hash index and object store in
 * simulated memory and spawns polling server threads against any
 * NicInterface. Responses are addressed back to the requester
 * (dst = request src), so the same server runs unchanged behind the
 * loopback measurement harness (runKvStore) and a network fabric
 * (workload/clientserver). Must not outlive the CoherentSystem it
 * was built on: destruction unregisters its profiler regions there.
 */
class KvServer
{
  public:
    KvServer(mem::CoherentSystem &m, const KvConfig &cfg, sim::Rng &rng);
    ~KvServer();
    KvServer(const KvServer &) = delete;
    KvServer &operator=(const KvServer &) = delete;

    /**
     * Spawn cfg.serverThreads polling threads on queues
     * [0, serverThreads); they exit once @p run_until passes.
     */
    void start(sim::Simulator &sim, mem::CoherentSystem &m,
               driver::NicInterface &nic, sim::Tick run_until);

    /**
     * Serve GET/SET RPCs over the reliable transport instead of raw
     * bursts: every accepted connection gets a serving process that
     * loops recv → parse → index lookup → object access → send. The
     * response echoes the request's userData and original txTime (for
     * end-to-end RTT at the client); a GET response carries
     * headerBytes + object size, a SET response just the header.
     * Install before the endpoint sees its first SYN; @p ep must
     * outlive the run.
     */
    void startOverTransport(sim::Simulator &sim,
                            mem::CoherentSystem &m,
                            transport::Endpoint &ep,
                            sim::Tick run_until);

    struct State;
    State &state() { return *st_; }

    /** Shared handle, for harnesses whose tasks outlive this scope. */
    std::shared_ptr<State> shared() const { return st_; }

  private:
    std::shared_ptr<State> st_;
    mem::CoherentSystem &msys_;
    KvConfig cfg_;
};

/**
 * Run the KV server on @p nic (already started; this harness installs
 * its TX sink and injects client requests into its RX queues) and
 * measure peak served throughput.
 */
KvResult runKvStore(sim::Simulator &sim, mem::CoherentSystem &mem_system,
                    driver::NicInterface &nic, WireModel &wire,
                    const KvConfig &cfg);

} // namespace ccn::apps

#endif // CCN_APPS_KVSTORE_HH
