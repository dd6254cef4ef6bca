/**
 * @file
 * The benchmark's three workloads and the result of one repetition.
 *
 * Every workload is an open-loop generator owned by the benchmark: it
 * draws Poisson arrivals from the workload seed, times each operation
 * in simulated time from the tick it was due, and accounts for every
 * arrival that fell due in the measurement window (completed, refused,
 * or still unanswered when the drain ends). The program under test
 * only sees the generated traffic through its public interfaces
 * (driver::NicInterface for loopback, transport::Endpoint and
 * apps::KvServer for the key-value workload).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mem/platform.hh"
#include "sim/time.hh"

#include "hostspans.hh"

namespace perfbench {

/** Static description of one workload (its fixed inputs). */
struct WorkloadSpec
{
    std::string name;
    int id = 0;                 ///< Workload id carried by host spans.
    bool kv = false;            ///< Two-host KV over the fabric.
    ccn::mem::PlatformConfig plat;
    int threads = 0;            ///< Loopback host threads / queue pairs.
    std::uint32_t pktSize = 0;  ///< Loopback payload bytes.
    double offered = 0;         ///< Offered operations per second.
    ccn::sim::Tick warmup = 0;
    ccn::sim::Tick window = 0;
    ccn::sim::Tick drainCap = 0; ///< Drain ends earlier once idle.
    ccn::sim::Tick slice = 0;    ///< Simulator::run slice length.
};

/** The workload names, and lookup by name (false when unknown). */
const std::vector<std::string> &workloadNames();
bool findWorkload(const std::string &name, WorkloadSpec *out);

/** Host seconds of each world set-up phase. */
struct SetupTimes
{
    double mem = 0;    ///< Memory system(s).
    double nic = 0;    ///< NIC construction + start().
    double fabric = 0; ///< Fabric + link attach.
    double app = 0;    ///< Transport endpoints + KV server.

    double total() const { return mem + nic + fabric + app; }
};

/** Outcome of one repetition of a workload at one seed. */
struct RepResult
{
    /// @name Operation accounting (arrivals due in the window).
    /// @{
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t refused = 0;     ///< No buffer / backlog full /
                                   ///< send error.
    std::uint64_t unanswered = 0;  ///< Still in flight after drain.
    std::uint64_t duplicates = 0;  ///< Completed more than once.
    std::uint64_t completedAll = 0; ///< Over warmup+window+drain.
    /// Completions (any due tick) that landed inside the window.
    std::uint64_t windowCompletions = 0;
    /// @}

    std::vector<ccn::sim::Tick> latency; ///< Due tick -> completion.
    std::vector<ccn::sim::Tick> genLag;  ///< Due tick -> accepted.
    double windowSeconds = 0;            ///< Modeled window length.

    /// @name Host time (seconds) and kernel work.
    /// @{
    /// One sample per world built; the last world is the one run.
    std::vector<SetupTimes> setups;
    double simulate = 0;       ///< Inside Simulator::run, all slices.
    std::uint64_t events = 0;  ///< Simulator::eventsExecuted().
    std::uint64_t memOps = 0;  ///< Demand line walks (L2 hits +
                               ///< misses), all agents.
    /// @}

    /** Registry snapshot at the end of the drain (pre-teardown). */
    std::map<std::string, std::uint64_t> counters;
    /** Rendered obs::SpanTable, for the modeled-output digest. */
    std::string spanTable;

    /// @name KV transport view.
    /// @{
    std::uint64_t kvSent = 0;
    std::uint64_t kvResponses = 0;
    std::uint64_t serverDelivered = 0; ///< Requests the server got.
    std::uint64_t connAborts = 0;
    /// @}

    std::uint64_t leakedAfterTeardown = 0;
    std::vector<std::string> violations; ///< Correctness failures.
};

/**
 * Run one repetition: time several constructions of the world(s),
 * simulate warmup + window + drain in slices on the last one, check
 * correctness, tear down and audit leaks.
 * Host spans go to @p spans when it is recording; @p after_slice, when
 * set, runs after every Simulator::run slice.
 */
RepResult runRep(const WorkloadSpec &spec, std::uint64_t seed,
                 HostSpans &spans,
                 const std::function<void()> &after_slice = {});

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
