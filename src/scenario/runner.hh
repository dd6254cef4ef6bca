/**
 * @file
 * Scenario execution: turn a validated ScenarioSpec into a running
 * simulated world, drive the declared workload (kv / replay / sweep,
 * with an optional fault schedule), and collect the same result
 * tables and observability sections the hand-written benches emit —
 * so tools/counters_gate.py gates a scenario run identically to a
 * bench run.
 */

#ifndef CCN_SCENARIO_RUNNER_HH
#define CCN_SCENARIO_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/ast.hh"
#include "scenario/trace.hh"
#include "stats/json.hh"
#include "workload/chaos.hh"
#include "workload/clientserver.hh"

namespace ccn::scenario {

/** Everything a scenario run produced. */
struct ScenarioOutcome
{
    /// Report named "scenario_<name>" with a "results" table plus the
    /// standard counters/latency/timeseries sections.
    stats::JsonReport json{"scenario"};

    /// @name Which runner path executed (exactly one is true).
    /// @{
    bool ranRaw = false;
    bool ranReliable = false;
    bool ranChaos = false;
    bool ranReplay = false;
    bool ranSweep = false;
    /// @}

    workload::ClientServerResult raw;           ///< When ranRaw.
    workload::ReliableClientServerResult kv;    ///< Reliable or chaos.
    workload::ChaosKvResult chaos;              ///< When ranChaos.

    /// @name Replay accounting (when ranReplay).
    /// @{
    std::uint64_t replayOps = 0;       ///< Records in the trace.
    std::uint64_t replaySent = 0;      ///< Accepted by send().
    std::uint64_t replayResponses = 0; ///< Deduplicated responses.
    std::uint64_t replayLost = 0;
    std::uint64_t replayDuplicates = 0;
    double replayRttP50Ns = 0;
    double replayRttP99Ns = 0;
    /// @}

    /// Requests recorded when the workload declared a capture file
    /// (also written to that file).
    std::vector<TraceRecord> captured;

    /// @name Coherence invariant check (when requested).
    /// @{
    int systemsChecked = 0; ///< Memory systems checked at run end.
    std::vector<std::string> invariantViolations;
    /// @}
};

/**
 * Run @p spec to completion. Prints the result tables to stdout
 * (matching bench output style) unless @p quiet. With
 * @p check_invariants, every memory system the run built is checked
 * with CoherentSystem::checkInvariants() once its run ends, and the
 * violations are returned in the outcome. Throws ScenarioError for
 * runtime scenario problems (unreadable trace file) and propagates
 * harness exceptions unchanged.
 */
ScenarioOutcome runScenario(const ScenarioSpec &spec, bool quiet = false,
                            bool check_invariants = false);

} // namespace ccn::scenario

#endif // CCN_SCENARIO_RUNNER_HH
