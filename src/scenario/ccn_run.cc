/**
 * @file
 * ccn_run: load a .ccn scenario file, build the declared world, run
 * it, print the result tables, and write the standard
 * BENCH_scenario_<name>.json report (results + counters + latency +
 * timeseries) so tools/counters_gate.py gates scenario runs exactly
 * like bench runs.
 *
 * Usage: ccn_run [--quiet] [--trace <file>] [--profile-coherence]
 *        [--check-invariants] <scenario.ccn>
 *
 * --check-invariants runs mem::CoherentSystem::checkInvariants() on
 * every memory system the scenario built once its run ends, and fails
 * the run if any reports a violation. The report is unchanged.
 *
 * Exit codes: 0 run complete, 1 runtime failure or coherence invariant
 * violation, 2 scenario parse/validation error (diagnostic on stderr
 * as file:line:col).
 */

#include <exception>
#include <fstream>
#include <iostream>

#include "obs/coherence_profiler.hh"
#include "obs/trace.hh"
#include "scenario/parser.hh"
#include "scenario/runner.hh"

namespace {

int
usage()
{
    std::cerr << "usage: ccn_run [--quiet] [--trace <file>] "
                 "[--profile-coherence] [--check-invariants] "
                 "<scenario.ccn>\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string trace_file;
    bool quiet = false;
    bool check_invariants = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--quiet") {
            quiet = true;
        } else if (a == "--trace" && i + 1 < argc) {
            trace_file = argv[++i];
            ccn::obs::Trace::global().enable(1 << 18);
        } else if (a == "--profile-coherence") {
            ccn::obs::CoherenceProfiler::setDefaultEnabled(true);
        } else if (a == "--check-invariants") {
            check_invariants = true;
        } else if (!a.empty() && a[0] == '-') {
            return usage();
        } else if (path.empty()) {
            path = a;
        } else {
            return usage();
        }
    }
    if (path.empty())
        return usage();

    try {
        const ccn::scenario::ScenarioSpec spec =
            ccn::scenario::loadScenario(path);
        const ccn::scenario::ScenarioOutcome out =
            ccn::scenario::runScenario(spec, quiet, check_invariants);
        const std::string written = out.json.write();
        if (!quiet && !written.empty())
            std::cout << "\nwrote " << written << "\n";
        if (!trace_file.empty()) {
            std::ofstream f(trace_file);
            f << ccn::obs::Trace::global().json() << "\n";
        }
        if (check_invariants) {
            for (const std::string &v : out.invariantViolations)
                std::cerr << "ccn_run: coherence invariant: " << v << "\n";
            if (!out.invariantViolations.empty())
                return 1;
            if (!quiet)
                std::cout << "coherence invariants hold in "
                          << out.systemsChecked << " memory systems\n";
        }
    } catch (const ccn::scenario::ScenarioError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "ccn_run: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
