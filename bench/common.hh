/**
 * @file
 * Shared helpers for the per-figure benchmark binaries.
 *
 * Every bench builds fresh simulated worlds per measurement point
 * (deterministic, seeded) and prints measured values next to the
 * paper's reported numbers so EXPERIMENTS.md can be assembled straight
 * from bench output.
 *
 * World construction and the interface-family registry live in
 * src/scenario/world.hh (shared with the scenario runner); this
 * header re-exports them under ccn::bench so the per-figure binaries
 * keep their historical spelling, and adds the bench-only
 * command-line plumbing.
 */

#ifndef CCN_BENCH_COMMON_HH
#define CCN_BENCH_COMMON_HH

#include <fstream>
#include <string>

#include "obs/trace.hh"
#include "scenario/world.hh"

namespace ccn::bench {

using scenario::World;
using scenario::addObsSections;
using scenario::makeCcNicWorld;
using scenario::makePcieWorld;
using scenario::InterfaceFamily;
using scenario::interfaceFamilies;
using scenario::familyLabel;
using scenario::canonicalFamilyKey;
using scenario::worldFactory;
using scenario::runPoint;
using scenario::findPeak;
using scenario::minLatencyNs;
using scenario::CurvePoint;
using scenario::traceCurve;
using scenario::latencyAtLoadNs;

/**
 * Command-line options shared by the bench binaries.
 *
 * `--trace <file>` enables the global tracepoint ring for the whole
 * run and writes it as JSON (array of {tick, kind, name, arg}
 * objects) on finish(); summarize with tools/trace_summary.py.
 *
 * `--profile-coherence` enables the line-level coherence contention
 * profiler for every world the bench builds; the report then carries
 * populated "coherence" / "coherence_hotlines" / "coherence_matrix"
 * sections (render with tools/c2c_report.py). Profiler hooks add no
 * simulated latency, so measured results are bit-identical either
 * way.
 */
struct BenchOptions
{
    std::string traceFile;
    bool profileCoherence = false;

    static BenchOptions
    parse(int argc, char **argv)
    {
        BenchOptions o;
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--trace" && i + 1 < argc) {
                o.traceFile = argv[++i];
                obs::Trace::global().enable(1 << 18);
            } else if (a == "--profile-coherence") {
                o.profileCoherence = true;
                obs::CoherenceProfiler::setDefaultEnabled(true);
            }
        }
        return o;
    }

    /** Write the accumulated trace if --trace was given. */
    void
    finish() const
    {
        if (traceFile.empty())
            return;
        std::ofstream f(traceFile);
        f << obs::Trace::global().json() << "\n";
    }
};

} // namespace ccn::bench

#endif // CCN_BENCH_COMMON_HH
