/**
 * @file
 * Layer probes: host time per call of the hot public functions of
 * single modules, each driven directly by the benchmark at the
 * geometry, rates and sizes of the workload being measured.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>

#include "hostspans.hh"
#include "workloads.hh"

namespace perfbench {

struct ProbeResults
{
    int kernelTasks = 0;            ///< Concurrent tasks in the probe.
    double kernelNsPerEvent = 0;    ///< sim: scheduleResume/Callback+run.
    double calendarReserveNs = 0;   ///< sim: CalendarResource::reserveAt.
    double cacheCtorMs = 0;         ///< mem: one L2 + one LLC.
    std::uint64_t footprintLines = 0;
    double cacheTouchNs = 0;        ///< mem: touch(+insert)+find.
    double coherentOpNs = 0;        ///< mem: cross-socket load/store.
    double coherentOpEventsPerOp = 0;
    double slotCrcNs = 0;           ///< driver: stampSlot+slotValid.
    double wireFcsNs = 0;           ///< ccnic: wireFcs.
};

/** Run every probe (median of several trials each). */
ProbeResults runProbes(const WorkloadSpec &spec, HostSpans &spans);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
