#include "scenario/runner.hh"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "apps/kvstore.hh"
#include "mem/platform.hh"
#include "net/fabric.hh"
#include "obs/sampler.hh"
#include "scenario/lexer.hh"
#include "scenario/world.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"
#include "transport/transport.hh"
#include "workload/dists.hh"

namespace ccn::scenario {

using sim::Tick;

namespace {

mem::PlatformConfig
platformFor(const ScenarioSpec &spec)
{
    return spec.platform == "spr" ? mem::sprConfig()
                                  : mem::icxConfig();
}

workload::SizeDist
sizeDistFor(const std::string &sizes, std::uint32_t fixed_bytes)
{
    if (sizes == "geo")
        return workload::SizeDist::geo();
    if (sizes == "fixed")
        return workload::SizeDist({{1.0, fixed_bytes,
                                    fixed_bytes + 1}});
    return workload::SizeDist::ads();
}

/** Per-host link parameters: the last link block naming it wins. */
net::LinkConfig
linkFor(const ScenarioSpec &spec, const std::string &host)
{
    net::LinkConfig lc;
    for (const LinkSpec &l : spec.links) {
        if (std::find(l.endpoints.begin(), l.endpoints.end(), host) ==
            l.endpoints.end())
            continue;
        lc.gbps = l.gbps;
        lc.propDelay = sim::fromNs(l.delayNs);
        lc.queuePackets = static_cast<std::size_t>(l.queuePackets);
        lc.faults.dropRate = l.loss;
        lc.faults.dupRate = l.dup;
        lc.faults.reorderRate = l.reorder;
        lc.faults.corruptRate = l.corrupt;
        lc.faults.seed = l.seed;
    }
    return lc;
}

/** All declared hosts on one shared simulator + fabric. */
struct FabricRun
{
    explicit FabricRun(const ScenarioSpec &spec)
        : plat(platformFor(spec)), sampler(simv), fabric(simv)
    {
        sampler.start();
        for (std::size_t i = 0; i < spec.hosts.size(); ++i) {
            const HostSpec &h = spec.hosts[i];
            hosts.push_back(makeHost(simv, h.interface, plat,
                                     h.queues, 11 + i, h.batch));
            addrs.push_back(fabric.attach(h.name,
                                          hostHooks(*hosts.back()),
                                          linkFor(spec, h.name)));
            names.push_back(h.name);
        }
    }

    HostWorld &
    host(const std::string &name)
    {
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] == name)
                return *hosts[i];
        }
        throw std::logic_error("unknown host " + name);
    }

    std::uint32_t
    addr(const std::string &name) const
    {
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] == name)
                return addrs[i];
        }
        throw std::logic_error("unknown host " + name);
    }

    sim::Simulator simv;
    mem::PlatformConfig plat;
    obs::Sampler sampler;
    net::Fabric fabric;
    std::vector<std::unique_ptr<HostWorld>> hosts;
    std::vector<std::uint32_t> addrs;
    std::vector<std::string> names;
};

workload::ClientServerConfig
kvConfigFor(const WorkloadSpec &w)
{
    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = w.serverThreads;
    cfg.kv.numObjects = w.objects;
    cfg.kv.getFraction = w.getFraction;
    cfg.kv.sizes = sizeDistFor(w.sizes, w.fixedBytes);
    cfg.offeredOps = w.offeredMops * 1e6;
    cfg.requestBytes = w.requestBytes;
    cfg.clientQueues = w.clientQueues;
    cfg.warmup = sim::fromUs(w.warmupUs);
    cfg.window = sim::fromUs(w.windowUs);
    cfg.drain = sim::fromUs(w.drainUs);
    cfg.seed = w.seed;
    if (w.minRtoUs > 0)
        cfg.tp.minRto = sim::fromUs(w.minRtoUs);
    return cfg;
}

/** "scenario" identity section shared by every run mode. */
void
addScenarioSection(stats::JsonReport &json, const ScenarioSpec &spec,
                   const char *mode)
{
    stats::Table t({"name", "platform", "mode", "file"});
    t.row().cell(spec.name).cell(spec.platform).cell(mode)
        .cell(spec.file);
    json.add("scenario", t);
}

/** Per-port fabric counters for every declared host. */
stats::Table
portsTable(const FabricRun &run)
{
    stats::Table t({"host", "tx_pkts", "rx_pkts", "tx_drops",
                    "rx_drops", "fault_drops", "down_drops"});
    for (std::size_t i = 0; i < run.names.size(); ++i) {
        const net::PortCounters c = run.fabric.counters(run.addrs[i]);
        t.row().cell(run.names[i]).cell(c.txPackets).cell(c.rxPackets)
            .cell(c.txDrops).cell(c.rxDrops).cell(c.faultDrops)
            .cell(c.downDrops);
    }
    return t;
}

/** Shared accounting for one trace replay. */
struct ReplayState
{
    Tick start = 0;
    Tick horizon = 0;
    bool preserveGaps = true;

    std::uint64_t sent = 0;
    std::uint64_t responses = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t nextReqId = 0;
    std::unordered_set<std::uint64_t> seenResponses;
    stats::Histogram rttTicks;
};

sim::Task
replayRxTask(sim::Simulator &sim, transport::Connection *conn,
             std::shared_ptr<ReplayState> st)
{
    while (sim.now() < st->horizon) {
        transport::Segment seg;
        if (!co_await conn->recv(&seg, st->horizon)) {
            if (conn->state() ==
                transport::Connection::State::Error)
                break;
            continue;
        }
        if (!st->seenResponses.insert(seg.userData).second) {
            st->duplicates++;
            continue;
        }
        st->responses++;
        st->rttTicks.record(sim.now() - seg.txTime);
    }
    co_return;
}

/** Feed one connection's slice of the trace through the transport. */
sim::Task
replayClientTask(sim::Simulator &sim, transport::Endpoint &ep,
                 std::uint32_t server_addr, int idx,
                 std::vector<TraceRecord> records,
                 std::shared_ptr<ReplayState> st)
{
    transport::Connection *conn = co_await ep.connect(
        server_addr, 0x5eedULL + static_cast<std::uint64_t>(idx));
    if (conn->state() != transport::Connection::State::Open)
        co_return;
    sim.spawn(replayRxTask(sim, conn, st));

    for (const TraceRecord &rec : records) {
        if (st->preserveGaps) {
            const Tick at = st->start + sim::fromNs(
                                static_cast<double>(rec.atNs));
            if (at > sim.now())
                co_await sim.delayUntil(at);
        }
        if (sim.now() >= st->horizon)
            break;
        // Same userData layout as the live client: bits 0..31 key,
        // 32..62 request-id (deduplicated on receive), 63 PUT flag.
        const std::uint64_t req_id = ++st->nextReqId & 0x7fffffffULL;
        const std::uint64_t user_data =
            (rec.key & 0xffffffffULL) | (req_id << 32) |
            (rec.get ? 0ULL : (1ULL << 63));
        if (!co_await conn->send(rec.bytes, user_data, 0))
            break;
        st->sent++;
    }
    co_return;
}

void
runReplay(const ScenarioSpec &spec, FabricRun &run,
          ScenarioOutcome &out)
{
    const ReplaySpec &r = spec.replay;
    const std::vector<TraceRecord> records = loadTrace(r.traceFile);

    apps::KvConfig kv;
    kv.serverThreads = r.serverThreads;
    kv.numObjects = r.objects;
    kv.sizes = sizeDistFor(r.sizes, r.fixedBytes);

    transport::TransportConfig tp;
    if (r.minRtoUs > 0)
        tp.minRto = sim::fromUs(r.minRtoUs);

    HostWorld &server = run.host(r.server);
    HostWorld &client = run.host(r.client);
    transport::Endpoint server_ep(run.simv, server.system,
                                  *server.nic, tp, "server");
    transport::Endpoint client_ep(run.simv, client.system,
                                  *client.nic, tp, "client");

    auto st = std::make_shared<ReplayState>();
    st->start = run.simv.now();
    st->preserveGaps = r.preserveGaps;
    const Tick span = records.empty()
                          ? 0
                          : sim::fromNs(static_cast<double>(
                                records.back().atNs));
    st->horizon = st->start + (r.preserveGaps ? span : 0) +
                  sim::fromUs(r.drainUs);

    sim::Rng server_rng(r.seed);
    apps::KvServer kvserver(server.system, kv, server_rng);
    kvserver.startOverTransport(run.simv, server.system, server_ep,
                                st->horizon);
    server_ep.start(st->horizon);
    client_ep.start(st->horizon);

    // Round-robin the trace across one connection per client queue;
    // each connection's subsequence keeps the recorded time order.
    std::vector<std::vector<TraceRecord>> slices(
        std::max(1, r.clientQueues));
    for (std::size_t i = 0; i < records.size(); ++i)
        slices[i % slices.size()].push_back(records[i]);
    for (std::size_t c = 0; c < slices.size(); ++c) {
        run.simv.spawn(replayClientTask(run.simv, client_ep,
                                        run.addr(r.server),
                                        static_cast<int>(c),
                                        std::move(slices[c]), st));
    }

    const std::uint64_t expected = records.size();
    while (st->responses < expected &&
           run.simv.now() < st->horizon) {
        run.simv.run(std::min<Tick>(st->horizon, run.simv.now() +
                                                     sim::fromUs(10.0)));
    }
    run.simv.run(st->horizon + sim::fromUs(5.0));

    out.ranReplay = true;
    out.replayOps = expected;
    out.replaySent = st->sent;
    out.replayResponses = st->responses;
    out.replayLost =
        st->sent > st->responses ? st->sent - st->responses : 0;
    out.replayDuplicates = st->duplicates;
    out.replayRttP50Ns = sim::toNs(st->rttTicks.percentile(50.0));
    out.replayRttP99Ns = sim::toNs(st->rttTicks.percentile(99.0));

    stats::Table t({"trace_ops", "sent", "responses", "lost",
                    "duplicates", "rtt_p50_ns", "rtt_p99_ns",
                    "pacing"});
    t.row().cell(out.replayOps).cell(out.replaySent)
        .cell(out.replayResponses).cell(out.replayLost)
        .cell(out.replayDuplicates).cell(out.replayRttP50Ns, 0)
        .cell(out.replayRttP99Ns, 0)
        .cell(r.preserveGaps ? "recorded" : "max");
    out.json.add("results", t);
}

void
runKv(const ScenarioSpec &spec, FabricRun &run, ScenarioOutcome &out)
{
    const WorkloadSpec &w = spec.workload;
    workload::ClientServerConfig cfg = kvConfigFor(w);
    if (!w.captureFile.empty()) {
        Tick start = run.simv.now();
        cfg.onRequest = [&out, start](Tick at, bool get,
                                      std::uint32_t key,
                                      std::uint32_t bytes) {
            out.captured.push_back(
                {static_cast<std::uint64_t>(sim::toNs(at - start)),
                 get, key, bytes});
        };
    }

    HostWorld &server = run.host(w.server);
    HostWorld &client = run.host(w.client);
    const std::uint32_t server_addr = run.addr(w.server);

    if (spec.faults.present) {
        workload::ChaosConfig chaos;
        chaos.seed = spec.faults.seed;
        chaos.nicWedges = spec.faults.nicWedges;
        chaos.linkFlaps = spec.faults.linkFlaps;
        chaos.flapDown = sim::fromUs(spec.faults.flapDownUs);
        chaos.lossBursts = spec.faults.lossBursts;
        chaos.burstDrops = spec.faults.burstDrops;
        chaos.poisons = spec.faults.poisons;
        chaos.torns = spec.faults.torns;
        chaos.stuckLines = spec.faults.stuckLines;
        chaos.brownouts = spec.faults.brownouts;
        chaos.brownoutFactor = spec.faults.brownoutFactor;
        chaos.targetServer =
            spec.faults.target == spec.workload.server;
        out.chaos = workload::runKvClientServerChaos(
            run.simv, server.system, *server.nic, client.system,
            *client.nic, run.fabric, server_addr,
            run.addr(w.client), cfg, chaos);
        out.kv = out.chaos.kv;
        out.ranChaos = true;
    } else if (w.reliable) {
        out.kv = workload::runKvClientServerReliable(
            run.simv, server.system, *server.nic, client.system,
            *client.nic, server_addr, cfg);
        out.ranReliable = true;
    } else {
        out.raw = workload::runKvClientServer(
            run.simv, server.system, *server.nic, client.system,
            *client.nic, server_addr, cfg);
        out.ranRaw = true;
    }

    if (!w.captureFile.empty())
        saveTrace(w.captureFile, out.captured);

    if (out.ranRaw) {
        stats::Table t({"offered_Mops", "sent", "responses",
                        "achieved_Mops", "gbps_in", "rtt_p50_ns",
                        "rtt_p99_ns", "tx_backpressure"});
        t.row().cell(out.raw.offeredMops, 2).cell(out.raw.requestsSent)
            .cell(out.raw.responses).cell(out.raw.achievedMops, 2)
            .cell(out.raw.gbpsIn, 2).cell(out.raw.rttP50Ns, 0)
            .cell(out.raw.rttP99Ns, 0).cell(out.raw.txBackpressure);
        out.json.add("results", t);
    } else {
        stats::Table t({"offered_Mops", "sent", "responses", "lost",
                        "retransmits", "dup_responses",
                        "achieved_Mops", "gbps_in", "rtt_p50_ns",
                        "rtt_p99_ns"});
        t.row().cell(out.kv.offeredMops, 2).cell(out.kv.requestsSent)
            .cell(out.kv.responses).cell(out.kv.lostRequests)
            .cell(out.kv.retransmits).cell(out.kv.duplicateResponses)
            .cell(out.kv.achievedMops, 2).cell(out.kv.gbpsIn, 2)
            .cell(out.kv.rttP50Ns, 0).cell(out.kv.rttP99Ns, 0);
        out.json.add("results", t);
    }
    if (out.ranChaos) {
        const workload::ChaosKvResult &c = out.chaos;
        stats::Table ct({"wedges", "flaps", "bursts", "recoveries",
                         "device_resets", "recovery_p50_ns",
                         "recovery_p99_ns", "recovery_max_ns",
                         "leaked_bufs", "rings_live"});
        ct.row().cell(c.wedgesInjected).cell(c.flapsInjected)
            .cell(c.burstsInjected).cell(c.recoveries)
            .cell(c.deviceResets).cell(c.recoveryP50Ns, 0)
            .cell(c.recoveryP99Ns, 0).cell(c.recoveryMaxNs, 0)
            .cell(c.leakedBufs).cell(c.ringsLive ? 1 : 0);
        out.json.add("chaos", ct);
        stats::Table mt({"poisons", "torns", "stuck_lines",
                         "brownouts", "integrity_retries",
                         "integrity_faults", "device_failed"});
        mt.row().cell(c.poisonsInjected).cell(c.tornsInjected)
            .cell(c.stucksInjected).cell(c.brownoutsInjected)
            .cell(c.integrityRetries).cell(c.integrityFaults)
            .cell(c.deviceFailed ? 1 : 0);
        out.json.add("mem_chaos", mt);
    }
}

/** Record @p system's invariant violations, each prefixed by @p who. */
void
checkSystem(const mem::CoherentSystem &system, const std::string &who,
            ScenarioOutcome &out)
{
    out.systemsChecked++;
    for (const std::string &v : system.checkInvariants())
        out.invariantViolations.push_back(who + ": " + v);
}

void
runSweep(const ScenarioSpec &spec, ScenarioOutcome &out, bool check)
{
    const SweepSpec &s = spec.sweep;
    const mem::PlatformConfig plat = platformFor(spec);
    stats::Table t({"interface", "kind", "size_B", "min_rtt_ns"});
    for (const std::string &key : s.interfaces) {
        const char *kind = "";
        for (const InterfaceFamily &f : interfaceFamilies()) {
            if (key == f.key)
                kind = f.kind;
        }
        const auto factory = worldFactory(key, plat, s.queues);
        for (const std::uint32_t size : s.sizes) {
            const std::string who =
                key + " size " + std::to_string(size);
            WorldCheck checker;
            if (check) {
                checker = [&out, &who](World &w) {
                    checkSystem(w.system, who, out);
                };
            }
            t.row().cell(familyLabel(key)).cell(kind).cell(
                static_cast<std::uint64_t>(size))
                .cell(minLatencyNs(factory, size, checker), 1);
        }
    }
    out.ranSweep = true;
    out.json.add("results", t);
}

std::string
reportName(const ScenarioSpec &spec)
{
    std::string n = "scenario_";
    for (const char c : spec.name) {
        n += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                 ? c
                 : '_';
    }
    return n;
}

} // namespace

ScenarioOutcome
runScenario(const ScenarioSpec &spec, bool quiet, bool check_invariants)
{
    ScenarioOutcome out;
    out.json = stats::JsonReport(reportName(spec));

    // Isolate this run's time-series rows; counters are cumulative
    // per process, so one scenario per ccn_run invocation gates
    // cleanly (the gate's invariants are ratio- and zero-based).
    obs::Sampler::clearRows();

    // `profile coherence;` turns the line-level contention profiler on
    // for every memory system this run builds; restore the previous
    // default on exit so scenarios in one process don't leak state.
    const bool prev_prof = obs::CoherenceProfiler::defaultEnabled();
    if (spec.profileCoherence) {
        obs::CoherenceProfiler::setDefaultEnabled(true);
        obs::CoherenceProfiler::clearLedger();
    }
    struct ProfRestore
    {
        bool prev;
        ~ProfRestore()
        {
            obs::CoherenceProfiler::setDefaultEnabled(prev);
        }
    } prof_restore{prev_prof};

    const char *mode = spec.sweep.present ? "sweep"
                       : spec.replay.present
                           ? "replay"
                           : spec.faults.present
                                 ? "chaos"
                                 : spec.workload.reliable
                                       ? "kv_reliable"
                                       : "kv_raw";
    if (!quiet) {
        stats::banner("scenario '" + spec.name + "' (" + mode +
                      ", platform " + spec.platform + ")");
    }

    if (spec.sweep.present) {
        runSweep(spec, out, check_invariants);
    } else {
        FabricRun run(spec);
        if (spec.replay.present)
            runReplay(spec, run, out);
        else
            runKv(spec, run, out);
        out.json.add("ports", portsTable(run));
        if (check_invariants) {
            for (std::size_t i = 0; i < run.hosts.size(); ++i)
                checkSystem(run.hosts[i]->system, "host " + run.names[i],
                            out);
        }
    }

    addScenarioSection(out.json, spec, mode);
    addObsSections(out.json);

    if (!quiet) {
        // Re-print the results table to stdout for interactive runs.
        for (const auto &[section, table] : out.json.sections()) {
            if (section == "results" || section == "chaos" ||
                section == "mem_chaos" || section == "ports") {
                stats::banner(section);
                table.print();
            }
        }
    }
    return out;
}

} // namespace ccn::scenario
