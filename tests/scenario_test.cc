/**
 * @file
 * Scenario subsystem tests: lexer/parser diagnostics (every error a
 * file:line:col), trace round-tripping, and end-to-end scenario runs
 * — reliable KV over the fabric, KV over the PIO family, a chaos
 * schedule, a loopback sweep, and the capture→replay loop whose
 * replayed op count and loss must match the live run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "mem/platform.hh"
#include "net/fabric.hh"
#include "scenario/parser.hh"
#include "scenario/runner.hh"
#include "scenario/trace.hh"
#include "scenario/world.hh"
#include "workload/clientserver.hh"
#include "workload/dists.hh"

namespace {

using namespace ccn;
using scenario::ScenarioError;
using scenario::ScenarioSpec;

/** Parse with a fixed file name for diagnostics. */
ScenarioSpec
parse(const std::string &src)
{
    return scenario::parseScenario("test.ccn", src);
}

/** Expect a ScenarioError whose position and message substring match. */
void
expectError(const std::string &src, int line, int col,
            const std::string &needle)
{
    try {
        parse(src);
        FAIL() << "expected ScenarioError containing '" << needle
               << "'";
    } catch (const ScenarioError &e) {
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_EQ(e.col(), col) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
        // Diagnostics render as file:line:col: message.
        const std::string prefix = "test.ccn:" +
                                   std::to_string(line) + ":" +
                                   std::to_string(col) + ": ";
        EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
            << e.what();
    }
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Lexer.

TEST(ScenarioLexer, TokensCarryPositions)
{
    const auto toks = scenario::lex("t", "host a {\n  queues 2;\n}");
    ASSERT_EQ(toks.size(), 8u); // host a { queues 2 ; } End
    EXPECT_EQ(toks[0].text, "host");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[0].col, 1);
    EXPECT_EQ(toks[3].text, "queues");
    EXPECT_EQ(toks[3].line, 2);
    EXPECT_EQ(toks[3].col, 3);
    EXPECT_EQ(toks[4].number, 2.0);
}

TEST(ScenarioLexer, NumbersCommentsStrings)
{
    const auto toks = scenario::lex(
        "t", "# comment\nseed 0xc4a05; rate 2.5e6; name \"x y\";");
    EXPECT_EQ(toks[1].number, static_cast<double>(0xc4a05));
    EXPECT_EQ(toks[4].number, 2.5e6);
    EXPECT_EQ(toks[7].text, "x y");
}

TEST(ScenarioLexer, UnterminatedStringIsPositioned)
{
    try {
        scenario::lex("t", "scenario \"oops\n;");
        FAIL();
    } catch (const ScenarioError &e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_EQ(e.col(), 10);
    }
}

// ---------------------------------------------------------------------------
// Parser error paths: every diagnostic is file:line:col.

TEST(ScenarioParser, UnknownTopLevelKeyword)
{
    expectError("hosts a { }", 1, 1, "unknown keyword 'hosts'");
}

TEST(ScenarioParser, UnknownHostProperty)
{
    expectError("host a {\n  iface ccnic;\n}", 2, 3,
                "unknown keyword 'iface' in host block");
}

TEST(ScenarioParser, DuplicateHostName)
{
    expectError("host a { }\nhost a { }", 2, 6,
                "duplicate host name 'a'");
}

TEST(ScenarioParser, DanglingLinkEndpoint)
{
    expectError("host a { }\nlink a ghost { }\n"
                "workload kv { server a; client a; }",
                2, 6, "link endpoint 'ghost' is not a declared host");
}

TEST(ScenarioParser, LossRateOutOfRange)
{
    expectError("host a { }\nlink a { loss 1.5; }", 2, 15,
                "loss 1.5 out of range [0, 1]");
}

TEST(ScenarioParser, GetFractionOutOfRange)
{
    expectError("host a { }\nworkload kv {\n  server a; client a;\n"
                "  get_fraction 2;\n}",
                4, 16, "get_fraction 2 out of range");
}

TEST(ScenarioParser, UnknownInterfaceFamily)
{
    expectError("host a { interface warpdrive; }", 1, 20,
                "unknown interface family 'warpdrive'");
}

TEST(ScenarioParser, UndeclaredWorkloadHost)
{
    expectError("host a { }\nworkload kv { server a; client b; }", 2,
                10, "'b' is not a declared host");
}

TEST(ScenarioParser, ZeroQueuesRejected)
{
    expectError("host a { queues 0; }", 1, 17,
                "queues 0 out of range");
}

TEST(ScenarioParser, FaultsRequireReliableWorkload)
{
    expectError("host a { }\nhost b { }\n"
                "workload kv { mode raw; server a; client b; }\n"
                "faults { target b; }",
                4, 8, "faults require a reliable kv workload");
}

TEST(ScenarioParser, NothingToRunRejected)
{
    expectError("host a { }", 1, 1, "declares nothing to run");
}

TEST(ScenarioParser, MissingSemicolonPositioned)
{
    expectError("host a { queues 2 }", 1, 19, "expected ';'");
}

// ---------------------------------------------------------------------------
// Parser success paths.

TEST(ScenarioParser, FullKvSpecParses)
{
    const ScenarioSpec spec = parse(
        "scenario \"demo\";\nplatform spr;\n"
        "host server { interface ccnic; queues 4; }\n"
        "host client { interface pcie; queues 2; }\n"
        "link server client { gbps 25; delay_ns 600; loss 0.01; "
        "seed 7; }\n"
        "workload kv { mode reliable; server server; client client; "
        "get_fraction 0.9; objects 1024; value_sizes geo; "
        "offered_mops 0.5; window_us 100; capture \"c.trace\"; }\n");
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.platform, "spr");
    ASSERT_EQ(spec.hosts.size(), 2u);
    EXPECT_EQ(spec.hosts[0].interface, "ccnic");
    EXPECT_EQ(spec.hosts[0].queues, 4);
    // The DSL's generation-agnostic alias resolves to the canonical
    // registry key.
    EXPECT_EQ(spec.hosts[1].interface, "pcie_e810");
    ASSERT_EQ(spec.links.size(), 1u);
    EXPECT_EQ(spec.links[0].gbps, 25.0);
    EXPECT_EQ(spec.links[0].loss, 0.01);
    EXPECT_EQ(spec.links[0].seed, 7u);
    EXPECT_TRUE(spec.workload.present);
    EXPECT_TRUE(spec.workload.reliable);
    EXPECT_EQ(spec.workload.getFraction, 0.9);
    EXPECT_EQ(spec.workload.objects, 1024u);
    EXPECT_EQ(spec.workload.sizes, "geo");
    EXPECT_EQ(spec.workload.captureFile, "c.trace");
}

TEST(ScenarioParser, HostBatchSpecParses)
{
    const ScenarioSpec spec = parse(
        "host a { interface ccnic; batch 8; }\n"
        "host b { interface pio; batch adaptive; }\n"
        "host c { interface pcie; batch off; }\n"
        "host d { interface ccnic; }\n"
        "workload kv { server a; client b; }\n");
    ASSERT_EQ(spec.hosts.size(), 4u);
    EXPECT_EQ(spec.hosts[0].batch, "8");
    EXPECT_EQ(spec.hosts[1].batch, "adaptive");
    EXPECT_EQ(spec.hosts[2].batch, "off");
    EXPECT_EQ(spec.hosts[3].batch, ""); // Unset: policy stays off.
}

TEST(ScenarioParser, UnknownBatchModeRejected)
{
    expectError("host a { batch sometimes; }", 1, 16,
                "unknown batch mode 'sometimes' (expected off, "
                "adaptive, or a size)");
}

TEST(ScenarioParser, FixedValueSizes)
{
    const ScenarioSpec spec = parse(
        "host a { }\nhost b { }\n"
        "workload kv { server a; client b; value_sizes 256; }");
    EXPECT_EQ(spec.workload.sizes, "fixed");
    EXPECT_EQ(spec.workload.fixedBytes, 256u);
}

TEST(ScenarioParser, SweepSpecParses)
{
    const ScenarioSpec spec = parse(
        "sweep smallmsg { interfaces ccnic pio; sizes 16 64; "
        "queues 1; }");
    ASSERT_TRUE(spec.sweep.present);
    EXPECT_EQ(spec.sweep.interfaces,
              (std::vector<std::string>{"ccnic", "pio"}));
    EXPECT_EQ(spec.sweep.sizes,
              (std::vector<std::uint32_t>{16, 64}));
}

TEST(ScenarioParser, LoadScenarioReportsUnreadablePath)
{
    EXPECT_THROW(scenario::loadScenario("/nonexistent/x.ccn"),
                 ScenarioError);
}

// ---------------------------------------------------------------------------
// Trace format.

TEST(ScenarioTrace, RoundTrips)
{
    const std::string path = tempPath("rt.trace");
    const std::vector<scenario::TraceRecord> recs = {
        {0, true, 7, 64},
        {1500, false, 123456, 64},
        {1500, true, 0, 128},
    };
    scenario::saveTrace(path, recs);
    const auto back = scenario::loadTrace(path);
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(back[i].atNs, recs[i].atNs);
        EXPECT_EQ(back[i].get, recs[i].get);
        EXPECT_EQ(back[i].key, recs[i].key);
        EXPECT_EQ(back[i].bytes, recs[i].bytes);
    }
    std::remove(path.c_str());
}

TEST(ScenarioTrace, RejectsBadHeaderAndRecords)
{
    const std::string path = tempPath("bad.trace");
    {
        std::ofstream f(path);
        f << "not a trace\n";
    }
    EXPECT_THROW(scenario::loadTrace(path), ScenarioError);
    {
        std::ofstream f(path);
        f << "# ccn-kv-trace v1\n100 frob 1 64\n";
    }
    try {
        scenario::loadTrace(path);
        FAIL();
    } catch (const ScenarioError &e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_NE(std::string(e.what()).find("unknown trace op"),
                  std::string::npos);
    }
    {
        std::ofstream f(path);
        f << "# ccn-kv-trace v1\n200 get 1 64\n100 get 2 64\n";
    }
    EXPECT_THROW(scenario::loadTrace(path), ScenarioError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end scenario runs. Kept small so the suite stays fast.

std::string
kvScenario(const std::string &iface, const std::string &extra_workload)
{
    return "scenario \"t\";\n"
           "host server { interface " + iface + "; queues 2; }\n"
           "host client { interface " + iface + "; queues 2; }\n"
           "link server client { gbps 25; queue_pkts 128; }\n"
           "workload kv { mode reliable; server server; "
           "client client; objects 4096; offered_mops 0.5; "
           "client_queues 2; server_threads 2; window_us 100; "
           "drain_us 1000; min_rto_us 50; " + extra_workload + " }\n";
}

TEST(ScenarioRun, ReliableKvOverCcNic)
{
    const auto out =
        scenario::runScenario(parse(kvScenario("ccnic", "")), true);
    EXPECT_TRUE(out.ranReliable);
    EXPECT_GT(out.kv.requestsSent, 0u);
    EXPECT_EQ(out.kv.lostRequests, 0u);
    EXPECT_EQ(out.kv.retransmits, 0u);
    EXPECT_EQ(out.kv.responses, out.kv.requestsSent);
}

TEST(ScenarioRun, ReliableKvOverPio)
{
    // Satellite for the PIO family: the same KV client-server path
    // end-to-end over PIO message-register NICs on the fabric.
    const auto out =
        scenario::runScenario(parse(kvScenario("pio", "")), true);
    EXPECT_TRUE(out.ranReliable);
    EXPECT_GT(out.kv.requestsSent, 0u);
    EXPECT_EQ(out.kv.lostRequests, 0u);
    EXPECT_EQ(out.kv.responses, out.kv.requestsSent);
}

TEST(ScenarioRun, CaptureThenReplayPreservesOps)
{
    const std::string trace = tempPath("cap.trace");
    const auto live = scenario::runScenario(
        parse(kvScenario("ccnic",
                         "capture \"" + trace + "\";")),
        true);
    ASSERT_GT(live.kv.requestsSent, 0u);
    ASSERT_EQ(live.captured.size(), live.kv.requestsSent);

    const auto replay = scenario::runScenario(
        parse("scenario \"r\";\n"
              "host server { interface ccnic; queues 2; }\n"
              "host client { interface ccnic; queues 2; }\n"
              "link server client { gbps 25; queue_pkts 128; }\n"
              "replay { trace \"" + trace + "\"; server server; "
              "client client; pacing recorded; client_queues 2; "
              "server_threads 2; objects 4096; drain_us 1000; "
              "min_rto_us 50; }\n"),
        true);
    EXPECT_TRUE(replay.ranReplay);
    // The replayed run carries the same op count as the live run and
    // loses nothing.
    EXPECT_EQ(replay.replayOps, live.kv.requestsSent);
    EXPECT_EQ(replay.replaySent, replay.replayOps);
    EXPECT_EQ(replay.replayResponses, replay.replayOps);
    EXPECT_EQ(replay.replayLost, 0u);
    std::remove(trace.c_str());
}

TEST(ScenarioRun, ReplayMaxRateCompletes)
{
    const std::string trace = tempPath("max.trace");
    std::vector<scenario::TraceRecord> recs;
    for (int i = 0; i < 64; ++i) {
        recs.push_back({static_cast<std::uint64_t>(i) * 1000,
                        i % 4 != 0,
                        static_cast<std::uint32_t>(i % 32), 64});
    }
    scenario::saveTrace(trace, recs);
    const auto out = scenario::runScenario(
        parse("host server { interface ccnic; queues 2; }\n"
              "host client { interface ccnic; queues 2; }\n"
              "link server client { gbps 25; }\n"
              "replay { trace \"" + trace + "\"; server server; "
              "client client; pacing max; objects 64; "
              "drain_us 1000; min_rto_us 50; }\n"),
        true);
    EXPECT_EQ(out.replayOps, 64u);
    EXPECT_EQ(out.replayResponses, 64u);
    EXPECT_EQ(out.replayLost, 0u);
    std::remove(trace.c_str());
}

TEST(ScenarioRun, ChaosScheduleRecovers)
{
    const auto out = scenario::runScenario(
        parse("scenario \"chaos\";\n"
              "host server { interface ccnic; queues 2; }\n"
              "host client { interface ccnic; queues 2; }\n"
              "link server client { gbps 25; queue_pkts 128; "
              "loss 0.005; seed 99; }\n"
              "workload kv { mode reliable; server server; "
              "client client; objects 4096; offered_mops 0.5; "
              "client_queues 2; server_threads 2; window_us 200; "
              "drain_us 2000; min_rto_us 50; }\n"
              "faults { seed 0xc4a05; target client; nic_wedges 1; "
              "link_flaps 1; flap_down_us 5; loss_bursts 1; "
              "burst_drops 4; }\n"),
        true);
    EXPECT_TRUE(out.ranChaos);
    EXPECT_EQ(out.chaos.wedgesInjected, 1u);
    EXPECT_EQ(out.chaos.recoveries, 1u);
    EXPECT_EQ(out.kv.lostRequests, 0u);
    EXPECT_EQ(out.chaos.leakedBufs, 0u);
    EXPECT_TRUE(out.chaos.ringsLive);
}

TEST(ScenarioRun, SweepProducesLatencyTable)
{
    const auto out = scenario::runScenario(
        parse("sweep smallmsg { interfaces ccnic pio; sizes 64; "
              "queues 1; }"),
        true);
    EXPECT_TRUE(out.ranSweep);
    const auto &sections = out.json.sections();
    ASSERT_FALSE(sections.empty());
    EXPECT_EQ(sections[0].first, "results");
    const auto &rows = sections[0].second.rows();
    ASSERT_EQ(rows.size(), 2u);
    // min_rtt_ns is the last column; both families must measure a
    // positive closed-loop latency.
    for (const auto &row : rows)
        EXPECT_GT(std::stod(row.back()), 0.0);
}

TEST(ScenarioRun, CheckInvariantsCoversEveryMemorySystem)
{
    // A fabric run checks each host's memory system; a sweep checks
    // the world of each point before it is torn down.
    const auto kv = scenario::runScenario(parse(kvScenario("pio", "")),
                                          true, true);
    EXPECT_EQ(kv.systemsChecked, 2);
    EXPECT_TRUE(kv.invariantViolations.empty())
        << (kv.invariantViolations.empty() ? ""
                                           : kv.invariantViolations[0]);
    const auto sweep = scenario::runScenario(
        parse("sweep smallmsg { interfaces ccnic pio; sizes 64 256; "
              "queues 1; }"),
        true, true);
    EXPECT_EQ(sweep.systemsChecked, 4);
    EXPECT_TRUE(sweep.invariantViolations.empty())
        << (sweep.invariantViolations.empty()
                ? ""
                : sweep.invariantViolations[0]);
}

TEST(ScenarioRun, MatchesHandCodedHarness)
{
    // The scenario path must reproduce the hand-coded harness result
    // for the same configuration: identical world construction order
    // gives identical accepted-request and response counts.
    const auto out =
        scenario::runScenario(parse(kvScenario("ccnic", "")), true);

    const auto plat = mem::icxConfig();
    sim::Simulator simv;
    obs::Sampler sampler(simv);
    sampler.start();
    auto server = scenario::makeHost(simv, "ccnic", plat, 2, 11);
    auto client = scenario::makeHost(simv, "ccnic", plat, 2, 12);
    net::Fabric fabric(simv);
    net::LinkConfig link;
    link.gbps = 25.0;
    link.propDelay = sim::fromNs(500.0);
    link.queuePackets = 128;
    const auto server_addr = fabric.attach(
        "server", scenario::hostHooks(*server), link);
    fabric.attach("client", scenario::hostHooks(*client), link);

    workload::ClientServerConfig cfg;
    cfg.kv.serverThreads = 2;
    cfg.kv.numObjects = 4096;
    cfg.kv.getFraction = 0.95;
    cfg.kv.sizes = workload::SizeDist::ads();
    cfg.offeredOps = 0.5e6;
    cfg.clientQueues = 2;
    cfg.window = sim::fromUs(100.0);
    cfg.drain = sim::fromUs(1000.0);
    cfg.tp.minRto = sim::fromUs(50.0);
    const auto direct = workload::runKvClientServerReliable(
        simv, server->system, *server->nic, client->system,
        *client->nic, server_addr, cfg);

    EXPECT_EQ(direct.lostRequests, 0u);
    EXPECT_EQ(out.kv.lostRequests, 0u);
    // Same world construction, link parameters, and workload config:
    // the scenario path must land within a few percent of the
    // hand-coded harness (scheduling order may differ slightly).
    EXPECT_NEAR(static_cast<double>(out.kv.requestsSent),
                static_cast<double>(direct.requestsSent),
                0.05 * static_cast<double>(direct.requestsSent) + 2.0);
    EXPECT_NEAR(out.kv.achievedMops, direct.achievedMops,
                0.05 * direct.achievedMops + 1e-3);
}

TEST(ScenarioWorld, FamilyRegistryAndAliases)
{
    EXPECT_EQ(scenario::canonicalFamilyKey("pcie"), "pcie_e810");
    EXPECT_EQ(scenario::canonicalFamilyKey("pcie_gen5"), "pcie_cx6");
    EXPECT_EQ(scenario::canonicalFamilyKey("ccnic"), "ccnic");
    EXPECT_EQ(scenario::canonicalFamilyKey("nope"), "");
    EXPECT_THROW(scenario::worldFactory("nope", mem::icxConfig(), 1),
                 std::invalid_argument);
    sim::Simulator simv;
    EXPECT_THROW(scenario::makeHost(simv, "nope", mem::icxConfig(), 1,
                                    1),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shared device lifecycle, on every interface family.

/** Counter/tracepoint prefix of a family's NIC implementation. */
std::string
counterPrefix(const std::string &key)
{
    if (key.rfind("pcie", 0) == 0)
        return "pcie_nic";
    if (key.rfind("pio", 0) == 0)
        return "pio";
    return "ccnic";
}

/** Reap queue 0 once; every received buffer goes back to the pool. */
sim::Coro<int>
reapOnce(driver::NicInterface &nic)
{
    driver::PacketBuf *in[32];
    const int r = co_await nic.rxBurst(0, in, 32);
    if (r > 0)
        co_await nic.freeBufs(0, in, r);
    co_return r;
}

/**
 * Send @p n packets of @p len bytes on queue 0 of a loopback NIC and
 * reap the RX side until they are all back (or @p patience passes).
 * Returns the number received; every buffer goes back to the pool.
 */
sim::Coro<int>
loopTraffic(sim::Simulator &simv, driver::NicInterface &nic, int n,
            std::uint32_t len, sim::Tick patience)
{
    // Let host-managed RX rings (PCIe) post their buffers first: a
    // frame that finds no posted buffer is dropped.
    driver::PacketBuf *in[16];
    const int early = co_await nic.rxBurst(0, in, 16);
    if (early > 0)
        co_await nic.freeBufs(0, in, early);
    co_await simv.delay(sim::fromUs(20.0));

    driver::PacketBuf *bufs[16];
    const int got = co_await nic.allocBufs(0, len, bufs, n);
    for (int i = 0; i < got; ++i) {
        bufs[i]->len = len;
        bufs[i]->flowId = static_cast<std::uint64_t>(i);
    }
    const int sent = co_await nic.txBurst(0, bufs, got);
    if (sent < got)
        co_await nic.freeBufs(0, bufs + sent, got - sent);
    int received = 0;
    const sim::Tick until = simv.now() + patience;
    while (received < sent && simv.now() < until) {
        const int r = co_await nic.rxBurst(0, in, 16);
        if (r > 0) {
            received += r;
            co_await nic.freeBufs(0, in, r);
        } else {
            co_await nic.idleWait(0, simv.now() + sim::fromUs(1.0));
        }
    }
    co_return received;
}

/** What the lifecycle task observed, checked by the test body. */
struct LifecycleObs
{
    bool done = false;
    int before = 0;           ///< Packets looped back before the wedge.
    int after = 0;            ///< Packets looped back after reinit().
    std::size_t leaks = 1;    ///< auditLeaks() right after reinit().
    bool operational = false; ///< operational() right after reinit().
    std::vector<std::uint32_t> outstanding; ///< Per queue, after reinit.
    std::size_t regionsBefore = 0; ///< Profiler regions before reset.
    std::size_t regions = 0;       ///< Profiler regions after reinit().
    std::uint64_t resets = 0; ///< "<prefix>.resets" after reinit().
    std::uint64_t reclaimed = 0; ///< "<prefix>.reset_reclaimed_bufs".
    std::uint64_t beatAtReinit = 0;
    std::uint64_t beatLater = 0;
};

/** Loopback traffic, wedge with packets in flight, full recovery. */
sim::Task
lifecycleTask(scenario::World &w, const std::string &prefix,
              LifecycleObs *o)
{
    // 1KB frames are past the PIO inline budget, so PIO slots hold
    // their buffers like ring slots do. Sending some before the wedge
    // also sets up every pool recycle stack reset() will free into.
    driver::NicInterface &nic = *w.nic;
    o->before =
        co_await loopTraffic(w.simv, nic, 8, 1024, sim::fromUs(50.0));

    // Freeze the device, then submit: the descriptors stay in flight,
    // so reset() has ring or slot buffers to reclaim.
    nic.wedge();
    driver::PacketBuf *bufs[8];
    const int got = co_await nic.allocBufs(0, 1024, bufs, 8);
    for (int i = 0; i < got; ++i)
        bufs[i]->len = 1024;
    const int sent = co_await nic.txBurst(0, bufs, got);
    if (sent < got)
        co_await nic.freeBufs(0, bufs + sent, got - sent);
    co_await w.simv.delay(sim::fromUs(5.0));
    o->regionsBefore = w.system.profiler().regionCount();

    co_await nic.quiesce();
    co_await nic.reset();
    co_await nic.reinit();
    o->leaks = nic.auditLeaks();
    o->operational = nic.operational();
    for (int q = 0; q < nic.numQueues(); ++q)
        o->outstanding.push_back(nic.health(q).txOutstanding);
    o->regions = w.system.profiler().regionCount();
    o->resets = obs::Registry::global().value(prefix + ".resets");
    o->reclaimed =
        obs::Registry::global().value(prefix + ".reset_reclaimed_bufs");

    o->beatAtReinit = co_await nic.readDeviceBeat();
    o->after =
        co_await loopTraffic(w.simv, nic, 8, 1024, sim::fromUs(50.0));
    co_await w.simv.delay(sim::fromUs(10.0));
    o->beatLater = co_await nic.readDeviceBeat();
    o->done = true;
    co_return;
}

class FamilyLifecycle : public testing::TestWithParam<std::string>
{};

TEST_P(FamilyLifecycle, WedgeResetReinitRestoresService)
{
    const std::string key = GetParam();
    const std::string prefix = counterPrefix(key);
    auto w = scenario::worldFactory(key, mem::icxConfig(), 2)();
    const obs::Registry &reg = obs::Registry::global();
    const std::uint64_t resets = reg.value(prefix + ".resets");
    const std::uint64_t reclaimed =
        reg.value(prefix + ".reset_reclaimed_bufs");

    LifecycleObs o;
    w->simv.spawn(lifecycleTask(*w, prefix, &o));
    w->simv.run(sim::fromUs(300.0));

    ASSERT_TRUE(o.done);
    EXPECT_EQ(o.before, 8);
    EXPECT_EQ(o.leaks, 0u);
    EXPECT_TRUE(o.operational);
    ASSERT_EQ(o.outstanding.size(), 2u);
    for (std::uint32_t n : o.outstanding)
        EXPECT_EQ(n, 0u);
    EXPECT_EQ(o.regions, o.regionsBefore); // Re-registration: no leak.
    EXPECT_EQ(o.resets, resets + 1);
    EXPECT_GT(o.reclaimed, reclaimed); // The wedged TX was reclaimed.
    EXPECT_EQ(o.after, 8);                  // Traffic resumes...
    EXPECT_GT(o.beatLater, o.beatAtReinit); // ...and so do beats.
}

/** Queue 0's progress, tx_packets, the family's signal writes (ring
 *  signals, slot flips or doorbells) and the pool's free counts: what
 *  must hold still while the device is down. */
std::vector<std::uint64_t>
downState(driver::NicInterface &nic, const std::string &prefix)
{
    const obs::Registry &reg = obs::Registry::global();
    const std::string signal_writes =
        prefix == "pio"        ? "pio.slot_writes"
        : prefix == "pcie_nic" ? "pcie_nic.doorbells"
                               : "ccnic.signal_writes";
    const driver::QueueHealth h = nic.health(0);
    const driver::Mempool &pool = nic.pool();
    return {reg.value(prefix + ".tx_packets"),
            reg.value(signal_writes),
            h.txSubmitted,
            h.txCompleted,
            h.rxDelivered,
            h.txOutstanding,
            h.txHeldInBatch,
            pool.freeCount(driver::BufClass::Small),
            pool.freeCount(driver::BufClass::Large),
            pool.recycledCount(driver::BufClass::Small),
            pool.recycledCount(driver::BufClass::Large)};
}

/** What the quiesce task observed, checked by the test body. */
struct QuiesceObs
{
    bool done = false;
    bool midBatch = false; ///< A TX batch was read when quiesce began.
    std::vector<std::uint64_t> quiesced; ///< Right after quiesce().
    std::vector<std::uint64_t> later;    ///< 20 us later.
    std::vector<std::uint64_t> reset;    ///< Right after reset().
    std::vector<std::uint64_t> resetLater; ///< 20 us later.
};

/** Loopback traffic, quiesce() with a TX engine inside its batch. */
sim::Task
quiesceMidBatchTask(scenario::World &w, const std::string &prefix,
                    QuiesceObs *o)
{
    driver::NicInterface &nic = *w.nic;
    (void)co_await reapOnce(nic);
    co_await w.simv.delay(sim::fromUs(20.0));

    // 1 KB frames are past the PIO inline budget, so every family's
    // TX engine still has buffers to hand over late in its batch.
    driver::PacketBuf *bufs[24];
    const int got = co_await nic.allocBufs(0, 1024, bufs, 24);
    for (int i = 0; i < got; ++i)
        bufs[i]->len = 1024;
    const int sent = co_await nic.txBurst(0, bufs, got);
    if (sent < got)
        co_await nic.freeBufs(0, bufs + sent, got - sent);

    // A TX engine counts its batch completed once it has read the
    // descriptors, before it puts the packets on the wire and frees
    // their buffers: quiesce at that tick, inside the batch.
    const std::uint64_t before = nic.health(0).txCompleted;
    const sim::Tick until = w.simv.now() + sim::fromUs(20.0);
    while (nic.health(0).txCompleted == before && w.simv.now() < until)
        co_await w.simv.delay(sim::fromNs(1.0));
    o->midBatch = nic.health(0).txCompleted != before;

    co_await nic.quiesce();
    o->quiesced = downState(nic, prefix);
    co_await w.simv.delay(sim::fromUs(20.0));
    o->later = downState(nic, prefix);
    co_await nic.reset();
    o->reset = downState(nic, prefix);
    co_await w.simv.delay(sim::fromUs(20.0));
    o->resetLater = downState(nic, prefix);
    co_await nic.reinit();
    o->done = true;
}

TEST_P(FamilyLifecycle, QuiesceWaitsOutAnEngineMidBatch)
{
    const std::string key = GetParam();
    const std::string prefix = counterPrefix(key);
    auto w = scenario::worldFactory(key, mem::icxConfig(), 1)();
    QuiesceObs o;
    w->simv.spawn(quiesceMidBatchTask(*w, prefix, &o));
    w->simv.run(sim::fromUs(200.0));

    ASSERT_TRUE(o.done);
    EXPECT_TRUE(o.midBatch);
    EXPECT_GT(o.quiesced[0], 0u); // Some packets crossed the device.
    // Down: no packet leaves, no progress, no buffer moves...
    EXPECT_EQ(o.later, o.quiesced);
    // ...reset() returns the reclaimed buffers and rewinds positions
    // but moves no packet and no progress counter...
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(o.reset[i], o.quiesced[i]) << "field " << i;
    // ...and nothing moves again until reinit().
    EXPECT_EQ(o.resetLater, o.reset);
}

std::vector<std::string>
familyKeys()
{
    std::vector<std::string> keys;
    for (const scenario::InterfaceFamily &f :
         scenario::interfaceFamilies())
        keys.push_back(f.key);
    return keys;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyLifecycle, testing::ValuesIn(familyKeys()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------------------
// Publication under every batch mode, on every signaling style: inline
// ring flags (ccnic), register signaling with host-managed buffers
// (upi_unopt), MMIO doorbells (pcie_e810) and slot credits (pio).

/** What the batch-matrix task observed, checked by the test body. */
struct BatchObs
{
    bool done = false;
    int offered = 0;  ///< Packets handed to txBurst.
    int refused = 0;  ///< Packets txBurst did not accept.
    int received = 0; ///< Packets reaped on RX.
    std::uint64_t flushes = 0;    ///< batchFlushes() after the drain.
    std::uint32_t heldInBatch = 1; ///< txHeldInBatch after the drain.
    std::size_t leaks = 1;        ///< auditLeaks() after reset().
};

/**
 * Bursts of uneven size (so grouped lines, batches and credit windows
 * end part-filled), a drain long enough for every flush timer, then
 * quiesce() and reset(). The eleven bursts of 1..7 packets leave three
 * staged under batch 4, which only the flush timer publishes.
 */
sim::Task
batchMatrixTask(scenario::World &w, BatchObs *o)
{
    driver::NicInterface &nic = *w.nic;
    // Let host-managed RX rings (PCIe) post their buffers first.
    (void)co_await reapOnce(nic);
    co_await w.simv.delay(sim::fromUs(20.0));

    for (int burst = 0; burst < 11; ++burst) {
        driver::PacketBuf *bufs[8];
        const int want = 1 + (burst * 3) % 7;
        const int got = co_await nic.allocBufs(0, 64, bufs, want);
        for (int i = 0; i < got; ++i) {
            bufs[i]->len = 64;
            bufs[i]->flowId = static_cast<std::uint64_t>(o->offered + i);
        }
        o->offered += got;
        const int sent = co_await nic.txBurst(0, bufs, got);
        if (sent < got) {
            o->refused += got - sent;
            co_await nic.freeBufs(0, bufs + sent, got - sent);
        }
        o->received += co_await reapOnce(nic);
        co_await w.simv.delay(sim::fromNs(300.0));
    }
    const sim::Tick until = w.simv.now() + sim::fromUs(60.0);
    while (o->received + o->refused < o->offered && w.simv.now() < until) {
        const int r = co_await reapOnce(nic);
        o->received += r;
        if (r == 0)
            co_await nic.idleWait(0, w.simv.now() + sim::fromUs(1.0));
    }
    // Past every flush timeout: nothing may still be held back.
    co_await w.simv.delay(sim::fromUs(5.0));
    o->received += co_await reapOnce(nic);
    o->flushes = nic.batchFlushes();
    o->heldInBatch = nic.health(0).txHeldInBatch;

    co_await nic.quiesce();
    co_await nic.reset();
    o->leaks = nic.auditLeaks();
    o->done = true;
    co_return;
}

using BatchCell = std::tuple<std::string, std::string>;

class BatchMatrix : public testing::TestWithParam<BatchCell>
{};

TEST_P(BatchMatrix, EveryPacketDeliveredAndNothingHeldOrLeaked)
{
    const auto &[key, batch] = GetParam();
    auto w = scenario::worldFactory(key, mem::icxConfig(), 1,
                                    /*loopback=*/true, batch)();
    BatchObs o;
    w->simv.spawn(batchMatrixTask(*w, &o));
    w->simv.run(sim::fromUs(400.0));

    ASSERT_TRUE(o.done);
    EXPECT_GT(o.received, 0);
    EXPECT_EQ(o.received + o.refused, o.offered);
    EXPECT_EQ(o.flushes == 0, batch == "off");
    EXPECT_EQ(o.heldInBatch, 0u);
    EXPECT_EQ(o.leaks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesByBatch, BatchMatrix,
    testing::Combine(testing::Values("ccnic", "upi_unopt", "pcie_e810",
                                     "pio", "pio_cxl"),
                     testing::Values("off", "4", "adaptive")),
    [](const testing::TestParamInfo<BatchCell> &info) {
        return std::get<0>(info.param) + "_batch_" +
               std::get<1>(info.param);
    });

// ---------------------------------------------------------------------------
// RX-backlog flow control: with loopback on, a device TX engine pulls
// no new work while the wire input holds two engine batches.

/** What the flow-control task observed, checked by the test body. */
struct FlowObs
{
    bool done = false;
    bool stalled = false;        ///< RX side full: TX stopped completing.
    std::size_t backlog = 0;     ///< Wire input after the injection.
    std::uint64_t heldGain = 0;  ///< Most TX completions seen while the
                                 ///< input held >= 2 batches.
    std::uint64_t finalGain = 0; ///< TX completions once reaping ran.
};

/** Send 8 loopback packets of 64 B on queue 0. */
sim::Coro<void>
sendSome(driver::NicInterface &nic)
{
    driver::PacketBuf *bufs[8];
    const int got = co_await nic.allocBufs(0, 64, bufs, 8);
    for (int i = 0; i < got; ++i)
        bufs[i]->len = 64;
    const int sent = co_await nic.txBurst(0, bufs, got);
    if (sent < got)
        co_await nic.freeBufs(0, bufs + sent, got - sent);
}

sim::Task
flowControlTask(scenario::World &w, std::size_t batch, FlowObs *o)
{
    driver::NicInterface &nic = *w.nic;
    auto completed = [&nic] { return nic.health(0).txCompleted; };
    // Host-managed RX (upi_unopt): post blanks once, then never again.
    (void)co_await reapOnce(nic);
    co_await w.simv.delay(sim::fromUs(20.0));

    // Loopback traffic with RX never reaped: the RX ring or slot array
    // fills, and the RX engine waits for room holding the device core.
    // The TX engine, work pending, stops at the core.
    std::uint64_t last = completed();
    sim::Tick quiet_since = w.simv.now();
    for (int step = 0;
         step < 400 && w.simv.now() - quiet_since < sim::fromUs(10.0);
         ++step) {
        co_await sendSome(nic);
        co_await w.simv.delay(sim::fromUs(1.0));
        if (completed() != last) {
            last = completed();
            quiet_since = w.simv.now();
        }
    }
    o->stalled = w.simv.now() - quiet_since >= sim::fromUs(10.0);

    // Three engine batches arrive from the wire; the stuck RX engine
    // cannot take them. (Loopback alone never builds this backlog: an
    // RX engine waiting for room holds the core the TX engine needs.)
    for (std::size_t k = 0; k < 3 * batch; ++k) {
        driver::WirePacket pkt;
        pkt.len = 64;
        pkt.flowId = k;
        pkt.fcs = driver::wireFcs(pkt);
        nic.injectRx(0, pkt);
    }
    o->backlog = nic.wireBacklog(0);

    // Reap slowly. Each reap lets the RX engine place a batch; while
    // the input still holds two batches the TX engine must pull
    // nothing, except the one batch already waiting for the core.
    const std::uint64_t c0 = completed();
    for (int round = 0; round < 60; ++round) {
        (void)co_await reapOnce(nic);
        for (int k = 0; k < 20; ++k) {
            co_await w.simv.delay(sim::fromNs(50.0));
            if (nic.wireBacklog(0) >= 2 * batch)
                o->heldGain = std::max(o->heldGain, completed() - c0);
        }
    }
    o->finalGain = completed() - c0;
    o->done = true;
}

class FlowControl : public testing::TestWithParam<std::string>
{};

TEST_P(FlowControl, TxWaitsWhileRxInputHoldsTwoBatches)
{
    const std::string key = GetParam();
    const std::size_t batch = key.rfind("pio", 0) == 0
                                  ? std::size_t{pio::kNicBatch}
                                  : std::size_t{ccnic::kNicBatch};
    auto w = scenario::worldFactory(key, mem::icxConfig(), 1)();
    FlowObs o;
    w->simv.spawn(flowControlTask(*w, batch, &o));
    w->simv.run(sim::fromUs(600.0));

    ASSERT_TRUE(o.done);
    EXPECT_TRUE(o.stalled);
    EXPECT_GE(o.backlog, 3 * batch);
    EXPECT_LE(o.heldGain, batch);
    EXPECT_GT(o.finalGain, batch); // Reaping lets TX run again.
}

INSTANTIATE_TEST_SUITE_P(
    LoopbackFamilies, FlowControl,
    testing::Values("ccnic", "upi_unopt", "pio", "pio_cxl"),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
