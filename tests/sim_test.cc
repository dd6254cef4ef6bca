/**
 * @file
 * Unit tests for the discrete-event simulation kernel: event ordering,
 * coroutine tasks, awaitables, synchronization primitives, bandwidth
 * resources, and deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace {

using namespace ccn::sim;

TEST(Time, Conversions)
{
    EXPECT_EQ(fromNs(1.0), kNanosecond);
    EXPECT_EQ(fromUs(2.0), 2 * kMicrosecond);
    EXPECT_DOUBLE_EQ(toNs(1500), 1.5);
    EXPECT_DOUBLE_EQ(toUs(2 * kMicrosecond), 2.0);
    // 64B at 64GB/s is 1ns.
    EXPECT_EQ(serializationTime(64, 64e9), kNanosecond);
    EXPECT_DOUBLE_EQ(gbpsToBytesPerSec(8.0), 1e9);
}

TEST(EventQueue, CallbacksRunInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.scheduleCallback(300, [&] { order.push_back(3); });
    sim.scheduleCallback(100, [&] { order.push_back(1); });
    sim.scheduleCallback(200, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 300u);
}

TEST(EventQueue, SameTickFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        sim.scheduleCallback(42, [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunLimitStopsTime)
{
    Simulator sim;
    bool ran = false;
    sim.scheduleCallback(1000, [&] { ran = true; });
    sim.run(500);
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.now(), 500u);
    sim.run();
    EXPECT_TRUE(ran);
}

Task
delayTask(Simulator &sim, std::vector<Tick> &marks)
{
    marks.push_back(sim.now());
    co_await sim.delay(100);
    marks.push_back(sim.now());
    co_await sim.delay(0);
    marks.push_back(sim.now());
    co_await sim.delayUntil(5000);
    marks.push_back(sim.now());
}

TEST(Task, DelaysAdvanceTime)
{
    Simulator sim;
    std::vector<Tick> marks;
    sim.spawn(delayTask(sim, marks));
    sim.run();
    ASSERT_EQ(marks.size(), 4u);
    EXPECT_EQ(marks[0], 0u);
    EXPECT_EQ(marks[1], 100u);
    EXPECT_EQ(marks[2], 100u);
    EXPECT_EQ(marks[3], 5000u);
}

Coro<int>
addLater(Simulator &sim, int a, int b)
{
    co_await sim.delay(10);
    co_return a + b;
}

Coro<int>
nested(Simulator &sim)
{
    int x = co_await addLater(sim, 1, 2);
    int y = co_await addLater(sim, x, 10);
    co_return y;
}

Task
coroDriver(Simulator &sim, int &out)
{
    out = co_await nested(sim);
}

TEST(Coro, NestedAwaitsReturnValues)
{
    Simulator sim;
    int out = 0;
    sim.spawn(coroDriver(sim, out));
    sim.run();
    EXPECT_EQ(out, 13);
    EXPECT_EQ(sim.now(), 20u);
}

Task
producer(Simulator &sim, Mailbox<int> &box)
{
    for (int i = 0; i < 3; ++i) {
        co_await sim.delay(100);
        box.put(i);
    }
}

Task
consumer(Simulator &sim, Mailbox<int> &box, std::vector<std::pair<Tick, int>> &got)
{
    for (int i = 0; i < 3; ++i) {
        int v = co_await box.get();
        got.emplace_back(sim.now(), v);
    }
}

TEST(Mailbox, BlocksUntilPut)
{
    Simulator sim;
    Mailbox<int> box(sim);
    std::vector<std::pair<Tick, int>> got;
    sim.spawn(consumer(sim, box, got));
    sim.spawn(producer(sim, box));
    sim.run();
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], (std::pair<Tick, int>{100, 0}));
    EXPECT_EQ(got[1], (std::pair<Tick, int>{200, 1}));
    EXPECT_EQ(got[2], (std::pair<Tick, int>{300, 2}));
}

Task
semUser(Simulator &sim, Semaphore &sem, int &active, int &peak)
{
    co_await sem.acquire();
    active++;
    peak = std::max(peak, active);
    co_await sim.delay(50);
    active--;
    sem.release();
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulator sim;
    Semaphore sem(sim, 2);
    int active = 0, peak = 0;
    for (int i = 0; i < 6; ++i)
        sim.spawn(semUser(sim, sem, active, peak));
    sim.run();
    EXPECT_EQ(peak, 2);
    EXPECT_EQ(active, 0);
    // 6 users, 2 at a time, 50 ticks each = 150 ticks.
    EXPECT_EQ(sim.now(), 150u);
}

Task
gateWaiter(Simulator &sim, Gate &gate, int &wakeups)
{
    co_await gate.wait();
    (void)sim;
    wakeups++;
}

TEST(Gate, NotifyAllWakesEveryWaiter)
{
    Simulator sim;
    Gate gate(sim);
    int wakeups = 0;
    for (int i = 0; i < 4; ++i)
        sim.spawn(gateWaiter(sim, gate, wakeups));
    sim.scheduleCallback(500, [&] { gate.notifyAll(); });
    sim.run();
    EXPECT_EQ(wakeups, 4);
    EXPECT_EQ(sim.now(), 500u);
}

/** One timed wait; records each resumption and the co_await result. */
Task
timedWaiter(Simulator &sim, Gate &gate, Tick deadline, int id,
            std::vector<std::pair<int, bool>> &got, std::vector<Tick> &at)
{
    const bool notified = co_await gate.waitUntil(deadline);
    got.emplace_back(id, notified);
    at.push_back(sim.now());
}

Task
untimedWaiter(Simulator &sim, Gate &gate, int id,
              std::vector<std::pair<int, bool>> &got, std::vector<Tick> &at)
{
    co_await gate.wait();
    got.emplace_back(id, true);
    at.push_back(sim.now());
}

TEST(Gate, WaitUntilNotifiedBeforeDeadline)
{
    Simulator sim;
    Gate gate(sim);
    std::vector<std::pair<int, bool>> got;
    std::vector<Tick> at;
    sim.spawn(timedWaiter(sim, gate, 1000, 0, got, at));
    sim.scheduleCallback(300, [&] {
        EXPECT_TRUE(gate.hasWaiters());
        gate.notifyAll();
        EXPECT_FALSE(gate.hasWaiters());
    });
    sim.run(999);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], (std::pair<int, bool>{0, true}));
    EXPECT_EQ(at[0], 300u);
    // Spawn, notify callback, wake-up.
    EXPECT_EQ(sim.eventsExecuted(), 3u);
    // The stale timeout still runs at the deadline, as one event that
    // resumes nothing.
    sim.run();
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(sim.eventsExecuted(), 4u);
    EXPECT_EQ(sim.now(), 1000u);
}

TEST(Gate, WaitUntilTimesOut)
{
    Simulator sim;
    Gate gate(sim);
    std::vector<std::pair<int, bool>> got;
    std::vector<Tick> at;
    sim.spawn(timedWaiter(sim, gate, 700, 0, got, at));
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], (std::pair<int, bool>{0, false}));
    EXPECT_EQ(at[0], 700u);
    // Spawn, timeout, wake-up.
    EXPECT_EQ(sim.eventsExecuted(), 3u);
    EXPECT_FALSE(gate.hasWaiters());
    // A notify after the timeout wakes nobody.
    gate.notifyAll();
    sim.run();
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(sim.eventsExecuted(), 3u);
}

TEST(Gate, WaitUntilPastDeadlineDoesNotSuspend)
{
    Simulator sim;
    Gate gate(sim);
    std::vector<std::pair<int, bool>> got;
    std::vector<Tick> at;
    sim.scheduleCallback(500, [&] {
        sim.spawn(timedWaiter(sim, gate, 500, 0, got, at));
        sim.spawn(timedWaiter(sim, gate, 20, 1, got, at));
    });
    sim.run();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], (std::pair<int, bool>{0, false}));
    EXPECT_EQ(got[1], (std::pair<int, bool>{1, false}));
    EXPECT_EQ(at, (std::vector<Tick>{500, 500}));
    // The callback and the two spawns: no timeout, no wake-up.
    EXPECT_EQ(sim.eventsExecuted(), 3u);
    EXPECT_FALSE(gate.hasWaiters());
}

TEST(Gate, TimedAndUntimedWaitersShareAGate)
{
    Simulator sim;
    Gate gate(sim);
    std::vector<std::pair<int, bool>> got;
    std::vector<Tick> at;
    sim.spawn(timedWaiter(sim, gate, 5000, 0, got, at));
    sim.spawn(untimedWaiter(sim, gate, 1, got, at));
    sim.spawn(timedWaiter(sim, gate, 100, 2, got, at));
    sim.spawn(timedWaiter(sim, gate, 6000, 3, got, at));
    sim.spawn(untimedWaiter(sim, gate, 4, got, at));
    sim.scheduleCallback(200, [&] {
        EXPECT_TRUE(gate.hasWaiters());
        gate.notifyAll();
    });
    sim.run();
    // Waiter 2 timed out at 100. The notify wakes the untimed waiters
    // first, then the pending timed ones, each in arrival order.
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(got[0], (std::pair<int, bool>{2, false}));
    EXPECT_EQ(got[1], (std::pair<int, bool>{1, true}));
    EXPECT_EQ(got[2], (std::pair<int, bool>{4, true}));
    EXPECT_EQ(got[3], (std::pair<int, bool>{0, true}));
    EXPECT_EQ(got[4], (std::pair<int, bool>{3, true}));
    EXPECT_EQ(at, (std::vector<Tick>{100, 200, 200, 200, 200}));
    // 5 spawns, 3 timeouts (two of them stale), 1 timeout wake-up,
    // the notify callback and 4 notify wake-ups.
    EXPECT_EQ(sim.eventsExecuted(), 14u);
    EXPECT_EQ(sim.now(), 6000u);
    EXPECT_FALSE(gate.hasWaiters());
}

/** @p waits timed waits of @p period ticks each, one after another. */
Task
timeoutLoop(Simulator &sim, Gate &gate, Tick period, int waits,
            int &timeouts, std::size_t &peak)
{
    for (int i = 0; i < waits; ++i) {
        if (!co_await gate.waitUntil(sim.now() + period))
            ++timeouts;
        peak = std::max(peak, gate.timedEntries());
    }
}

TEST(Gate, TimedOutWaitsDoNotPileUp)
{
    Simulator sim;
    Gate gate(sim);
    int timeouts = 0;
    std::size_t peak = 0;
    // Four loops with different periods overlap their waits, so waits
    // that timed out sit in the list in front of pending ones.
    for (int i = 0; i < 4; ++i)
        sim.spawn(timeoutLoop(sim, gate, 10 + 3 * static_cast<Tick>(i),
                              25000, timeouts, peak));
    sim.run();
    EXPECT_EQ(timeouts, 100000);
    // At most four waits pend at once, so a prune keeps at most four:
    // the list never passes the 32-entry prune floor plus the new
    // entry, and four records serve every wait.
    EXPECT_LE(peak, 33u);
    EXPECT_LE(sim.timedWaitRecords(), 4u);
    EXPECT_FALSE(gate.hasWaiters());
    EXPECT_EQ(gate.timedEntries(), 0u);
}

TEST(Gate, OutlivedByItsTimedWait)
{
    Simulator sim;
    std::vector<std::pair<int, bool>> got;
    std::vector<Tick> at;
    {
        Gate gate(sim);
        sim.spawn(timedWaiter(sim, gate, 400, 0, got, at));
        sim.run(100);
    }
    // The timeout holds no reference to the gate and still wakes the
    // waiter.
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], (std::pair<int, bool>{0, false}));
    EXPECT_EQ(at[0], 400u);
}

/*
 * A random schedule, run both on the kernel and on a reference model
 * that is a plain (when, seq) std::priority_queue. Every choice is
 * drawn from an Rng seeded by (seed, who, index), so both sides make
 * the same choices for as long as they run events in the same order.
 */
constexpr int kScriptWorkers = 8;
constexpr int kScriptGates = 3;
constexpr int kScriptSteps = 300;
constexpr int kScriptCallbacks = 2500;

enum class ScriptOp { ResumeAt, WaitUntil, Wait, Callback, Notify, Finish };

struct WorkerStep
{
    ScriptOp op;
    std::int64_t offset; ///< Ticks from now() (negative: the past).
    int gate;
};

struct CallbackPlan
{
    std::vector<std::int64_t> children; ///< Offsets of callbacks to add.
    int notify = -1;                    ///< Gate to notify, or -1.
    bool stop = false;
};

/** One observed step: a worker step, a wait result or a callback. */
struct ScriptRec
{
    char kind; // 'w' worker step, 't' timed-wait result, 'c' callback.
    int who;
    int what;
    Tick now;

    bool
    operator==(const ScriptRec &o) const
    {
        return kind == o.kind && who == o.who && what == o.what &&
               now == o.now;
    }
};

/** A past, same-tick or future offset, one third each. */
std::int64_t
scriptOffset(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return -1 - static_cast<std::int64_t>(rng.below(50));
      case 1:
        return 0;
      default:
        return 1 + static_cast<std::int64_t>(rng.below(200));
    }
}

Tick
scriptTick(Tick now, std::int64_t offset)
{
    if (offset >= 0)
        return now + static_cast<Tick>(offset);
    const Tick back = static_cast<Tick>(-offset);
    return now > back ? now - back : 0;
}

WorkerStep
workerStep(std::uint64_t seed, int worker, int step)
{
    if (step >= kScriptSteps)
        return {ScriptOp::Finish, 0, 0};
    Rng rng(seed * 1000003 + static_cast<std::uint64_t>(worker) * 7919 +
            static_cast<std::uint64_t>(step));
    const int gate = static_cast<int>(rng.below(kScriptGates));
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2:
        return {ScriptOp::ResumeAt, scriptOffset(rng), gate};
      case 3:
      case 4:
      case 5: {
        // A quarter of the deadlines are already due.
        const std::int64_t offset =
            rng.below(4) == 0
                ? -static_cast<std::int64_t>(rng.below(30))
                : 1 + static_cast<std::int64_t>(rng.below(300));
        return {ScriptOp::WaitUntil, offset, gate};
      }
      case 6:
        return {ScriptOp::Wait, 0, gate};
      case 7:
        return {ScriptOp::Callback, scriptOffset(rng), gate};
      default:
        return {ScriptOp::Notify, 0, gate};
    }
}

CallbackPlan
callbackPlan(std::uint64_t seed, int id)
{
    Rng rng(~seed * 2654435761u + static_cast<std::uint64_t>(id));
    CallbackPlan plan;
    const std::uint64_t fan = rng.below(10);
    const int children = fan < 4 ? 0 : fan < 8 ? 1 : 2;
    for (int i = 0; i < children && id < kScriptCallbacks; ++i)
        plan.children.push_back(scriptOffset(rng));
    if (rng.below(10) < 3)
        plan.notify = static_cast<int>(rng.below(kScriptGates));
    plan.stop = rng.below(100) < 3;
    return plan;
}

/** The kernel side of the script. */
struct ScriptEnv
{
    Simulator &sim;
    std::uint64_t seed;
    std::vector<std::unique_ptr<Gate>> gates;
    std::vector<ScriptRec> trace;
    int nextCallback = 0;
};

void scriptCallback(ScriptEnv &env, Tick when);

void
runScriptCallback(ScriptEnv &env, int id)
{
    const Tick now = env.sim.now();
    env.trace.push_back({'c', id, 0, now});
    const CallbackPlan plan = callbackPlan(env.seed, id);
    for (const std::int64_t offset : plan.children)
        scriptCallback(env, scriptTick(now, offset));
    if (plan.notify >= 0)
        env.gates[plan.notify]->notifyAll();
    if (plan.stop)
        env.sim.stop();
}

void
scriptCallback(ScriptEnv &env, Tick when)
{
    const int id = env.nextCallback++;
    env.sim.scheduleCallback(when,
                             [&env, id] { runScriptCallback(env, id); });
}

/** Resume at any tick, the past included. */
struct ResumeAt
{
    Simulator &sim;
    Tick when;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) { sim.scheduleResume(when, h); }
    void await_resume() {}
};

Task
scriptWorker(ScriptEnv &env, int w)
{
    for (int step = 0;; ++step) {
        const WorkerStep s = workerStep(env.seed, w, step);
        const Tick now = env.sim.now();
        env.trace.push_back({'w', w, step, now});
        switch (s.op) {
          case ScriptOp::ResumeAt:
            co_await ResumeAt{env.sim, scriptTick(now, s.offset)};
            break;
          case ScriptOp::WaitUntil: {
            const bool notified = co_await env.gates[s.gate]->waitUntil(
                scriptTick(now, s.offset));
            env.trace.push_back({'t', w, notified ? 1 : 0, env.sim.now()});
            break;
          }
          case ScriptOp::Wait:
            co_await env.gates[s.gate]->wait();
            break;
          case ScriptOp::Callback:
            scriptCallback(env, scriptTick(now, s.offset));
            break;
          case ScriptOp::Notify:
            env.gates[s.gate]->notifyAll();
            break;
          case ScriptOp::Finish:
            co_return;
        }
    }
}

/**
 * The reference: a (when, seq) priority queue with one sequence number
 * per push, and a gate that wakes its untimed waiters and then its
 * pending timed ones, each in arrival order. A timeout that finds its
 * wait pending wakes it through one more event at the same tick.
 */
class ReferenceKernel
{
  public:
    explicit ReferenceKernel(std::uint64_t seed)
        : seed_(seed), workers_(kScriptWorkers), gates_(kScriptGates)
    {}

    void spawn(int w) { push(now_, Kind::Resume, w); }

    void
    callback(Tick when)
    {
        push(when, Kind::Callback, nextCallback_++);
    }

    Tick
    run(Tick limit)
    {
        stop_ = false;
        while (!queue_.empty() && !stop_) {
            const Event ev = queue_.top();
            if (ev.when > limit) {
                now_ = limit;
                return now_;
            }
            queue_.pop();
            now_ = ev.when;
            ++events_;
            switch (ev.kind) {
              case Kind::Resume:
                resume(ev.arg);
                break;
              case Kind::Callback:
                runCallback(ev.arg);
                break;
              case Kind::Timeout: {
                Timed &t = timed_[static_cast<std::size_t>(ev.arg)];
                if (!t.done) {
                    t.done = true;
                    push(now_, Kind::Resume, t.worker);
                }
                break;
              }
            }
        }
        if (stop_)
            ++stops;
        return now_;
    }

    bool empty() const { return queue_.empty(); }
    Tick now() const { return now_; }
    std::uint64_t events() const { return events_; }
    const std::vector<ScriptRec> &trace() const { return trace_; }

    bool
    hasWaiters(int g) const
    {
        if (!gates_[g].waiters.empty())
            return true;
        for (const int r : gates_[g].timed) {
            if (!timed_[static_cast<std::size_t>(r)].done)
                return true;
        }
        return false;
    }

    int notifiedFirst = 0, timedOut = 0, pastDeadline = 0, stops = 0;

  private:
    enum class Kind { Resume, Callback, Timeout };

    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Kind kind;
        int arg;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    struct Worker
    {
        int step = 0;
        int timed = -1; ///< Pending timed wait, or -1.
    };

    struct Timed
    {
        int worker;
        bool done = false;
        bool notified = false;
    };

    struct RefGate
    {
        std::vector<int> waiters;
        std::vector<int> timed;
    };

    void
    push(Tick when, Kind kind, int arg)
    {
        queue_.push(Event{when, seq_++, kind, arg});
    }

    void
    notify(int g)
    {
        RefGate &gate = gates_[g];
        for (const int w : gate.waiters)
            push(now_, Kind::Resume, w);
        gate.waiters.clear();
        for (const int r : gate.timed) {
            Timed &t = timed_[static_cast<std::size_t>(r)];
            if (!t.done) {
                t.done = true;
                t.notified = true;
                push(now_, Kind::Resume, t.worker);
            }
        }
        gate.timed.clear();
    }

    void
    runCallback(int id)
    {
        trace_.push_back({'c', id, 0, now_});
        const CallbackPlan plan = callbackPlan(seed_, id);
        for (const std::int64_t offset : plan.children)
            callback(scriptTick(now_, offset));
        if (plan.notify >= 0)
            notify(plan.notify);
        if (plan.stop)
            stop_ = true;
    }

    void
    resume(int w)
    {
        Worker &wk = workers_[static_cast<std::size_t>(w)];
        if (wk.timed >= 0) {
            const bool notified =
                timed_[static_cast<std::size_t>(wk.timed)].notified;
            (notified ? notifiedFirst : timedOut)++;
            trace_.push_back({'t', w, notified ? 1 : 0, now_});
            wk.timed = -1;
        }
        for (;;) {
            const int step = wk.step++;
            const WorkerStep s = workerStep(seed_, w, step);
            trace_.push_back({'w', w, step, now_});
            switch (s.op) {
              case ScriptOp::ResumeAt:
                push(scriptTick(now_, s.offset), Kind::Resume, w);
                return;
              case ScriptOp::WaitUntil: {
                const Tick deadline = scriptTick(now_, s.offset);
                if (deadline <= now_) {
                    ++pastDeadline;
                    trace_.push_back({'t', w, 0, now_});
                    break;
                }
                wk.timed = static_cast<int>(timed_.size());
                timed_.push_back(Timed{w});
                gates_[s.gate].timed.push_back(wk.timed);
                push(deadline, Kind::Timeout, wk.timed);
                return;
              }
              case ScriptOp::Wait:
                gates_[s.gate].waiters.push_back(w);
                return;
              case ScriptOp::Callback:
                callback(scriptTick(now_, s.offset));
                break;
              case ScriptOp::Notify:
                notify(s.gate);
                break;
              case ScriptOp::Finish:
                return;
            }
        }
    }

    std::uint64_t seed_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t events_ = 0;
    bool stop_ = false;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::vector<Worker> workers_;
    std::vector<RefGate> gates_;
    std::vector<Timed> timed_;
    std::vector<ScriptRec> trace_;
    int nextCallback_ = 0;
};

TEST(EventQueue, MatchesReferenceOrder)
{
    int notified_first = 0, timed_out = 0, past_deadline = 0, stops = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Simulator sim;
        ScriptEnv env{sim, seed, {}, {}, 0};
        for (int g = 0; g < kScriptGates; ++g)
            env.gates.push_back(std::make_unique<Gate>(sim));
        ReferenceKernel ref(seed);

        for (int w = 0; w < kScriptWorkers; ++w) {
            sim.spawn(scriptWorker(env, w));
            ref.spawn(w);
        }
        Rng setup(seed);
        for (int i = 0; i < 200; ++i) {
            const Tick when = setup.below(20000);
            scriptCallback(env, when);
            ref.callback(when);
        }

        // Run in slices: a growing horizon, sometimes no limit at all.
        Tick horizon = 0;
        int slices = 0;
        while (!ref.empty()) {
            ASSERT_LT(++slices, 100000) << "seed " << seed;
            horizon += setup.below(400);
            const Tick limit = setup.below(6) == 0 ? kTickMax : horizon;
            const Tick got = sim.run(limit);
            const Tick want = ref.run(limit);
            ASSERT_EQ(got, want) << "seed " << seed << " slice " << slices;
            ASSERT_EQ(sim.now(), ref.now()) << "seed " << seed;
            ASSERT_EQ(sim.eventsExecuted(), ref.events())
                << "seed " << seed << " slice " << slices;
            for (int g = 0; g < kScriptGates; ++g)
                ASSERT_EQ(env.gates[g]->hasWaiters(), ref.hasWaiters(g))
                    << "seed " << seed << " slice " << slices;
        }
        const std::uint64_t executed = sim.eventsExecuted();
        sim.run();
        EXPECT_EQ(sim.eventsExecuted(), executed) << "seed " << seed;

        const auto &want = ref.trace();
        ASSERT_EQ(env.trace.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(env.trace[i], want[i])
                << "seed " << seed << " record " << i << ": kernel "
                << env.trace[i].kind << env.trace[i].who << "/"
                << env.trace[i].what << "@" << env.trace[i].now
                << ", reference " << want[i].kind << want[i].who << "/"
                << want[i].what << "@" << want[i].now;
        }
        EXPECT_GT(ref.events(), 3000u) << "seed " << seed;
        notified_first += ref.notifiedFirst;
        timed_out += ref.timedOut;
        past_deadline += ref.pastDeadline;
        stops += ref.stops;
    }
    // The schedules covered every kind of timed wait and some stops.
    EXPECT_GT(notified_first, 2000);
    EXPECT_GT(timed_out, 400);
    EXPECT_GT(past_deadline, 800);
    EXPECT_GT(stops, 200);
}

/**
 * CalendarResource as it was before it kept its count of leading full
 * buckets: every reservation walks from the bucket of its earliest
 * tick. The equivalence test holds the current class to it.
 */
class ReferenceCalendar
{
  public:
    ReferenceCalendar(Simulator &sim, double bytes_per_second,
                      Tick bucket_width = 64 * kNanosecond)
        : sim_(sim), bytesPerSecond_(bytes_per_second),
          bucketWidth_(bucket_width)
    {}

    Tick
    reserveAt(Tick earliest, std::uint64_t bytes)
    {
        if (earliest < sim_.now())
            earliest = sim_.now();
        prune();
        const double cap = bytesPerSecond_ * toSeconds(bucketWidth_);
        std::size_t idx = bucketIndex(earliest);
        double remaining = static_cast<double>(bytes);
        Tick completion = earliest;
        while (remaining > 0) {
            while (idx >= used_.size())
                used_.push_back(0.0);
            const double space = cap - used_[idx];
            if (space <= 0.0) {
                ++idx;
                continue;
            }
            const double take = std::min(space, remaining);
            used_[idx] += take;
            remaining -= take;
            completion = base_ + static_cast<Tick>(idx) * bucketWidth_ +
                         static_cast<Tick>(
                             used_[idx] / cap *
                             static_cast<double>(bucketWidth_));
            ++idx;
        }
        const Tick min_done =
            earliest + serializationTime(bytes, bytesPerSecond_);
        return std::max(completion, min_done);
    }

    void setRate(double bytes_per_second)
    {
        bytesPerSecond_ = bytes_per_second;
    }

  private:
    std::size_t
    bucketIndex(Tick t)
    {
        if (used_.empty())
            base_ = (t / bucketWidth_) * bucketWidth_;
        if (t < base_)
            t = base_;
        return static_cast<std::size_t>((t - base_) / bucketWidth_);
    }

    void
    prune()
    {
        const Tick now = sim_.now();
        while (!used_.empty() && base_ + bucketWidth_ <= now) {
            used_.pop_front();
            base_ += bucketWidth_;
        }
    }

    Simulator &sim_;
    double bytesPerSecond_;
    Tick bucketWidth_;
    Tick base_ = 0;
    std::deque<double> used_;
};

/**
 * Drive a CalendarResource and the reference through one seeded
 * sequence: phases of light and past-saturation load, earliest ticks
 * in the past, present and future, sizes 16 B-4 KB, time advancing
 * between bursts (so buckets are pruned), and the rate stepped up and
 * down mid-run. Returns how many reservations matched before the
 * first mismatch (all of them on success).
 */
Task
calendarPair(Simulator &sim, std::uint64_t seed, int steps, int &matched,
             int &total)
{
    const double rate = 20e9; // 20 B/ns: 1280 B per 64 ns bucket.
    CalendarResource cal(sim, rate);
    ReferenceCalendar ref(sim, rate);
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        if (step == steps / 3) {
            cal.setRate(2 * rate);
            ref.setRate(2 * rate);
        } else if (step == 2 * steps / 3) {
            cal.setRate(rate / 4);
            ref.setRate(rate / 4);
        }
        // Every fourth phase of 50 steps offers ~4x the link rate.
        const bool heavy = (step / 50) % 4 == 3;
        const int burst = static_cast<int>(rng.below(heavy ? 9 : 2));
        for (int i = 0; i < burst; ++i) {
            const std::uint64_t bytes = 16 + rng.below(4096 - 16 + 1);
            const Tick now = sim.now();
            Tick earliest = now;
            switch (rng.below(3)) {
              case 0: {
                const Tick back = rng.below(2000 * kNanosecond);
                earliest = now > back ? now - back : 0;
                break;
              }
              case 1:
                break;
              default:
                earliest = now + rng.below(5000 * kNanosecond);
                break;
            }
            ++total;
            const Tick got = cal.reserveAt(earliest, bytes);
            const Tick want = ref.reserveAt(earliest, bytes);
            EXPECT_EQ(got, want) << "seed " << seed << " step " << step
                                 << " reservation " << total;
            if (got != want)
                co_return;
            ++matched;
        }
        co_await sim.delay(fromNs(static_cast<double>(rng.below(200))));
    }
}

TEST(CalendarResource, SkippingFullBucketsMatchesReferenceWalk)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Simulator sim;
        int matched = 0, total = 0;
        sim.spawn(calendarPair(sim, seed, 3000, matched, total));
        sim.run();
        EXPECT_EQ(matched, total);
        EXPECT_GT(total, 2000);
    }
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(r.below(10), 10u);
    }
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng r(99);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(250.0);
    EXPECT_NEAR(sum / n, 250.0, 5.0);
}

Task
spawnMany(Simulator &sim, int depth, int &count)
{
    count++;
    if (depth > 0)
        sim.spawn(spawnMany(sim, depth - 1, count));
    co_return;
}

TEST(Simulator, TaskSpawningFromTasks)
{
    Simulator sim;
    int count = 0;
    sim.spawn(spawnMany(sim, 100, count));
    sim.run();
    EXPECT_EQ(count, 101);
}

TEST(Simulator, StopRequestHaltsRun)
{
    Simulator sim;
    int ran = 0;
    sim.scheduleCallback(10, [&] {
        ran++;
        sim.stop();
    });
    sim.scheduleCallback(20, [&] { ran++; });
    sim.run();
    EXPECT_EQ(ran, 1);
    sim.run();
    EXPECT_EQ(ran, 2);
}

} // namespace
