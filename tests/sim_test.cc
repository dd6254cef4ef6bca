/**
 * @file
 * Unit tests for the discrete-event simulation kernel: event ordering,
 * coroutine tasks, awaitables, synchronization primitives, bandwidth
 * resources, and deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
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
