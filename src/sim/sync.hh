/**
 * @file
 * Synchronization primitives for simulation processes.
 *
 * All primitives are cooperative (single-threaded kernel): waiters are
 * coroutines suspended on the primitive, and notification schedules
 * their resumption through the event queue at the current tick, which
 * keeps wake-ups ordered and avoids re-entrant resumption.
 */

#ifndef CCN_SIM_SYNC_HH
#define CCN_SIM_SYNC_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/simulator.hh"

namespace ccn::sim {

/**
 * Broadcast gate. Waiters suspend until notifyAll() releases every
 * waiter currently suspended. Used for cache-line invalidation wakeups
 * (the hardware analogue of a polling loop observing a coherence
 * invalidation).
 */
class Gate
{
  public:
    explicit Gate(Simulator &sim) : sim_(sim) {}

    /** Awaitable: suspend until the next notifyAll(). */
    auto
    wait()
    {
        struct Awaiter
        {
            Gate &gate;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                gate.waiters_.push_back(h);
            }

            void await_resume() {}
        };
        return Awaiter{*this};
    }

    /**
     * Awaitable: suspend until notifyAll() or @p deadline, whichever
     * comes first. The co_await result is true when notified, false on
     * timeout. The wait's state is a Simulator-owned record: the
     * timeout never touches the gate, so the gate may be destroyed
     * while the wait is pending (the timeout then wakes it).
     */
    auto
    waitUntil(Tick deadline)
    {
        struct Awaiter
        {
            Gate &gate;
            Simulator &sim;
            Tick deadline;
            std::uint32_t slot = kNoWait;

            bool await_ready() const { return deadline <= sim.now(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                const Simulator::WaitRef w = sim.beginTimedWait(deadline, h);
                slot = w.slot;
                gate.addTimed(w);
            }

            bool
            await_resume() const
            {
                return slot != kNoWait && sim.endTimedWait(slot);
            }
        };
        return Awaiter{*this, sim_, deadline};
    }

    /** Release all current waiters (scheduled at the current tick). */
    void
    notifyAll()
    {
        for (auto h : waiters_)
            sim_.scheduleResume(sim_.now(), h);
        waiters_.clear();
        for (const Simulator::WaitRef w : timed_)
            sim_.wakeTimedWait(w, true);
        timed_.clear();
        pruneAt_ = kMinPrune;
    }

    /**
     * Whether any waiter is suspended here. Timed waits that timed out
     * are dropped from the back of the list on the way, so the call is
     * amortized O(1).
     */
    bool
    hasWaiters()
    {
        if (!waiters_.empty())
            return true;
        while (!timed_.empty()) {
            if (sim_.timedWaitPending(timed_.back()))
                return true;
            timed_.pop_back();
        }
        return false;
    }

    /** Timed waits listed here, ended ones not yet dropped included. */
    std::size_t timedEntries() const { return timed_.size(); }

  private:
    static constexpr std::uint32_t kNoWait = ~std::uint32_t{0};
    static constexpr std::size_t kMinPrune = 32;

    /**
     * List a timed wait. A wait that times out stays listed until the
     * next notifyAll() or a prune, so when the list reaches twice what
     * the last prune kept (at least kMinPrune), drop every ended wait,
     * keeping arrival order. The list never holds more than that plus
     * the new entry.
     */
    void
    addTimed(Simulator::WaitRef w)
    {
        if (timed_.size() >= pruneAt_) {
            std::erase_if(timed_, [this](Simulator::WaitRef t) {
                return !sim_.timedWaitPending(t);
            });
            pruneAt_ = std::max(kMinPrune, 2 * timed_.size());
        }
        timed_.push_back(w);
    }

    Simulator &sim_;
    std::vector<std::coroutine_handle<>> waiters_;
    std::vector<Simulator::WaitRef> timed_;
    std::size_t pruneAt_ = kMinPrune;
};

/**
 * Counting semaphore. Models finite concurrency resources such as
 * per-core miss status handling registers (MSHRs) or DMA engine tags.
 */
class Semaphore
{
  public:
    Semaphore(Simulator &sim, std::uint32_t count)
        : sim_(sim), count_(count)
    {}

    /** Awaitable: acquire one unit, suspending while none are free. */
    auto
    acquire()
    {
        struct Awaiter
        {
            Semaphore &sem;

            bool
            await_ready()
            {
                if (sem.count_ > 0) {
                    // Claim eagerly so same-tick racers queue up.
                    sem.count_--;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sem.waiters_.push_back(h);
            }

            void await_resume() {}
        };
        return Awaiter{*this};
    }

    /** Take one unit if one is free, without suspending. */
    bool
    tryAcquire()
    {
        if (count_ == 0)
            return false;
        count_--;
        return true;
    }

    /** Release one unit, waking the oldest waiter if any. */
    void
    release()
    {
        if (!waiters_.empty()) {
            // Hand the unit directly to the oldest waiter.
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_.scheduleResume(sim_.now(), h);
        } else {
            count_++;
        }
    }

    std::uint32_t available() const { return count_; }

  private:
    Simulator &sim_;
    std::uint32_t count_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Unbounded message queue between processes. put() never blocks; get()
 * suspends until an item is available. Used for device-internal
 * hand-offs (e.g., doorbell notifications to a NIC engine).
 */
template <typename T>
class Mailbox
{
  public:
    explicit Mailbox(Simulator &sim) : sim_(sim) {}

    /** Enqueue an item, waking the oldest blocked getter. */
    void
    put(T item)
    {
        items_.push_back(std::move(item));
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_.scheduleResume(sim_.now(), h);
        }
    }

    /** Awaitable: dequeue the oldest item, suspending while empty. */
    auto
    get()
    {
        struct Awaiter
        {
            Mailbox &box;

            bool await_ready() const { return !box.items_.empty(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                box.waiters_.push_back(h);
            }

            T
            await_resume()
            {
                T item = std::move(box.items_.front());
                box.items_.pop_front();
                return item;
            }
        };
        return Awaiter{*this};
    }

    /** Dequeue the oldest item without suspending; must not be empty. */
    T
    pop()
    {
        T item = std::move(items_.front());
        items_.pop_front();
        return item;
    }

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

    /** Drop every queued item; blocked getters stay blocked. */
    void clear() { items_.clear(); }

  private:
    Simulator &sim_;
    std::deque<T> items_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Calendar-based bandwidth resource (a link direction, a DRAM channel,
 * a device pipeline stage). Reservations at any future time are
 * admitted into quantized capacity buckets rather than served in call
 * order, so many agents composing multi-hop transactions do not
 * head-of-line block each other.
 */
class CalendarResource
{
  public:
    CalendarResource(Simulator &sim, double bytes_per_second,
                     Tick bucket_width = 64 * kNanosecond)
        : sim_(sim), bytesPerSecond_(bytes_per_second),
          bucketWidth_(bucket_width)
    {}

    /**
     * Reserve capacity for @p bytes starting no earlier than
     * @p earliest; returns the completion tick.
     */
    Tick
    reserveAt(Tick earliest, std::uint64_t bytes)
    {
        bytesServed_ += bytes;
        if (earliest < sim_.now())
            earliest = sim_.now();
        prune();
        const double cap =
            bytesPerSecond_ * toSeconds(bucketWidth_);
        // Buckets before full_ have no space left; skip them.
        std::size_t idx = std::max(bucketIndex(earliest), full_);
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
        while (full_ < used_.size() && cap - used_[full_] <= 0.0)
            ++full_;
        const Tick min_done =
            earliest + serializationTime(bytes, bytesPerSecond_);
        return std::max(completion, min_done);
    }

    Tick reserve(std::uint64_t bytes)
    {
        return reserveAt(sim_.now(), bytes);
    }

    void setRate(double bytes_per_second)
    {
        bytesPerSecond_ = bytes_per_second;
        full_ = 0; // Bucket capacity changed; recount.
    }

    double rate() const { return bytesPerSecond_; }
    std::uint64_t bytesServed() const { return bytesServed_; }

    void resetStats() { bytesServed_ = 0; }

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
            if (full_ > 0)
                --full_;
        }
    }

    Simulator &sim_;
    double bytesPerSecond_;
    Tick bucketWidth_;
    Tick base_ = 0;
    std::deque<double> used_;
    /// Leading buckets of used_ known to be full: reserveAt() starts
    /// its walk past them. Never more than the true count.
    std::size_t full_ = 0;
    std::uint64_t bytesServed_ = 0;
};

} // namespace ccn::sim

#endif // CCN_SIM_SYNC_HH
