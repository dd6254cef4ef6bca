/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A Simulator owns a time-ordered event queue of coroutine resumptions,
 * callbacks and timed-wait timeouts, plus the frames of all spawned
 * top-level Tasks. All model state advances by running the queue; the
 * kernel is single-threaded and fully deterministic.
 *
 * Heap entries are plain data. A callback lives in a recycled slab
 * slot named by its entry, and a timed wait in a recycled record, so
 * scheduling and dispatching an event allocates nothing once the slab
 * and the record pool have grown to the run's peak.
 */

#ifndef CCN_SIM_SIMULATOR_HH
#define CCN_SIM_SIMULATOR_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/task.hh"
#include "sim/time.hh"

namespace ccn::sim {

/**
 * Discrete-event simulator kernel.
 */
class Simulator
{
  public:
    Simulator() = default;
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Spawn a top-level process; it starts running at the current time
     * (after the caller yields to the kernel). The simulator takes
     * ownership of the coroutine frame.
     */
    void spawn(Task task);

    /** Schedule a coroutine resumption at absolute time @p when. */
    void
    scheduleResume(Tick when, std::coroutine_handle<> h)
    {
        events_.push(Event{when, nextSeq_++, h, 0, Kind::Resume});
    }

    /** Schedule a plain callback at absolute time @p when. */
    void
    scheduleCallback(Tick when, std::function<void()> fn)
    {
        const std::uint32_t slot = takeSlot(callbacks_, freeCallbacks_);
        callbacks_[slot] = std::move(fn);
        events_.push(Event{when, nextSeq_++, {}, slot, Kind::Callback});
    }

    /**
     * Run until the event queue is exhausted or simulated time would
     * exceed @p limit. Returns the final simulated time.
     */
    Tick run(Tick limit = kTickMax);

    /**
     * Request that run() return after the event currently executing.
     * Pending events remain queued; suspended tasks are reaped by the
     * destructor.
     */
    void stop() { stopRequested_ = true; }

    /** Awaitable: suspend the calling coroutine for @p d ticks. */
    auto
    delay(Tick d)
    {
        struct Awaiter
        {
            Simulator &sim;
            Tick until;

            bool await_ready() const { return until <= sim.now(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sim.scheduleResume(until, h);
            }

            void await_resume() {}
        };
        return Awaiter{*this, now_ + d};
    }

    /** Awaitable: suspend the calling coroutine until absolute @p when. */
    auto
    delayUntil(Tick when)
    {
        struct Awaiter
        {
            Simulator &sim;
            Tick until;

            bool await_ready() const { return until <= sim.now(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sim.scheduleResume(until, h);
            }

            void await_resume() {}
        };
        return Awaiter{*this, when};
    }

    /** Number of events executed since construction. */
    std::uint64_t eventsExecuted() const { return eventsExecuted_; }

    /**
     * Timed-wait records ever allocated: the peak number of timed waits
     * suspended at once, since records are recycled.
     */
    std::size_t timedWaitRecords() const { return waits_.size(); }

  private:
    friend class Gate;

    enum class Kind : std::uint8_t { Resume, Callback, Timeout };

    /** A heap entry: ordered by (when, seq); names what it runs. */
    struct Event
    {
        Tick when;
        std::uint64_t seq; // FIFO tiebreak for same-tick events.
        std::coroutine_handle<> handle; // Resume.
        std::uint32_t slot;             // Callback slab or wait record.
        Kind kind;

        bool
        operator>(const Event &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };
    static_assert(std::is_trivially_copyable_v<Event>);
    static_assert(sizeof(Event) <= 32);

    /**
     * One suspended Gate::waitUntil. @c seq is the seq of its timeout
     * event: the timeout acts only while the record still carries it
     * (the record was not recycled) and the wait is not done.
     */
    struct TimedWait
    {
        std::coroutine_handle<> handle;
        std::uint64_t seq; // The seq of this wait's timeout event.
        bool done;
        bool notified;
    };

    /** Names one timed wait: its record slot and timeout seq. */
    struct WaitRef
    {
        std::uint32_t slot;
        std::uint64_t seq;
    };

    /** Start a timed wait of @p h: take a record, schedule its timeout. */
    WaitRef
    beginTimedWait(Tick deadline, std::coroutine_handle<> h)
    {
        const std::uint32_t slot = takeSlot(waits_, freeWaits_);
        const std::uint64_t seq = nextSeq_++;
        waits_[slot] = TimedWait{h, seq, false, false};
        events_.push(Event{deadline, seq, {}, slot, Kind::Timeout});
        return WaitRef{slot, seq};
    }

    /** The wait @p w names is still suspended and not yet woken. */
    bool
    timedWaitPending(WaitRef w) const
    {
        const TimedWait &rec = waits_[w.slot];
        return rec.seq == w.seq && !rec.done;
    }

    /**
     * Wake the wait @p w names at the current tick, if it is still
     * pending; @p notified becomes its co_await result.
     */
    void
    wakeTimedWait(WaitRef w, bool notified)
    {
        if (!timedWaitPending(w))
            return;
        TimedWait &rec = waits_[w.slot];
        rec.done = true;
        rec.notified = notified;
        scheduleResume(now_, rec.handle);
    }

    /**
     * End the timed wait in @p slot after its coroutine resumed:
     * recycle the record and return whether it was notified.
     */
    bool
    endTimedWait(std::uint32_t slot)
    {
        freeWaits_.push_back(slot);
        return waits_[slot].notified;
    }

    /** A free slot of @p slab: a recycled one, or a new one at the end. */
    template <typename T>
    static std::uint32_t
    takeSlot(std::vector<T> &slab, std::vector<std::uint32_t> &free)
    {
        if (free.empty()) {
            slab.emplace_back();
            return static_cast<std::uint32_t>(slab.size() - 1);
        }
        const std::uint32_t slot = free.back();
        free.pop_back();
        return slot;
    }

    void reapFinishedTasks();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t eventsExecuted_ = 0;
    bool stopRequested_ = false;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
    /// Callback slab: an entry names its slot; freed slots are reused.
    std::vector<std::function<void()>> callbacks_;
    std::vector<std::uint32_t> freeCallbacks_;
    /// Timed-wait records, recycled the same way.
    std::vector<TimedWait> waits_;
    std::vector<std::uint32_t> freeWaits_;
    std::vector<Task::Handle> tasks_;
};

} // namespace ccn::sim

#endif // CCN_SIM_SIMULATOR_HH
