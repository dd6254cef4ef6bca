#include "sim/simulator.hh"

namespace ccn::sim {

Simulator::~Simulator()
{
    // Destroy all spawned frames, finished or still suspended.
    for (auto h : tasks_) {
        if (h)
            h.destroy();
    }
}

void
Simulator::spawn(Task task)
{
    Task::Handle h = task.release();
    tasks_.push_back(h);
    scheduleResume(now_, h);
    // Reap opportunistically so long-running simulations that spawn many
    // short-lived processes do not accumulate dead frames.
    if (tasks_.size() % 1024 == 0)
        reapFinishedTasks();
}

void
Simulator::reapFinishedTasks()
{
    std::size_t out = 0;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].done()) {
            tasks_[i].destroy();
        } else {
            tasks_[out++] = tasks_[i];
        }
    }
    tasks_.resize(out);
}

Tick
Simulator::run(Tick limit)
{
    stopRequested_ = false;
    while (!events_.empty() && !stopRequested_) {
        const Event &top = events_.top();
        if (top.when > limit) {
            now_ = limit;
            return now_;
        }
        // Copy out before pop: executing the event may push new events
        // and invalidate the reference. The entry is plain data.
        const Event ev = top;
        events_.pop();
        now_ = ev.when;
        ++eventsExecuted_;
        switch (ev.kind) {
          case Kind::Resume:
            if (ev.handle && !ev.handle.done())
                ev.handle.resume();
            break;
          case Kind::Callback: {
            // Move the callable out and free its slot first: the call
            // may schedule callbacks and grow the slab.
            std::function<void()> fn = std::move(callbacks_[ev.slot]);
            freeCallbacks_.push_back(ev.slot);
            if (fn)
                fn();
            break;
          }
          case Kind::Timeout:
            // A stale timeout (the wait was notified, or has ended and
            // its record was recycled) still counts as an event.
            wakeTimedWait(WaitRef{ev.slot, ev.seq}, false);
            break;
        }
    }
    return now_;
}

} // namespace ccn::sim
