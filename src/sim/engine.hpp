// Deterministic discrete-event simulation engine.
//
// One calendar ordered by (time, insertion sequence); ties at equal time
// resolve in insertion order, which makes every simulation fully
// deterministic for a given seed — a property the regression tests rely
// on. Everything runs on the calling thread: callbacks may touch any
// simulation state without a guard.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/calendar.hpp"

namespace flotilla::sim {

class Engine {
 public:
  using Callback = sim::Callback;

  // `slot` is the calendar slot holding the event.
  struct EventId {
    std::uint64_t seq = 0;
    EventCalendar::Slot slot = 0;
    friend bool operator==(EventId a, EventId b) {
      return a.seq == b.seq && a.slot == b.slot;
    }
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Inside an event callback: the time of the executing event. Outside:
  // the time of the last processed event (or the `until` a run stopped at).
  Time now() const { return now_; }

  // Schedules `cb` at absolute virtual time `t` (>= now, else clamped to
  // now: an event can never fire in the past).
  EventId at(Time t, Callback cb);

  // Schedules `cb` after `delay` virtual seconds (negative delays clamp
  // to zero).
  EventId in(Time delay, Callback cb) { return at(now() + delay, std::move(cb)); }

  // Cancels a pending event; cancelling an already-fired or unknown event
  // is a harmless no-op and returns false.
  bool cancel(EventId id) { return calendar_.cancel(id.seq, id.slot); }

  // Runs until the event queue drains, `until` is reached, or stop() is
  // called. Events scheduled exactly at `until` do fire. Returns the
  // number of events processed by this call.
  std::uint64_t run(Time until = kInfiniteTime);

  // Processes exactly one event; returns false if the queue is empty.
  bool step();

  // Requests that the current run() invocation return after the current
  // event.
  void stop() { stop_requested_ = true; }

  bool empty() const { return calendar_.empty(); }
  std::size_t pending() const { return calendar_.live(); }
  std::uint64_t processed() const { return processed_; }

  // Virtual time of the earliest pending event, or kInfiniteTime.
  // Non-const: peeking prunes cancellation tombstones (observable state
  // is unchanged).
  Time next_event_time() { return calendar_.next_time(); }

  // Post-event hook: invoked after every processed event's callback
  // returns, with now() still at the event's time. Single consumer —
  // invariant monitors (src/check) use it to audit the simulation between
  // events. Pass an empty callback to clear. Never fires for events that
  // were cancelled.
  void set_post_event_hook(Callback hook) { post_event_hook_ = std::move(hook); }

  // Trace probe: like the post-event hook but reserved for the tracing
  // subsystem (src/obs), which samples event-loop progress through it —
  // keeping both consumers independent. Fires after the post-event hook
  // with the cumulative processed-event count.
  using TraceProbe = std::function<void(Time now, std::uint64_t processed)>;
  void set_trace_probe(TraceProbe probe) { trace_probe_ = std::move(probe); }

 private:
  EventCalendar calendar_;
  std::uint64_t next_seq_ = 1;
  Time now_ = 0.0;
  std::uint64_t processed_ = 0;
  bool stop_requested_ = false;
  Callback post_event_hook_;
  TraceProbe trace_probe_;
};

}  // namespace flotilla::sim
