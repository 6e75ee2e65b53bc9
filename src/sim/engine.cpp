#include "sim/engine.hpp"

#include "util/error.hpp"

namespace flotilla::sim {

Engine::EventId Engine::at(Time t, Callback cb) {
  FLOT_CHECK(cb, "scheduling an empty callback");
  FLOT_CHECK(t == t, "scheduling at NaN time");  // NaN check
  if (t < now_) t = now_;
  const std::uint64_t seq = next_seq_++;
  return EventId{seq, calendar_.push(t, seq, std::move(cb))};
}

bool Engine::step() {
  EventCalendar::Popped event;
  if (!calendar_.pop(&event)) return false;
  now_ = event.time;
  ++processed_;
  event.callback();
  if (post_event_hook_) post_event_hook_();
  if (trace_probe_) trace_probe_(event.time, processed_);
  return true;
}

std::uint64_t Engine::run(Time until) {
  stop_requested_ = false;
  std::uint64_t count = 0;
  while (!stop_requested_) {
    const Time t = calendar_.next_time();
    if (t == kInfiniteTime) break;
    if (t > until) {
      now_ = until;
      break;
    }
    step();
    ++count;
  }
  return count;
}

}  // namespace flotilla::sim
