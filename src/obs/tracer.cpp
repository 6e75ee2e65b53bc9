#include "obs/tracer.hpp"

#include "util/error.hpp"

namespace flotilla::obs {

std::string_view to_string(SpanType type) {
  switch (type) {
    case SpanType::kTaskSubmit:
      return "submit";
    case SpanType::kTaskStageIn:
      return "stage_in";
    case SpanType::kTaskSchedule:
      return "schedule";
    case SpanType::kTaskQueueWait:
      return "queue_wait";
    case SpanType::kTaskLaunch:
      return "launch";
    case SpanType::kTaskRun:
      return "run";
    case SpanType::kTaskStageOut:
      return "stage_out";
    case SpanType::kTaskCollect:
      return "collect";
    case SpanType::kBootstrap:
      return "bootstrap";
    case SpanType::kRouting:
      return "routing";
    case SpanType::kPlacementAttempt:
      return "placement_attempt";
    case SpanType::kStateCallback:
      return "state_callback";
    case SpanType::kJournal:
      return "journal";
    case SpanType::kSubmitLaunch:
      return "submit_launch";
    case SpanType::kAdmission:
      return "admission";
  }
  return "?";
}

Tracer::Tracer(sim::Engine& engine, std::size_t capacity)
    : engine_(&engine), ring_(capacity) {
  FLOT_CHECK(capacity >= 1, "tracer capacity must be >= 1");
}

void Tracer::push(RecordKind kind, SpanType type, std::string_view component,
                  std::string_view entity, double value) {
  // Overwrite the oldest slot once full (drop-oldest). Slots are
  // preallocated; the strings inside reuse their capacity after the first
  // lap around the ring.
  const std::size_t slot = (head_ + count_) % ring_.size();
  Record& record = ring_[slot];
  record.time = engine_->now();
  record.kind = kind;
  record.type = type;
  record.component.assign(component);
  record.entity.assign(entity);
  record.value = value;
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    head_ = (head_ + 1) % ring_.size();
  }
  ++recorded_;
}

}  // namespace flotilla::obs
