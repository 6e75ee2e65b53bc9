// Flux job model: the jobspec-equivalent a task is serialized into when RP
// submits it over the Flux RPC interface (§3.2.1, Fig 2 ②).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "platform/placement.hpp"
#include "platform/types.hpp"
#include "sim/engine.hpp"

namespace flotilla::flux {

enum class JobState {
  kDepend,    // accepted, waiting in queue
  kSched,     // being considered by the scheduler
  kRun,       // executing
  kInactive,  // finished (success or failure)
};

struct Job {
  std::string id;
  platform::ResourceDemand demand;
  sim::Time duration = 0.0;
  double fail_probability = 0.0;
  sim::Time submitted = 0.0;
  sim::Time started = 0.0;
  JobState state = JobState::kDepend;
  platform::Placement placement;
  // Co-scheduling (§2: tightly coupled tasks "launched concurrently with
  // co-scheduled resources"): jobs sharing a gang tag are placed
  // atomically — all of them or none — and start together once every
  // member's shim is up. gang_size tells the scheduler when the gang is
  // fully submitted.
  std::string gang;
  int gang_size = 0;
  // Urgency (0..31, default 16): the pending queue is ordered by
  // descending priority, then submission order.
  int priority = 16;
  // Index into the owning instance's live-job slab while the job holds
  // resources (allocation until completion or crash); kNotLive otherwise.
  static constexpr std::size_t kNotLive = static_cast<std::size_t>(-1);
  std::size_t live_slot = kNotLive;
};

// Job lifecycle events emitted on the instance's event bus (Fig 2 ④).
enum class JobEventKind {
  kSubmit,
  kAlloc,
  kStart,
  kFinish,
  kException,
};

struct JobEvent {
  JobEventKind kind;
  std::string job_id;
  bool success = true;
  std::string note;
  sim::Time started = 0.0;
  sim::Time finished = 0.0;
};

}  // namespace flotilla::flux
