#include "flux/flux_backend.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace flotilla::flux {

FluxBackend::FluxBackend(sim::Engine& engine, platform::Cluster& cluster,
                         platform::NodeRange allocation, int partitions,
                         const platform::FluxCalibration& cal,
                         std::uint64_t seed, sim::Resource* srun_ceiling,
                         int backfill_depth)
    : engine_(engine),
      allocation_(allocation),
      cores_per_node_(cluster.spec().cores_per_node),
      gpus_per_node_(cluster.spec().gpus_per_node),
      srun_ceiling_(srun_ceiling) {
  FLOT_CHECK(backfill_depth >= 1, "backfill depth must be >= 1");
  const auto ranges = platform::Cluster::partition(allocation, partitions);
  instances_.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    instances_.push_back(std::make_unique<Instance>(
        util::cat("flux.", i), engine, cluster, ranges[i], cal,
        seed + 7919 * (i + 1)));
    instances_.back()->backfill_depth = backfill_depth;
    instances_.back()->on_event(
        [this](const JobEvent& event) { handle_event(event); });
  }
}

FluxBackend::~FluxBackend() = default;

void FluxBackend::bootstrap(ReadyHandler ready) {
  if (fail_bootstrap) {
    engine_.in(1.0, [ready = std::move(ready)] {
      ready(false, "flux broker bootstrap failed");
    });
    return;
  }
  auto remaining = std::make_shared<int>(static_cast<int>(instances_.size()));
  auto ready_shared =
      std::make_shared<ReadyHandler>(std::move(ready));
  for (auto& instance_ptr : instances_) {
    Instance* instance = instance_ptr.get();
    auto start_instance = [this, instance, remaining, ready_shared] {
      instance->bootstrap([this, remaining, ready_shared] {
        if (--*remaining == 0) {
          ready_ = true;
          (*ready_shared)(true, "");
        }
      });
    };
    if (srun_ceiling_) {
      // Each instance is launched under srun and holds its slot for its
      // lifetime, competing with every other srun on the allocation.
      srun_ceiling_->acquire(1, start_instance);
    } else {
      engine_.in(0.0, start_instance);
    }
  }
}

bool FluxBackend::fits_partition(const platform::ResourceDemand& demand,
                                 std::int64_t nodes) const {
  if (demand.cores > nodes * cores_per_node_ ||
      demand.gpus > nodes * gpus_per_node_) {
    return false;
  }
  if (demand.cores_per_node <= 0) return true;
  // Each chunk lands on one node, and the first chunk is the largest:
  // min(cores, cores_per_node) cores and ceil(gpus / chunks) GPUs.
  const std::int64_t chunks = std::max<std::int64_t>(
      1, (demand.cores + demand.cores_per_node - 1) / demand.cores_per_node);
  return std::min(demand.cores, demand.cores_per_node) <= cores_per_node_ &&
         (demand.gpus + chunks - 1) / chunks <= gpus_per_node_;
}

int FluxBackend::pick_instance(const platform::ResourceDemand& demand,
                               const std::string& gang) const {
  const int n = static_cast<int>(instances_.size());
  // Round-robin over healthy instances whose partition is large enough for
  // the task (a multi-node task cannot span instances); a task that no
  // empty partition could hold would otherwise wait in a queue forever.
  // Gang members hash to a stable instance so the whole gang lands on one
  // scheduler.
  const int base =
      gang.empty() ? rr_cursor_
                   : static_cast<int>(sim::RngStream::hash(gang) %
                                      static_cast<std::uint64_t>(n));
  for (int step = 0; step < n; ++step) {
    const int i = (base + step) % n;
    const auto& instance = *instances_[static_cast<size_t>(i)];
    if (!instance.healthy()) continue;
    if (!fits_partition(demand, instance.partition().count)) continue;
    if (gang.empty()) rr_cursor_ = (i + 1) % n;
    return i;
  }
  return -1;
}

void FluxBackend::submit(platform::LaunchRequest request) {
  FLOT_CHECK(ready_, "submit to flux backend before bootstrap");
  ++inflight_;
  const int target = pick_instance(request.demand, request.gang);
  if (target < 0 || shut_down_) {
    fail_task(request.id,
              shut_down_ ? "backend shut down"
                         : "no healthy instance can fit task");
    return;
  }
  Job job;
  job.id = std::move(request.id);
  job.demand = request.demand;
  job.duration = request.duration;
  job.fail_probability = request.fail_probability;
  job.gang = std::move(request.gang);
  job.gang_size = request.gang_size;
  job.priority = request.priority;
  instances_[static_cast<size_t>(target)]->submit(std::move(job));
}

void FluxBackend::handle_event(const JobEvent& event) {
  switch (event.kind) {
    case JobEventKind::kSubmit:
    case JobEventKind::kAlloc:
      return;
    case JobEventKind::kStart:
      if (start_handler_) start_handler_(event.job_id);
      return;
    case JobEventKind::kFinish: {
      FLOT_CHECK(inflight_ > 0, "finish without inflight task");
      --inflight_;
      platform::LaunchOutcome outcome;
      outcome.id = event.job_id;
      outcome.success = event.success;
      outcome.error = event.note;
      outcome.started = event.started;
      outcome.finished = event.finished;
      if (completion_handler_) completion_handler_(outcome);
      return;
    }
    case JobEventKind::kException: {
      if (event.job_id.empty()) return;  // instance-level marker
      FLOT_CHECK(inflight_ > 0, "exception without inflight task");
      --inflight_;
      platform::LaunchOutcome outcome;
      outcome.id = event.job_id;
      outcome.success = false;
      outcome.error = event.note;
      outcome.finished = engine_.now();
      if (completion_handler_) completion_handler_(outcome);
      return;
    }
  }
}

void FluxBackend::fail_task(const std::string& id, const std::string& error) {
  FLOT_CHECK(inflight_ > 0, "fail without inflight task");
  --inflight_;
  platform::LaunchOutcome outcome;
  outcome.id = id;
  outcome.success = false;
  outcome.error = error;
  outcome.finished = engine_.now();
  if (completion_handler_) completion_handler_(outcome);
}

void FluxBackend::crash_instance(int i, const std::string& reason) {
  instances_.at(static_cast<size_t>(i))->crash(reason);
}

bool FluxBackend::quiescent() const {
  if (inflight_ != 0) return false;
  return std::all_of(instances_.begin(), instances_.end(),
                     [](const auto& inst) {
                       return inst->queue_depth() == 0 &&
                              inst->running_jobs() == 0;
                     });
}

bool FluxBackend::healthy() const {
  if (shut_down_ || !ready_) return false;
  return std::any_of(instances_.begin(), instances_.end(),
                     [](const auto& inst) { return inst->healthy(); });
}

void FluxBackend::shutdown() {
  shut_down_ = true;
  for (auto& instance : instances_) {
    if (instance->healthy()) instance->crash("backend shut down");
  }
}

std::vector<sim::Time> FluxBackend::bootstrap_durations() const {
  std::vector<sim::Time> result;
  result.reserve(instances_.size());
  for (const auto& instance : instances_) {
    result.push_back(instance->bootstrap_duration());
  }
  return result;
}

}  // namespace flotilla::flux
