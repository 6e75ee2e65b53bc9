// Placer: the shared placement front-end every backend scheduler calls.
//
// Owns the placement policy, the rotating cursor (when the call site wants
// round-robin spreading) and the FreeResourceIndex, and keeps simple
// attempt counters so benches can report placement attempts/sec. One
// Placer per scheduling call site: flux::Instance (fixed origin, like
// fluxion), Slurmctld, dragon::Runtime and the agent's external-placement
// path (all rotating).
//
// Rejected-demand memo: a scheduling pass over a full range offers the
// same demand again and again (Flux's backfill scan, a blocked queue head
// re-kicked by every submission) while no node changes. With the index
// on, the placer remembers the last demand the policy refused and the
// index version() it was refused at, and answers an equal demand at the
// same version with nullopt without running the policy. That is exact:
// the policy's answer depends only on the in-range node state, the cursor
// and the demand, and version() moves on every in-range change, whoever
// makes it. The memo carries the version the refused attempt started at,
// so it only ever matches when that attempt allocated nothing and hence
// did not move the cursor either; a multi-chunk probe that allocated and
// rolled back has moved the version past it and runs again in full,
// transient allocations included. Every call, memoised or not, still
// counts in stats() and records its trace instant.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "obs/tracer.hpp"
#include "platform/cluster.hpp"
#include "platform/placement.hpp"
#include "sched/free_index.hpp"
#include "sched/placement_policy.hpp"

namespace flotilla::sched {

struct PlacerOptions {
  PlacementPolicyKind policy = PlacementPolicyKind::kFirstFit;
  // Rotate the scan origin past the last allocation so successive small
  // tasks spread across the range. Off: every scan starts at range.first
  // (Flux's fluxion matcher rescans its partition from the top).
  bool rotate_cursor = true;
  // Maintain the O(log n) free-resource index. Off: the first-fit policy
  // falls back to the legacy linear scan (reference/bench mode).
  bool use_index = true;
};

struct PlacerStats {
  std::uint64_t attempts = 0;
  std::uint64_t placed = 0;
  std::uint64_t rejected = 0;
  // Rejections answered from the rejected-demand memo (a subset of
  // `rejected`): the policy did not run.
  std::uint64_t memo_hits = 0;
};

class Placer {
 public:
  Placer(platform::Cluster& cluster, platform::NodeRange range,
         PlacerOptions options = {});

  Placer(const Placer&) = delete;
  Placer& operator=(const Placer&) = delete;

  // Attempts to place `demand` within the range. On success the slices
  // are already allocated; on failure nothing is held.
  std::optional<platform::Placement> place(
      const platform::ResourceDemand& demand);

  // Frees every slice of `placement`; the index follows via the cluster's
  // observer hook.
  void release(const platform::Placement& placement);

  platform::NodeRange range() const { return range_; }
  platform::NodeId cursor() const { return cursor_; }
  const PlacerStats& stats() const { return stats_; }
  PlacementPolicy& policy() { return *policy_; }
  PlacementPolicyKind policy_kind() const { return options_.policy; }

  // Swaps the placement policy in place (cursor, index and stats are
  // kept; the rejected-demand memo is dropped, since another policy may
  // answer differently). White-box knob for ablations and the fuzz
  // harness; the defaults every backend ships with stay first-fit.
  void set_policy(PlacementPolicyKind kind) {
    options_.policy = kind;
    policy_ = make_placement_policy(kind);
    rejected_.reset();
  }

  // Attaches structured tracing: every place() call records a
  // kPlacementAttempt instant under `component` (value: 1 placed,
  // 0 rejected), which OverheadReport turns into attempt counts.
  void set_trace(obs::TraceHandle handle, std::string component) {
    trace_ = handle;
    trace_component_ = std::move(component);
  }

 private:
  platform::Cluster& cluster_;
  platform::NodeRange range_;
  PlacerOptions options_;
  std::unique_ptr<PlacementPolicy> policy_;
  std::unique_ptr<FreeResourceIndex> index_;
  platform::NodeId cursor_;
  PlacerStats stats_;
  // The last demand the policy refused and the index version its attempt
  // started at (index mode only).
  struct Rejection {
    platform::ResourceDemand demand;
    std::uint64_t version = 0;
  };
  std::optional<Rejection> rejected_;
  obs::TraceHandle trace_;
  std::string trace_component_;
};

}  // namespace flotilla::sched
