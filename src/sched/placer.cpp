#include "sched/placer.hpp"

#include "util/error.hpp"

namespace flotilla::sched {

Placer::Placer(platform::Cluster& cluster, platform::NodeRange range,
               PlacerOptions options)
    : cluster_(cluster),
      range_(range),
      options_(options),
      policy_(make_placement_policy(options.policy)),
      cursor_(range.first) {
  FLOT_CHECK(range.count >= 1, "placer needs a non-empty range");
  FLOT_CHECK(range.end() <= cluster.size(),
             "placer range exceeds cluster: end=", range.end());
  if (options_.use_index) {
    index_ = std::make_unique<FreeResourceIndex>(cluster_, range_);
  }
}

std::optional<platform::Placement> Placer::place(
    const platform::ResourceDemand& demand) {
  ++stats_.attempts;
  std::optional<platform::Placement> placement;
  if (rejected_ && rejected_->version == index_->version() &&
      rejected_->demand == demand) {
    ++stats_.memo_hits;
  } else {
    const std::uint64_t version = index_ ? index_->version() : 0;
    PlacementInput in{cluster_, range_,
                      options_.rotate_cursor ? &cursor_ : nullptr,
                      index_.get()};
    placement = policy_->place(in, demand);
    if (!placement && index_) rejected_ = Rejection{demand, version};
  }
  placement ? ++stats_.placed : ++stats_.rejected;
  trace_.instant(obs::SpanType::kPlacementAttempt, trace_component_, "",
                 placement ? 1.0 : 0.0);
  return placement;
}

void Placer::release(const platform::Placement& placement) {
  cluster_.release(placement);
}

}  // namespace flotilla::sched
