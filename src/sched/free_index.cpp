#include "sched/free_index.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace flotilla::sched {

FreeResourceIndex::FreeResourceIndex(platform::Cluster& cluster,
                                     platform::NodeRange range)
    : cluster_(cluster), range_(range) {
  FLOT_CHECK(range.count >= 1, "free index needs a non-empty range");
  FLOT_CHECK(range.first >= 0 && range.end() <= cluster.size(),
             "free index range exceeds cluster: end=", range.end());
  while (leaves_ < range.count) leaves_ *= 2;
  max_cores_.assign(static_cast<std::size_t>(2 * leaves_), 0);
  max_gpus_.assign(static_cast<std::size_t>(2 * leaves_), 0);
  for (int i = 0; i < range.count; ++i) {
    const auto& node = cluster_.node(range.first + i);
    max_cores_[static_cast<std::size_t>(leaves_ + i)] = node.free_cores();
    max_gpus_[static_cast<std::size_t>(leaves_ + i)] = node.free_gpus();
  }
  for (int seg = leaves_ - 1; seg >= 1; --seg) {
    max_cores_[static_cast<std::size_t>(seg)] =
        std::max(max_cores_[static_cast<std::size_t>(2 * seg)],
                 max_cores_[static_cast<std::size_t>(2 * seg + 1)]);
    max_gpus_[static_cast<std::size_t>(seg)] =
        std::max(max_gpus_[static_cast<std::size_t>(2 * seg)],
                 max_gpus_[static_cast<std::size_t>(2 * seg + 1)]);
  }
  cluster_.add_observer(this);
}

FreeResourceIndex::~FreeResourceIndex() { cluster_.remove_observer(this); }

void FreeResourceIndex::node_changed(platform::NodeId node) {
  if (!range_.contains(node)) return;
  ++version_;
  const auto& state = cluster_.node(node);
  int seg = leaves_ + (node - range_.first);
  max_cores_[static_cast<std::size_t>(seg)] = state.free_cores();
  max_gpus_[static_cast<std::size_t>(seg)] = state.free_gpus();
  for (seg /= 2; seg >= 1; seg /= 2) {
    max_cores_[static_cast<std::size_t>(seg)] =
        std::max(max_cores_[static_cast<std::size_t>(2 * seg)],
                 max_cores_[static_cast<std::size_t>(2 * seg + 1)]);
    max_gpus_[static_cast<std::size_t>(seg)] =
        std::max(max_gpus_[static_cast<std::size_t>(2 * seg)],
                 max_gpus_[static_cast<std::size_t>(2 * seg + 1)]);
  }
}

std::optional<platform::NodeId> FreeResourceIndex::find_any(
    platform::NodeId from, platform::NodeId limit, bool need_cores,
    bool need_gpus) const {
  if (!need_cores && !need_gpus) return std::nullopt;
  const int lo = std::max(0, from - range_.first);
  const int hi = std::min(range_.count, limit - range_.first);
  if (lo >= hi) return std::nullopt;
  const int found =
      find_any_impl(1, 0, leaves_, lo, hi, need_cores, need_gpus);
  if (found < 0) return std::nullopt;
  return range_.first + found;
}

int FreeResourceIndex::find_any_impl(int seg, int seg_lo, int seg_hi, int lo,
                                     int hi, bool need_cores,
                                     bool need_gpus) const {
  // A segment qualifies iff some node in it has a free unit of a resource
  // the demand still needs; the disjunction makes segment maxima exact, so
  // the left-first descent touches O(log n) segments.
  const bool may_match =
      (need_cores && max_cores_[static_cast<std::size_t>(seg)] > 0) ||
      (need_gpus && max_gpus_[static_cast<std::size_t>(seg)] > 0);
  if (seg_hi <= lo || hi <= seg_lo || !may_match) return -1;
  if (seg_hi - seg_lo == 1) return seg_lo;
  const int mid = seg_lo + (seg_hi - seg_lo) / 2;
  const int left =
      find_any_impl(2 * seg, seg_lo, mid, lo, hi, need_cores, need_gpus);
  if (left >= 0) return left;
  return find_any_impl(2 * seg + 1, mid, seg_hi, lo, hi, need_cores,
                       need_gpus);
}

std::optional<platform::NodeId> FreeResourceIndex::find_fit(
    platform::NodeId from, platform::NodeId limit, int cores,
    int gpus) const {
  const int lo = std::max(0, from - range_.first);
  const int hi = std::min(range_.count, limit - range_.first);
  if (lo >= hi) return std::nullopt;
  const int found = find_fit_impl(1, 0, leaves_, lo, hi, cores, gpus);
  if (found < 0) return std::nullopt;
  return range_.first + found;
}

int FreeResourceIndex::find_fit_impl(int seg, int seg_lo, int seg_hi, int lo,
                                     int hi, int cores, int gpus) const {
  // Conjunctive pruning: the cores and gpus maxima may come from different
  // nodes, so a passing segment is only a candidate — leaves decide. The
  // descent still visits nodes in ascending order, preserving the legacy
  // scan order exactly.
  const bool may_match =
      max_cores_[static_cast<std::size_t>(seg)] >= cores &&
      max_gpus_[static_cast<std::size_t>(seg)] >= gpus;
  if (seg_hi <= lo || hi <= seg_lo || !may_match) return -1;
  if (seg_hi - seg_lo == 1) return seg_lo;
  const int mid = seg_lo + (seg_hi - seg_lo) / 2;
  const int left = find_fit_impl(2 * seg, seg_lo, mid, lo, hi, cores, gpus);
  if (left >= 0) return left;
  return find_fit_impl(2 * seg + 1, mid, seg_hi, lo, hi, cores, gpus);
}

}  // namespace flotilla::sched
