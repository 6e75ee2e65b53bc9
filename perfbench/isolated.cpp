#include "isolated.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "journal/journal.hpp"
#include "journal/recovery.hpp"
#include "platform/spec_config.hpp"
#include "sched/placer.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "stack.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace flotilla;

namespace {

using Clock = std::chrono::steady_clock;

// Repeats `batch` (which returns its own figure) for `budget_s`, at least
// three times, and returns the median.
template <typename Batch>
double median_of_batches(double budget_s, Batch&& batch) {
  std::vector<double> figures;
  const auto start = Clock::now();
  do {
    figures.push_back(batch());
  } while (figures.size() < 3 ||
           std::chrono::duration<double>(Clock::now() - start).count() <
               budget_s);
  std::sort(figures.begin(), figures.end());
  return figures[figures.size() / 2];
}

template <typename Fn>
double timed_ns(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

// Engine::at + step with no-op callbacks, the calendar held at `depth`.
double push_pop_ns(std::size_t depth, std::uint64_t seed, double budget_s) {
  sim::RngStream rng(seed, "perfbench.calendar");
  std::vector<double> delays(4096);
  for (auto& d : delays) d = rng.exponential(1.0);
  sim::Engine engine;
  for (std::size_t i = 0; i < depth; ++i) {
    engine.at(delays[i % delays.size()], [] {});
  }
  constexpr std::size_t kOps = 200000;
  std::size_t k = 0;
  return median_of_batches(budget_s, [&] {
    return timed_ns([&] {
             for (std::size_t i = 0; i < kOps; ++i, ++k) {
               engine.step();
               engine.in(delays[k % delays.size()], [] {});
             }
           }) /
           static_cast<double>(kOps);
  });
}

// Placer::place/release churn on one 64-node flux partition kept full,
// as every partition is through flux-saturated's two waves.
double place_release_ns(std::uint64_t seed, double budget_s) {
  platform::Cluster cluster(platform::spec_by_name("frontier"), 64);
  sched::Placer placer(cluster, platform::NodeRange{0, 64},
                       sched::PlacerOptions{.rotate_cursor = false});
  platform::ResourceDemand one;
  one.cores = 1;
  std::vector<platform::Placement> held;
  while (auto placement = placer.place(one)) held.push_back(*placement);
  FLOT_CHECK(!held.empty(), "placer placed nothing");
  sim::RngStream rng(seed, "perfbench.placer");
  std::vector<std::size_t> victims(4096);
  for (auto& v : victims) {
    v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
  }
  constexpr std::size_t kOps = 100000;
  std::size_t k = 0;
  return median_of_batches(budget_s, [&] {
    return timed_ns([&] {
             for (std::size_t i = 0; i < kOps; ++i, ++k) {
               auto& slot = held[victims[k % victims.size()]];
               placer.release(slot);
               auto placement = placer.place(one);
               FLOT_CHECK(placement.has_value(), "freed slot not reused");
               slot = *placement;
             }
           }) /
           static_cast<double>(kOps);
  });
}

}  // namespace

std::map<std::string, double> run_isolated(const std::string& journal,
                                           std::uint64_t seed,
                                           double seconds) {
  const double share = seconds / 6.0;
  std::map<std::string, double> out;
  out["sim.push_pop_ns_1k"] = push_pop_ns(1000, seed, share);
  out["sim.push_pop_ns_100k"] = push_pop_ns(100000, seed, share);
  out["sched.place_release_ns"] = place_release_ns(seed, share);

  const auto records = journal::read(journal).records;
  FLOT_CHECK(!records.empty(), "empty journal");
  const auto per_record = static_cast<double>(records.size());
  std::size_t sink = 0;
  out["journal.encode_ns_per_record"] = median_of_batches(share, [&] {
    return timed_ns([&] {
             for (const auto& r : records) sink += r.encode().size();
           }) /
           per_record;
  });
  out["journal.read_ns_per_record"] = median_of_batches(share, [&] {
    return timed_ns([&] { sink += journal::read(journal).records.size(); }) /
           per_record;
  });
  const std::string cut = crash_cut(journal, seed);
  out["journal.parse_s"] = median_of_batches(share, [&] {
    return timed_ns([&] {
             sink += journal::RecoveryManager(cut).prefix().size();
           }) *
           1e-9;
  });
  FLOT_CHECK(sink > 0, "isolated families did no work");
  return out;
}

}  // namespace perfbench
