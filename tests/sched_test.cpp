// Tests for the shared scheduling subsystem (src/sched/):
//
//  - queue policies (FIFO, priority-with-FIFO-tie-break, bounded backfill)
//  - the FreeResourceIndex segment tree, including coherence under
//    allocations made behind the placer's back (Cluster observer hook)
//  - the placer's rejected-demand memo: exact, invalidated by any
//    in-range node change, and invisible in stats and trace instants
//  - behavior-identity: the indexed first-fit placer must produce
//    bit-for-bit the same placements as the legacy linear scan over
//    randomized allocate/release/demand sequences, each refused demand
//    offered twice (golden traces depend on this).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "platform/cluster.hpp"
#include "sched/free_index.hpp"
#include "sched/placement_policy.hpp"
#include "sched/placer.hpp"
#include "sched/queue.hpp"
#include "sim/random.hpp"

namespace flotilla::sched {
namespace {

using platform::Cluster;
using platform::NodeId;
using platform::NodeRange;
using platform::ResourceDemand;
using platform::frontier_spec;

QueueEntry entry(std::string id, int priority = 16) {
  QueueEntry e;
  e.id = std::move(id);
  e.priority = priority;
  return e;
}

std::vector<std::string> ids_of(const TaskQueue& queue) {
  std::vector<std::string> ids;
  for (const auto& e : queue.entries()) ids.push_back(e.id);
  return ids;
}

// ------------------------------------------------------- queue policies

TEST(QueuePolicy, FifoKeepsArrivalOrderRegardlessOfPriority) {
  TaskQueue queue(std::make_unique<FifoPolicy>());
  queue.push(entry("a", 1));
  queue.push(entry("b", 31));
  queue.push(entry("c", 16));
  EXPECT_EQ(ids_of(queue), (std::vector<std::string>{"a", "b", "c"}));
  // Strict head-of-line blocking: one entry per pass.
  EXPECT_EQ(queue.scan_limit(), 1u);
}

TEST(QueuePolicy, PriorityOrdersHigherFirstWithFifoTieBreak) {
  TaskQueue queue(std::make_unique<PriorityFifoPolicy>());
  queue.push(entry("low.1", 8));
  queue.push(entry("high.1", 24));
  queue.push(entry("mid.1", 16));
  queue.push(entry("high.2", 24));  // ties behind the earlier equal entry
  queue.push(entry("mid.2", 16));
  EXPECT_EQ(ids_of(queue), (std::vector<std::string>{
                               "high.1", "high.2", "mid.1", "mid.2", "low.1"}));
  EXPECT_EQ(queue.scan_limit(), 1u);
}

TEST(QueuePolicy, BackfillBoundsScanDepth) {
  TaskQueue queue(std::make_unique<BackfillPolicy>(4));
  for (int i = 0; i < 3; ++i) queue.push(entry("t" + std::to_string(i)));
  EXPECT_EQ(queue.scan_limit(), 3u);  // clamped to queue size
  for (int i = 3; i < 10; ++i) queue.push(entry("t" + std::to_string(i)));
  EXPECT_EQ(queue.scan_limit(), 4u);  // clamped to depth
  static_cast<BackfillPolicy&>(queue.policy()).set_depth(64);
  EXPECT_EQ(queue.scan_limit(), 10u);
  EXPECT_THROW(BackfillPolicy(0), util::Error);
}

TEST(QueuePolicy, TaskQueueTakeRemoveAndDrain) {
  TaskQueue queue(std::make_unique<FifoPolicy>());
  auto payload = std::make_shared<int>(7);
  auto e = entry("keep");
  e.payload = payload;
  queue.push(std::move(e));
  auto v = entry("victim");
  v.payload = std::make_shared<int>(1);
  queue.push(std::move(v));
  queue.push(entry("tail"));

  EXPECT_EQ(queue.remove("absent"), nullptr);
  EXPECT_NE(queue.remove("victim"), nullptr);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.at(0).id, "keep");

  auto taken = queue.take(1);
  EXPECT_EQ(taken.id, "tail");

  auto drained = queue.drain();
  EXPECT_TRUE(queue.empty());
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(*std::static_pointer_cast<int>(drained.front().payload), 7);
}

// ---------------------------------------------------- free-resource index

TEST(FreeResourceIndex, TracksDirectNodeAllocationsViaObserver) {
  Cluster cluster(frontier_spec(), 5);  // non-power-of-two leaf count
  FreeResourceIndex index(cluster, cluster.all_nodes());
  EXPECT_EQ(index.max_free_cores(), 56);
  EXPECT_EQ(index.max_free_gpus(), 8);

  // Allocations made behind any placer's back must still be visible.
  auto slice = cluster.node(2).allocate(56, 8);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(index.find_any(2, 3, true, false), std::nullopt);
  EXPECT_EQ(index.find_any(0, 5, true, true), std::optional<NodeId>(0));

  cluster.node(2).release(*slice);
  EXPECT_EQ(index.find_any(2, 3, true, false), std::optional<NodeId>(2));
}

TEST(FreeResourceIndex, VersionCountsInRangeChangesOnly) {
  Cluster cluster(frontier_spec(), 6);
  FreeResourceIndex index(cluster, NodeRange{2, 3});  // nodes 2..4
  EXPECT_EQ(index.version(), 0u);
  auto outside = cluster.node(5).allocate(1, 0);
  ASSERT_TRUE(outside.has_value());
  cluster.node(5).release(*outside);
  EXPECT_EQ(index.version(), 0u);
  auto inside = cluster.node(2).allocate(1, 0);
  ASSERT_TRUE(inside.has_value());
  EXPECT_EQ(index.version(), 1u);
  cluster.node(2).release(*inside);
  EXPECT_EQ(index.version(), 2u);
}

TEST(FreeResourceIndex, FindAnyIsDisjunctive) {
  Cluster cluster(frontier_spec(), 4);
  FreeResourceIndex index(cluster, cluster.all_nodes());
  // Node 0: no cores left, GPUs free. Node 1: untouched.
  ASSERT_TRUE(cluster.node(0).allocate(56, 0).has_value());
  EXPECT_EQ(index.find_any(0, 4, true, false), std::optional<NodeId>(1));
  EXPECT_EQ(index.find_any(0, 4, false, true), std::optional<NodeId>(0));
  EXPECT_EQ(index.find_any(0, 4, true, true), std::optional<NodeId>(0));
}

TEST(FreeResourceIndex, FindFitIsConjunctiveAndOrdered) {
  Cluster cluster(frontier_spec(), 8);
  FreeResourceIndex index(cluster, cluster.all_nodes());
  // Fragment: nodes 0..5 keep 8 free cores, node 6 keeps 40, node 7 full.
  for (NodeId id = 0; id < 6; ++id) {
    ASSERT_TRUE(cluster.node(id).allocate(48, 0).has_value());
  }
  ASSERT_TRUE(cluster.node(6).allocate(16, 8).has_value());

  EXPECT_EQ(index.find_fit(0, 8, 40, 0), std::optional<NodeId>(6));
  EXPECT_EQ(index.find_fit(0, 8, 8, 1), std::optional<NodeId>(0));
  // Node 6 has the cores but no GPUs; only untouched node 7 satisfies both.
  EXPECT_EQ(index.find_fit(0, 8, 40, 1), std::optional<NodeId>(7));
  ASSERT_TRUE(cluster.node(7).allocate(56, 8).has_value());
  EXPECT_EQ(index.find_fit(0, 8, 40, 1), std::nullopt);
  EXPECT_EQ(index.find_fit(7, 8, 1, 0), std::nullopt);
}

TEST(FreeResourceIndex, RespectsSubrangeWindows) {
  Cluster cluster(frontier_spec(), 9);
  FreeResourceIndex index(cluster, NodeRange{3, 4});  // nodes 3..6
  EXPECT_EQ(index.find_any(0, 9, true, false), std::optional<NodeId>(3));
  EXPECT_EQ(index.find_any(5, 9, true, false), std::optional<NodeId>(5));
  EXPECT_EQ(index.find_any(7, 9, true, false), std::nullopt);
  ASSERT_TRUE(cluster.node(3).allocate(56, 8).has_value());
  EXPECT_EQ(index.find_fit(3, 7, 56, 0), std::optional<NodeId>(4));
}

// --------------------------------------------------- placement policies

TEST(PlacementPolicy, ChunkedScanHonorsRotatingCursor) {
  // The legacy chunked path ignored the cursor, so multi-node tasks piled
  // onto low-numbered nodes; the scan must start at the cursor like the
  // loose path does.
  Cluster cluster(frontier_spec(), 4);
  NodeId cursor = 2;
  auto first = linear_try_place(cluster, {0, 4}, {56, 0, 56}, &cursor);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->slices.size(), 1u);
  EXPECT_EQ(first->slices[0].node, 2);
  EXPECT_EQ(cursor, 3);

  auto second = linear_try_place(cluster, {0, 4}, {112, 0, 56}, &cursor);
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->slices.size(), 2u);
  EXPECT_EQ(second->slices[0].node, 3);  // wraps after node 3
  EXPECT_EQ(second->slices[1].node, 0);
  EXPECT_EQ(cursor, 1);
}

TEST(PlacementPolicy, BestFitPacksTheBusiestQualifyingNode) {
  Cluster cluster(frontier_spec(), 3);
  ASSERT_TRUE(cluster.node(1).allocate(40, 0).has_value());
  BestFitPolicy policy;
  PlacementInput in{cluster, cluster.all_nodes()};
  auto placement = policy.place(in, {8, 0, 0});
  ASSERT_TRUE(placement.has_value());
  ASSERT_EQ(placement->slices.size(), 1u);
  EXPECT_EQ(placement->slices[0].node, 1);  // least free capacity fits
}

TEST(PlacementPolicy, GpuPackSteersByGpuDemand) {
  Cluster cluster(frontier_spec(), 3);
  ASSERT_TRUE(cluster.node(0).allocate(0, 6).has_value());
  GpuPackPolicy policy;
  PlacementInput in{cluster, cluster.all_nodes()};
  // CPU-only work goes to the GPU-poor node, preserving GPU capacity.
  auto cpu = policy.place(in, {4, 0, 0});
  ASSERT_TRUE(cpu.has_value());
  EXPECT_EQ(cpu->slices[0].node, 0);
  // GPU work goes to the GPU-rich node (id tie-break: 1 before 2).
  auto gpu = policy.place(in, {1, 1, 0});
  ASSERT_TRUE(gpu.has_value());
  EXPECT_EQ(gpu->slices[0].node, 1);
}

TEST(Placer, CountsAttemptsAndRotatesCursor) {
  Cluster cluster(frontier_spec(), 2);
  Placer placer(cluster, cluster.all_nodes());
  auto a = placer.place({1, 0, 0});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(placer.cursor(), 1);
  auto b = placer.place({2 * 56, 0, 0});  // no longer fits
  EXPECT_FALSE(b.has_value());
  EXPECT_EQ(placer.stats().attempts, 2u);
  EXPECT_EQ(placer.stats().placed, 1u);
  EXPECT_EQ(placer.stats().rejected, 1u);
  placer.release(*a);
  EXPECT_TRUE(placer.place({2 * 56, 0, 0}).has_value());
}

// ------------------------------------------------ rejected-demand memo

// Counts every node change the cluster announces.
struct ChangeCounter : Cluster::Observer {
  explicit ChangeCounter(Cluster& observed) : cluster(observed) {
    cluster.add_observer(this);
  }
  ~ChangeCounter() override { cluster.remove_observer(this); }
  void node_changed(NodeId) override { ++changes; }
  Cluster& cluster;
  int changes = 0;
};

TEST(PlacerMemo, RepeatedRejectionStillCountsEveryCall) {
  sim::Engine engine;
  obs::Tracer tracer(engine, 16);
  Cluster cluster(frontier_spec(), 2);
  Placer placer(cluster, cluster.all_nodes());
  placer.set_trace(obs::TraceHandle(&tracer), "p");
  ChangeCounter counter(cluster);
  const ResourceDemand nine_gpus{56, 9, 56};  // no node has 9 GPUs
  for (std::uint64_t call = 1; call <= 3; ++call) {
    EXPECT_FALSE(placer.place(nine_gpus).has_value());
    EXPECT_EQ(placer.stats().attempts, call);
    EXPECT_EQ(placer.stats().rejected, call);
    EXPECT_EQ(placer.stats().memo_hits, call - 1);
  }
  EXPECT_EQ(counter.changes, 0);  // the refusal never touched a node
  ASSERT_EQ(tracer.size(), 3u);
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    EXPECT_EQ(tracer.at(i).type, obs::SpanType::kPlacementAttempt);
    EXPECT_EQ(tracer.at(i).component, "p");
    EXPECT_EQ(tracer.at(i).value, 0.0);
  }
  // A different demand misses the memo and replaces it.
  EXPECT_TRUE(placer.place({1, 0, 0}).has_value());
  EXPECT_EQ(placer.stats().memo_hits, 2u);
}

TEST(PlacerMemo, InRangeChangesBehindThePlacersBackInvalidateIt) {
  Cluster cluster(frontier_spec(), 4);
  Placer placer(cluster, NodeRange{0, 2}, {.rotate_cursor = false});
  auto node0 = cluster.node(0).allocate(56, 0);
  auto node1 = cluster.node(1).allocate(56, 0);
  ASSERT_TRUE(node0 && node1);
  const ResourceDemand one_core{1, 0, 0};
  EXPECT_FALSE(placer.place(one_core).has_value());
  EXPECT_EQ(placer.stats().memo_hits, 0u);

  // Out of range: the memo stays valid.
  auto outside = cluster.node(3).allocate(8, 1);
  ASSERT_TRUE(outside.has_value());
  cluster.node(3).release(*outside);
  EXPECT_FALSE(placer.place(one_core).has_value());
  EXPECT_EQ(placer.stats().memo_hits, 1u);

  // In range, allocation: the memo is dropped and the policy runs again.
  auto gpu = cluster.node(1).allocate(0, 1);
  ASSERT_TRUE(gpu.has_value());
  EXPECT_FALSE(placer.place(one_core).has_value());
  EXPECT_EQ(placer.stats().memo_hits, 1u);

  // In range, release: the equal demand is now placed on the freed node.
  cluster.node(1).release(*node1);
  auto placed = placer.place(one_core);
  ASSERT_TRUE(placed.has_value());
  ASSERT_EQ(placed->slices.size(), 1u);
  EXPECT_EQ(placed->slices[0].node, 1);
  EXPECT_EQ(placer.stats().memo_hits, 1u);
  EXPECT_EQ(placer.stats().placed, 1u);
}

TEST(PlacerMemo, SetPolicyClearsIt) {
  Cluster cluster(frontier_spec(), 2);
  Placer placer(cluster, cluster.all_nodes());
  const ResourceDemand nine_gpus{56, 9, 56};
  EXPECT_FALSE(placer.place(nine_gpus).has_value());
  EXPECT_FALSE(placer.place(nine_gpus).has_value());
  EXPECT_EQ(placer.stats().memo_hits, 1u);
  placer.set_policy(PlacementPolicyKind::kBestFit);
  EXPECT_FALSE(placer.place(nine_gpus).has_value());  // best-fit ran
  EXPECT_EQ(placer.stats().memo_hits, 1u);
  EXPECT_FALSE(placer.place(nine_gpus).has_value());  // now memoised
  EXPECT_EQ(placer.stats().memo_hits, 2u);
}

TEST(PlacerMemo, RolledBackMultiChunkProbeIsNotMemoised) {
  // Node 1 is full, so a two-chunk demand takes node 0, fails on its last
  // chunk and rolls back: the probe changed nodes (and, rotating, the
  // cursor), so it must run again in full with the same transient
  // allocate/release notifications.
  Cluster cluster(frontier_spec(), 2);
  ASSERT_TRUE(cluster.node(1).allocate(56, 0).has_value());
  Placer placer(cluster, cluster.all_nodes());
  ChangeCounter counter(cluster);
  const ResourceDemand two_chunks{112, 0, 56};
  EXPECT_FALSE(placer.place(two_chunks).has_value());
  const int first_call = counter.changes;
  EXPECT_EQ(first_call, 2);  // allocate + release on node 0
  const NodeId cursor = placer.cursor();
  EXPECT_FALSE(placer.place(two_chunks).has_value());
  EXPECT_EQ(counter.changes, 2 * first_call);
  EXPECT_EQ(placer.cursor(), cursor);
  EXPECT_EQ(placer.stats().memo_hits, 0u);
  EXPECT_EQ(placer.stats().rejected, 2u);
}

TEST(PlacerMemo, LinearScanModeHasNoMemo) {
  Cluster cluster(frontier_spec(), 2);
  Placer placer(cluster, cluster.all_nodes(), {.use_index = false});
  const ResourceDemand nine_gpus{56, 9, 56};
  EXPECT_FALSE(placer.place(nine_gpus).has_value());
  EXPECT_FALSE(placer.place(nine_gpus).has_value());
  EXPECT_EQ(placer.stats().memo_hits, 0u);
  EXPECT_EQ(placer.stats().rejected, 2u);
}

// --------------------------------------------- indexed/legacy identity

// Property: the indexed first-fit placer and the legacy linear scan,
// driven by the same randomized allocate/release/demand sequence on
// mirrored clusters, make identical decisions — same accept/reject, same
// slices (node, core mask, GPU mask), same cursor. Every refused demand is
// offered a second time before the next step, so the placer's memo path
// (taken when the refusal held nothing) is held to the same scan. Each
// seed runs under both a rotating and a fixed scan origin.
class PlacementIdentity : public ::testing::TestWithParam<std::uint64_t> {};

void expect_identity(std::uint64_t seed, bool rotate) {
  sim::RngStream rng(seed);
  const int nodes = static_cast<int>(rng.uniform_int(1, 48));
  Cluster legacy(frontier_spec(), nodes);
  Cluster mirrored(frontier_spec(), nodes);
  const auto range = legacy.all_nodes();
  NodeId cursor = range.first;
  Placer placer(mirrored, range, {.rotate_cursor = rotate});

  std::vector<platform::Placement> legacy_held;
  std::vector<platform::Placement> mirrored_held;
  int placed = 0, refused = 0;
  for (int step = 0; step < 600; ++step) {
    if (legacy_held.empty() || rng.bernoulli(0.6)) {
      ResourceDemand demand;
      demand.cores = rng.uniform_int(0, 56 * 3);
      demand.gpus = rng.uniform_int(0, 12);
      if (rng.bernoulli(0.25)) demand.cores_per_node = 56;
      auto expected =
          linear_try_place(legacy, range, demand, rotate ? &cursor : nullptr);
      auto actual = placer.place(demand);
      ASSERT_EQ(expected.has_value(), actual.has_value())
          << "step " << step << " cores=" << demand.cores
          << " gpus=" << demand.gpus << " cpn=" << demand.cores_per_node;
      if (rotate) {
        ASSERT_EQ(placer.cursor(), cursor) << "step " << step;
      }
      if (!expected) {
        ++refused;
        auto expected_again =
            linear_try_place(legacy, range, demand, rotate ? &cursor : nullptr);
        ASSERT_FALSE(expected_again.has_value()) << "step " << step;
        ASSERT_FALSE(placer.place(demand).has_value()) << "step " << step;
        if (rotate) {
          ASSERT_EQ(placer.cursor(), cursor) << "step " << step;
        }
        continue;
      }
      ++placed;
      ASSERT_EQ(expected->slices.size(), actual->slices.size());
      for (std::size_t i = 0; i < expected->slices.size(); ++i) {
        ASSERT_EQ(expected->slices[i], actual->slices[i]) << "step " << step;
      }
      legacy_held.push_back(std::move(*expected));
      mirrored_held.push_back(std::move(*actual));
    } else {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(legacy_held.size()) - 1));
      legacy.release(legacy_held[victim]);
      placer.release(mirrored_held[victim]);
      legacy_held.erase(legacy_held.begin() +
                        static_cast<std::ptrdiff_t>(victim));
      mirrored_held.erase(mirrored_held.begin() +
                          static_cast<std::ptrdiff_t>(victim));
    }
  }
  // The sequence must exercise both outcomes to mean anything.
  EXPECT_GT(placed, 0);
  EXPECT_GT(refused, 0);
  EXPECT_EQ(placer.stats().attempts,
            static_cast<std::uint64_t>(placed + 2 * refused));
  EXPECT_GT(placer.stats().memo_hits, 0u);
}

TEST_P(PlacementIdentity, IndexedPlacerMatchesLegacyLinearScan) {
  for (const bool rotate : {true, false}) {
    SCOPED_TRACE(rotate ? "rotating origin" : "fixed origin");
    expect_identity(GetParam(), rotate);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementIdentity,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace flotilla::sched
