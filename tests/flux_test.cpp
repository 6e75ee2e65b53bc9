#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "flux/flux_backend.hpp"
#include "flux/instance.hpp"
#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "sim/stats.hpp"
#include "util/strfmt.hpp"

namespace flotilla::flux {
namespace {

using platform::Cluster;
using platform::NodeRange;
using platform::frontier_calibration;
using platform::frontier_spec;

platform::LaunchRequest make_task(int i, double duration, std::int64_t cores,
                                  std::int64_t gpus = 0) {
  platform::LaunchRequest req;
  req.id = util::cat("task.", i);
  req.demand.cores = cores;
  req.demand.gpus = gpus;
  req.duration = duration;
  return req;
}

struct Fixture {
  sim::Engine engine;
  Cluster cluster;
  FluxBackend backend;

  Fixture(int nodes, int partitions, sim::Resource* ceiling = nullptr)
      : cluster(frontier_spec(), nodes),
        backend(engine, cluster, NodeRange{0, nodes}, partitions,
                frontier_calibration().flux, 42, ceiling) {
    bool ready = false;
    backend.bootstrap([&](bool ok, const std::string&) { ready = ok; });
    engine.run(120.0);
    EXPECT_TRUE(ready);
  }
};

// -------------------------------------------------------------- instance

TEST(FluxInstance, BootstrapTakesAbout20Seconds) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 16);
  Instance instance("flux.0", engine, cluster, NodeRange{0, 16},
                    frontier_calibration().flux, 7);
  EXPECT_FALSE(instance.ready());
  bool up = false;
  instance.bootstrap([&] { up = true; });
  engine.run();
  EXPECT_TRUE(up);
  EXPECT_TRUE(instance.ready());
  // Fig 7: ~20 s, roughly independent of instance size.
  EXPECT_NEAR(instance.bootstrap_duration(), 20.0, 6.0);
}

TEST(FluxInstance, EventLifecycleIsOrdered) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 1);
  Instance instance("flux.0", engine, cluster, NodeRange{0, 1},
                    frontier_calibration().flux, 7);
  std::vector<JobEventKind> kinds;
  instance.on_event(
      [&](const JobEvent& event) { kinds.push_back(event.kind); });
  instance.bootstrap([&] {
    Job job;
    job.id = "task.0";
    job.demand.cores = 4;
    job.duration = 10.0;
    instance.submit(std::move(job));
  });
  engine.run();
  EXPECT_EQ(kinds,
            (std::vector<JobEventKind>{JobEventKind::kSubmit,
                                       JobEventKind::kAlloc,
                                       JobEventKind::kStart,
                                       JobEventKind::kFinish}));
  EXPECT_EQ(instance.jobs_completed(), 1u);
}

TEST(FluxInstance, SingleNodeThroughputIsSpawnLimited) {
  // Fig 5(b): ~28 tasks/s with one instance on one node.
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 1);
  Instance instance("flux.0", engine, cluster, NodeRange{0, 1},
                    frontier_calibration().flux, 7);
  sim::RateSeries starts(1.0);
  instance.on_event([&](const JobEvent& event) {
    if (event.kind == JobEventKind::kStart) starts.record(engine.now());
  });
  instance.bootstrap([&] {
    for (int i = 0; i < 2000; ++i) {
      Job job;
      job.id = util::cat("task.", i);
      job.demand.cores = 1;
      instance.submit(std::move(job));
    }
  });
  engine.run();
  EXPECT_EQ(starts.total(), 2000u);
  EXPECT_NEAR(starts.window_rate(), 28.6, 4.0);
}

TEST(FluxInstance, BackfillSkipsBlockedHead) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 1);  // 56 cores
  Instance instance("flux.0", engine, cluster, NodeRange{0, 1},
                    frontier_calibration().flux, 7);
  std::vector<std::string> started;
  instance.on_event([&](const JobEvent& event) {
    if (event.kind == JobEventKind::kStart) started.push_back(event.job_id);
  });
  instance.bootstrap([&] {
    Job big1;  // takes all but one core
    big1.id = "big.0";
    big1.demand.cores = 55;
    big1.duration = 100.0;
    instance.submit(std::move(big1));
    Job big2;  // head of queue, cannot fit while big1 runs
    big2.id = "big.1";
    big2.demand.cores = 56;
    big2.duration = 10.0;
    instance.submit(std::move(big2));
    Job small;  // must be backfilled around big2
    small.id = "small.0";
    small.demand.cores = 1;
    small.duration = 5.0;
    instance.submit(std::move(small));
  });
  engine.run();
  ASSERT_EQ(started.size(), 3u);
  EXPECT_EQ(started[0], "big.0");
  EXPECT_EQ(started[1], "small.0");  // backfilled while big.0 runs
  EXPECT_EQ(started[2], "big.1");
}

TEST(FluxInstance, SchedulingIsEventDrivenNotPolled) {
  // When the node frees at t~100, the waiting job must start within the
  // event-handling latency (milliseconds), not a polling interval.
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 1);
  Instance instance("flux.0", engine, cluster, NodeRange{0, 1},
                    frontier_calibration().flux, 7);
  std::vector<sim::Time> starts;
  sim::Time finish_time = 0.0;
  instance.on_event([&](const JobEvent& event) {
    if (event.kind == JobEventKind::kStart) starts.push_back(engine.now());
    if (event.kind == JobEventKind::kFinish && event.job_id == "a") {
      finish_time = engine.now();
    }
  });
  instance.bootstrap([&] {
    Job a;
    a.id = "a";
    a.demand.cores = 56;
    a.duration = 100.0;
    instance.submit(std::move(a));
    Job b;
    b.id = "b";
    b.demand.cores = 56;
    b.duration = 1.0;
    instance.submit(std::move(b));
  });
  engine.run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_GT(finish_time, 100.0);
  EXPECT_LT(starts[1] - finish_time, 0.5);  // event-driven, sub-second
}

TEST(FluxInstance, CrashRaisesExceptionsAndFreesResources) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 2);
  Instance instance("flux.0", engine, cluster, NodeRange{0, 2},
                    frontier_calibration().flux, 7);
  int exceptions = 0;
  instance.on_event([&](const JobEvent& event) {
    if (event.kind == JobEventKind::kException && !event.job_id.empty()) {
      ++exceptions;
      EXPECT_FALSE(event.success);
    }
  });
  instance.bootstrap([&] {
    for (int i = 0; i < 4; ++i) {
      Job job;
      job.id = util::cat("task.", i);
      job.demand.cores = 56;  // two run, two queue
      job.duration = 1000.0;
      instance.submit(std::move(job));
    }
  });
  engine.run(60.0);
  EXPECT_EQ(instance.running_jobs(), 2u);
  instance.crash("power lost");
  engine.run();
  EXPECT_FALSE(instance.healthy());
  EXPECT_EQ(exceptions, 4);
  // All resources released for failover reuse.
  EXPECT_EQ(cluster.free_cores(NodeRange{0, 2}), 112);
}

TEST(FluxInstance, CrashReapsQueuedThenRunningBySortedIdThenMarker) {
  // Three whole-node jobs start in the order c, a, b; two more wait. The
  // crash must report the queue in queue order, then the running jobs in
  // sorted id order (not start order), then the instance-level marker, and
  // the reaped jobs' finish timers (due at ~1000 s) must stay silent.
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 3);
  Instance instance("flux.0", engine, cluster, NodeRange{0, 3},
                    frontier_calibration().flux, 7);
  std::vector<std::string> started;
  std::vector<std::string> after_crash;
  bool crashed = false;
  instance.on_event([&](const JobEvent& event) {
    if (event.kind == JobEventKind::kStart) started.push_back(event.job_id);
    if (!crashed) return;
    EXPECT_EQ(event.kind, JobEventKind::kException);
    EXPECT_FALSE(event.success);
    EXPECT_EQ(event.note, "power lost");
    after_crash.push_back(event.job_id);
  });
  instance.bootstrap([&] {
    for (const char* id : {"c", "a", "b", "z", "y"}) {
      Job job;
      job.id = id;
      job.demand.cores = 56;
      job.duration = 1000.0;
      instance.submit(std::move(job));
    }
  });
  engine.run(60.0);
  ASSERT_EQ(started, (std::vector<std::string>{"c", "a", "b"}));
  ASSERT_EQ(instance.queue_depth(), 2u);
  crashed = true;
  instance.crash("power lost");
  engine.run();
  EXPECT_GT(engine.now(), 1000.0);  // the finish timers did fire
  EXPECT_EQ(after_crash,
            (std::vector<std::string>{"z", "y", "a", "b", "c", ""}));
  EXPECT_EQ(instance.running_jobs(), 0u);
  EXPECT_EQ(instance.jobs_completed(), 0u);
  EXPECT_EQ(cluster.free_cores(NodeRange{0, 3}), 168);
}

TEST(FluxInstance, CrashBetweenFinishAndItsCompletionEventReapsOnce) {
  // The job's finish timer has fired but rank 0 has not yet processed its
  // completion event when the broker dies: the crash reaps the job, and
  // the late completion event must neither release its cores again nor
  // report a finish.
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 1);
  Instance instance("flux.0", engine, cluster, NodeRange{0, 1},
                    frontier_calibration().flux, 7);
  sim::Time started = -1.0;
  std::vector<JobEventKind> after_start;
  instance.on_event([&](const JobEvent& event) {
    if (event.kind == JobEventKind::kStart) {
      started = engine.now();
      return;
    }
    if (started >= 0.0) after_start.push_back(event.kind);
  });
  instance.bootstrap([&] {
    Job job;
    job.id = "solo";
    job.demand.cores = 56;
    job.duration = 1000.0;
    instance.submit(std::move(job));
  });
  engine.run(60.0);
  ASSERT_GE(started, 0.0);
  engine.run(started + 1000.0);  // fires the finish timer, not its event
  EXPECT_TRUE(after_start.empty());
  EXPECT_EQ(cluster.free_cores(NodeRange{0, 1}), 0);
  instance.crash("power lost");
  engine.run();
  EXPECT_EQ(after_start, (std::vector<JobEventKind>{JobEventKind::kException,
                                                    JobEventKind::kException}));
  EXPECT_EQ(instance.jobs_completed(), 0u);
  EXPECT_EQ(cluster.free_cores(NodeRange{0, 1}), 56);
}

// --------------------------------------------------------------- backend

TEST(FluxBackend, ThroughputScalesWithNodeCount) {
  // Fig 5(b) shape: single-instance throughput grows with node count.
  auto rate_at = [](int nodes) {
    Fixture fx(nodes, 1);
    sim::RateSeries starts(1.0);
    fx.backend.on_task_start(
        [&](const std::string&) { starts.record(fx.engine.now()); });
    fx.backend.on_task_complete([](const platform::LaunchOutcome&) {});
    const int n = 3000;
    for (int i = 0; i < n; ++i) fx.backend.submit(make_task(i, 0.0, 1));
    fx.engine.run();
    EXPECT_EQ(starts.total(), static_cast<std::uint64_t>(n));
    return starts.window_rate();
  };
  const double r1 = rate_at(1);
  const double r4 = rate_at(4);
  const double r16 = rate_at(16);
  EXPECT_NEAR(r1, 28.6, 4.0);   // paper: ~28 tasks/s at one node
  EXPECT_NEAR(r4, 56.0, 10.0);  // paper (Fig 6): ~56 tasks/s at 4 nodes
  EXPECT_GT(r4, 1.6 * r1);
  EXPECT_GT(r16, 1.5 * r4);
}

TEST(FluxBackend, MultipleInstancesIncreaseThroughput) {
  // Fig 6 shape: at fixed node count, more instances -> more launch lanes.
  auto rate_with = [](int nodes, int partitions) {
    Fixture fx(nodes, partitions);
    sim::RateSeries starts(1.0);
    fx.backend.on_task_start(
        [&](const std::string&) { starts.record(fx.engine.now()); });
    fx.backend.on_task_complete([](const platform::LaunchOutcome&) {});
    const int n = 4000;
    for (int i = 0; i < n; ++i) fx.backend.submit(make_task(i, 0.0, 1));
    fx.engine.run();
    return starts.window_rate();
  };
  const double one = rate_with(4, 1);
  const double four = rate_with(4, 4);
  EXPECT_GT(four, 1.5 * one);
}

TEST(FluxBackend, RoundRobinSpreadsTasksAcrossInstances) {
  Fixture fx(4, 4);
  fx.backend.on_task_complete([](const platform::LaunchOutcome&) {});
  for (int i = 0; i < 400; ++i) fx.backend.submit(make_task(i, 0.0, 1));
  fx.engine.run();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(fx.backend.instance(i).jobs_completed()),
                100.0, 1.0);
  }
}

TEST(FluxBackend, MultiNodeTaskRoutedToFittingInstance) {
  Fixture fx(8, 4);  // partitions of 2 nodes / 112 cores each
  int ok = 0;
  fx.backend.on_task_complete(
      [&](const platform::LaunchOutcome& outcome) { ok += outcome.success; });
  auto req = make_task(0, 10.0, 112);
  req.demand.cores_per_node = 56;
  fx.backend.submit(req);
  fx.engine.run();
  EXPECT_EQ(ok, 1);
}

TEST(FluxBackend, OversizedTaskFailsCleanly) {
  Fixture fx(4, 4);  // partitions of 1 node / 56 cores
  platform::LaunchOutcome last;
  fx.backend.on_task_complete(
      [&](const platform::LaunchOutcome& outcome) { last = outcome; });
  fx.backend.submit(make_task(0, 10.0, 300));
  fx.engine.run();
  EXPECT_FALSE(last.success);
  EXPECT_NE(last.error.find("no healthy instance"), std::string::npos);
  EXPECT_EQ(fx.backend.inflight(), 0u);
}

// Submits `req` alone and reports its outcome; a task that is accepted
// but can never be placed would leave the backend non-quiescent.
platform::LaunchOutcome run_alone(Fixture& fx, platform::LaunchRequest req) {
  platform::LaunchOutcome last;
  int outcomes = 0;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    last = outcome;
    ++outcomes;
  });
  fx.backend.submit(std::move(req));
  fx.engine.run();
  EXPECT_EQ(outcomes, 1);
  EXPECT_EQ(fx.backend.inflight(), 0u);
  EXPECT_TRUE(fx.backend.quiescent());
  return last;
}

TEST(FluxBackend, OversizedGpuTaskFailsCleanly) {
  Fixture fx(4, 4);  // partitions of 1 node / 8 GPUs
  auto loose = run_alone(fx, make_task(0, 10.0, 1, 20));
  EXPECT_FALSE(loose.success);
  EXPECT_NE(loose.error.find("no healthy instance"), std::string::npos);

  // 16 GPUs fit a 2-node partition in total, but a single 56-core chunk
  // must take all of them on one node.
  Fixture wide(8, 4);
  auto chunked = make_task(1, 10.0, 56, 16);
  chunked.demand.cores_per_node = 56;
  auto one_chunk = run_alone(wide, chunked);
  EXPECT_FALSE(one_chunk.success);
  EXPECT_NE(one_chunk.error.find("no healthy instance"), std::string::npos);
  chunked.demand.cores = 112;  // two chunks of 8 GPUs each fit
  chunked.id = "task.2";
  EXPECT_TRUE(run_alone(wide, chunked).success);
}

TEST(FluxBackend, ChunkWiderThanANodeFailsCleanly) {
  Fixture fx(8, 4);  // partitions of 2 nodes / 112 cores each
  // 112 cores fit the partition, but in 64-core chunks no node holds one.
  auto wide = make_task(0, 10.0, 112);
  wide.demand.cores_per_node = 64;
  auto outcome = run_alone(fx, wide);
  EXPECT_FALSE(outcome.success);
  EXPECT_NE(outcome.error.find("no healthy instance"), std::string::npos);
  // A chunk is capped by the task's cores: 32 cores at 64 per node is one
  // 32-core chunk, which fits.
  auto narrow = make_task(1, 10.0, 32);
  narrow.demand.cores_per_node = 64;
  EXPECT_TRUE(run_alone(fx, narrow).success);
}

TEST(FluxBackend, MoreChunksThanNodesFailsCleanlyUnderFirstFit) {
  Fixture fx(4, 4);  // partitions of 1 node
  // Two 8-core chunks: first-fit puts each chunk on a node of its own.
  auto chunked = make_task(0, 10.0, 16);
  chunked.demand.cores_per_node = 8;
  auto outcome = run_alone(fx, chunked);
  EXPECT_FALSE(outcome.success);
  EXPECT_NE(outcome.error.find("no healthy instance"), std::string::npos);

  // Best-fit may stack both chunks on the one node.
  Fixture stacked(4, 4);
  for (int i = 0; i < stacked.backend.partitions(); ++i) {
    stacked.backend.instance(i).set_placement_policy(
        sched::PlacementPolicyKind::kBestFit);
  }
  chunked.id = "task.1";
  EXPECT_TRUE(run_alone(stacked, chunked).success);
}

TEST(FluxBackend, InstanceCrashFailsItsTasksOnly) {
  Fixture fx(4, 2);
  int ok = 0, failed = 0;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcome.success ? ++ok : ++failed;
  });
  for (int i = 0; i < 8; ++i) fx.backend.submit(make_task(i, 500.0, 1));
  fx.engine.run(200.0);
  fx.backend.crash_instance(0, "node failure");
  fx.engine.run();
  EXPECT_TRUE(fx.backend.healthy());  // one instance survives
  EXPECT_EQ(ok + failed, 8);
  EXPECT_EQ(failed, 4);  // round-robin put half on the dead instance
  // New work continues on the surviving instance.
  fx.backend.submit(make_task(100, 1.0, 1));
  fx.engine.run();
  EXPECT_EQ(ok, 5);
}

TEST(FluxBackend, BootstrapFailureIsReported) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 2);
  FluxBackend backend(engine, cluster, NodeRange{0, 2}, 1,
                      frontier_calibration().flux, 42);
  backend.fail_bootstrap = true;
  bool ok = true;
  std::string error;
  backend.bootstrap([&](bool success, const std::string& e) {
    ok = success;
    error = e;
  });
  engine.run();
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("bootstrap failed"), std::string::npos);
}

TEST(FluxBackend, ConcurrentBootstrapIsNotAdditive) {
  // Fig 7: launching many instances concurrently costs about as much as
  // launching one.
  sim::Engine e1;
  Cluster c1(frontier_spec(), 16);
  FluxBackend one(e1, c1, NodeRange{0, 16}, 1, frontier_calibration().flux,
                  42);
  one.bootstrap([](bool, const std::string&) {});
  e1.run();
  const double t_one = e1.now();

  sim::Engine e16;
  Cluster c16(frontier_spec(), 16);
  FluxBackend many(e16, c16, NodeRange{0, 16}, 16,
                   frontier_calibration().flux, 42);
  many.bootstrap([](bool, const std::string&) {});
  e16.run();
  const double t_many = e16.now();

  EXPECT_LT(t_many, 2.0 * t_one);  // nowhere near 16x
  const auto durations = many.bootstrap_durations();
  EXPECT_EQ(durations.size(), 16u);
  for (const auto d : durations) EXPECT_NEAR(d, 20.0, 8.0);
}

TEST(FluxBackend, InstancesHoldSrunCeilingSlots) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 8);
  sim::Resource ceiling(engine, 112);
  Fixture* unused = nullptr;
  (void)unused;
  FluxBackend backend(engine, cluster, NodeRange{0, 8}, 8,
                      frontier_calibration().flux, 42, &ceiling);
  bool ready = false;
  backend.bootstrap([&](bool ok, const std::string&) { ready = ok; });
  engine.run();
  EXPECT_TRUE(ready);
  EXPECT_EQ(ceiling.in_use(), 8);
}

TEST(FluxBackend, UtilizationStaysHighUnderDummyLoad) {
  // flux_n: utilization >= 94.5% for configurations up to 64 nodes. Here:
  // 4 nodes, 4 instances, 4 waves of 180 s single-core tasks.
  Fixture fx(4, 4);
  sim::TimeWeighted busy;
  busy.set(fx.engine.now(), 0.0);
  sim::Time first_start = -1.0;
  fx.backend.on_task_start([&](const std::string&) {
    busy.add(fx.engine.now(), 1.0);
    if (first_start < 0) first_start = fx.engine.now();
  });
  fx.backend.on_task_complete([&](const platform::LaunchOutcome&) {
    busy.add(fx.engine.now(), -1.0);
  });
  const int n = 4 * 56 * 4;
  for (int i = 0; i < n; ++i) fx.backend.submit(make_task(i, 180.0, 1));
  fx.engine.run();
  const double makespan = fx.engine.now() - first_start;
  const double util = busy.integral(fx.engine.now()) / (224.0 * makespan);
  EXPECT_GT(util, 0.945);
}

}  // namespace
}  // namespace flotilla::flux
