#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace flotilla::sim {
namespace {

TEST(Engine, StartsAtTimeZeroEmpty) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_TRUE(engine.empty());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, ProcessesEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.at(5.0, [&] { order.push_back(2); });
  engine.at(1.0, [&] { order.push_back(1); });
  engine.at(9.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 9.0);
}

TEST(Engine, TiesResolveInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    engine.at(2.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, InSchedulesRelativeToNow) {
  Engine engine;
  Time fired = -1.0;
  engine.at(3.0, [&] { engine.in(2.0, [&] { fired = engine.now(); }); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired, 5.0);
}

TEST(Engine, PastTimesClampToNow) {
  Engine engine;
  Time fired = -1.0;
  engine.at(4.0, [&] { engine.at(1.0, [&] { fired = engine.now(); }); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired, 4.0);
}

TEST(Engine, CancelPreventsDelivery) {
  Engine engine;
  bool fired = false;
  const auto id = engine.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // second cancel is a no-op
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine engine;
  int count = 0;
  engine.at(1.0, [&] { ++count; });
  engine.at(2.0, [&] { ++count; });
  engine.at(3.0, [&] { ++count; });
  const auto processed = engine.run(2.0);
  EXPECT_EQ(processed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, StopAbortsRunLoop) {
  Engine engine;
  int count = 0;
  engine.at(1.0, [&] {
    ++count;
    engine.stop();
  });
  engine.at(2.0, [&] { ++count; });
  engine.run();
  EXPECT_EQ(count, 1);
  engine.run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, NextEventTimeSkipsTombstones) {
  Engine engine;
  const auto id = engine.at(1.0, [] {});
  engine.at(5.0, [] {});
  engine.cancel(id);
  EXPECT_DOUBLE_EQ(engine.next_event_time(), 5.0);
}

TEST(Engine, NextEventTimeEmptyIsInfinite) {
  Engine engine;
  EXPECT_EQ(engine.next_event_time(), kInfiniteTime);
}

TEST(Engine, EventsScheduledDuringRunAreProcessed) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) engine.in(1.0, recurse);
  };
  engine.in(1.0, recurse);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 100.0);
}

TEST(Engine, ProcessedCounterAccumulates) {
  Engine engine;
  for (int i = 0; i < 7; ++i) engine.at(i, [] {});
  engine.run();
  EXPECT_EQ(engine.processed(), 7u);
}

TEST(Engine, RejectsEmptyCallback) {
  Engine engine;
  EXPECT_THROW(engine.at(1.0, Engine::Callback{}), util::Error);
}

TEST(Engine, CancelOfAlreadyFiredEventReturnsFalse) {
  Engine engine;
  bool fired = false;
  const auto id = engine.at(1.0, [&] { fired = true; });
  engine.run();
  ASSERT_TRUE(fired);
  EXPECT_FALSE(engine.cancel(id));  // fired events are not cancellable
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine engine;
  Time fired = -1.0;
  std::uint64_t fired_seq = 0, later_seq = 0;
  engine.at(4.0, [&] {
    engine.in(-2.5, [&] {
      fired = engine.now();
      fired_seq = engine.processed();
    });
    // A same-time event scheduled after it must also fire after it.
    engine.in(0.0, [&] { later_seq = engine.processed(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired, 4.0);  // clamped, not scheduled in the past
  EXPECT_LT(fired_seq, later_seq);
}

TEST(Engine, MixedAtAndInTiesFireInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.at(1.0, [&] {
    engine.at(3.0, [&] { order.push_back(0); });
    engine.in(2.0, [&] { order.push_back(1); });
    engine.at(3.0, [&] { order.push_back(2); });
    engine.in(2.0, [&] { order.push_back(3); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, PostEventHookFiresAfterEveryProcessedEvent) {
  Engine engine;
  std::vector<Time> hook_times;
  int events = 0;
  engine.set_post_event_hook([&] { hook_times.push_back(engine.now()); });
  engine.at(1.0, [&] { ++events; });
  const auto cancelled = engine.at(2.0, [&] { ++events; });
  engine.at(3.0, [&] { ++events; });
  engine.cancel(cancelled);
  engine.run();
  EXPECT_EQ(events, 2);
  // Once per *processed* event, at that event's time; never for tombstones.
  EXPECT_EQ(hook_times, (std::vector<Time>{1.0, 3.0}));
  engine.set_post_event_hook({});  // clearing is accepted
  engine.at(4.0, [&] { ++events; });
  engine.run();
  EXPECT_EQ(events, 3);
  EXPECT_EQ(hook_times.size(), 2u);
}

TEST(Engine, StaleIdCannotCancelEventThatReusedItsSlot) {
  Engine engine;
  bool old_fired = false;
  bool new_fired = false;
  const auto old_id = engine.at(1.0, [&] { old_fired = true; });
  ASSERT_TRUE(engine.cancel(old_id));
  // The cancelled event's slot is free again; the next push takes it.
  const auto new_id = engine.at(1.0, [&] { new_fired = true; });
  ASSERT_EQ(new_id.slot, old_id.slot);
  ASSERT_NE(new_id.seq, old_id.seq);
  EXPECT_FALSE(engine.cancel(old_id));
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
  // Once fired, neither id cancels anything, even after the slot is reused.
  engine.at(2.0, [] {});
  EXPECT_FALSE(engine.cancel(old_id));
  EXPECT_FALSE(engine.cancel(new_id));
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, CancelChurnKeepsTimeInsertionOrderAndExactPending) {
  // Many events share a few timestamps; every round cancels some of the
  // pending ones and schedules more, so slots are recycled constantly and
  // stale heap entries pile up. The survivors must still fire in (time,
  // insertion) order, and pending() must count exactly the live events.
  Engine engine;
  std::vector<std::pair<Time, int>> fired;
  std::vector<std::pair<Engine::EventId, std::pair<Time, int>>> live;
  std::uint64_t lcg = 12345;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  int label = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 20; ++i) {
      const Time t = static_cast<Time>(next() % 4);
      const int id = label++;
      const auto event =
          engine.at(t, [&fired, t, id] { fired.push_back({t, id}); });
      live.push_back({event, {t, id}});
    }
    for (int i = 0; i < 15 && !live.empty(); ++i) {
      const std::size_t victim = next() % live.size();
      ASSERT_TRUE(engine.cancel(live[victim].first));
      EXPECT_FALSE(engine.cancel(live[victim].first));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_EQ(engine.pending(), live.size());
  }
  std::vector<std::pair<Time, int>> expected;
  for (const auto& entry : live) expected.push_back(entry.second);
  std::sort(expected.begin(), expected.end());
  engine.run();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, DeterministicAcrossRuns) {
  auto trace_of = [] {
    Engine engine;
    std::vector<double> times;
    for (int i = 0; i < 50; ++i) {
      engine.at(static_cast<double>((i * 37) % 11), [&times, &engine] {
        times.push_back(engine.now());
      });
    }
    engine.run();
    return times;
  };
  EXPECT_EQ(trace_of(), trace_of());
}

TEST(Engine, TraceProbeFiresAfterPostEventHookWithCumulativeCount) {
  Engine engine;
  std::vector<std::string> calls;
  std::vector<std::pair<Time, std::uint64_t>> probes;
  engine.set_post_event_hook([&] { calls.push_back("hook"); });
  engine.set_trace_probe([&](Time now, std::uint64_t processed) {
    calls.push_back("probe");
    probes.emplace_back(now, processed);
  });
  engine.at(1.0, [&] { calls.push_back("event"); });
  const auto cancelled = engine.at(2.0, [&] { calls.push_back("event"); });
  engine.at(3.0, [&] { calls.push_back("event"); });
  engine.cancel(cancelled);
  engine.run();
  EXPECT_EQ(calls, (std::vector<std::string>{"event", "hook", "probe",
                                             "event", "hook", "probe"}));
  EXPECT_EQ(probes, (std::vector<std::pair<Time, std::uint64_t>>{
                        {1.0, 1u}, {3.0, 2u}}));
}

TEST(Engine, RunUntilBeyondTheLastEventKeepsNowAtThatEvent) {
  // Only a pending event past `until` moves the clock to `until`; a queue
  // that drains first leaves now() at the last processed event.
  Engine engine;
  engine.at(2.0, [] {});
  EXPECT_EQ(engine.run(10.0), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.at(20.0, [] {});
  EXPECT_EQ(engine.run(10.0), 0u);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, StepProcessesExactlyOneEventPerCall) {
  Engine engine;
  std::vector<int> order;
  engine.at(2.0, [&] { order.push_back(2); });
  engine.at(1.0, [&] {
    order.push_back(1);
    engine.stop();  // step() ignores stop requests
  });
  ASSERT_TRUE(engine.step());
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  EXPECT_EQ(engine.pending(), 1u);
  ASSERT_TRUE(engine.step());
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.processed(), 2u);
}

TEST(Engine, RejectsNanTimes) {
  Engine engine;
  const Time nan = std::numeric_limits<Time>::quiet_NaN();
  EXPECT_THROW(engine.at(nan, [] {}), util::Error);
  EXPECT_THROW(engine.in(nan, [] {}), util::Error);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, EventIdsIdentifyOneScheduledEvent) {
  Engine engine;
  std::vector<int> fired;
  const auto first = engine.at(1.0, [&] { fired.push_back(0); });
  const auto second = engine.at(1.0, [&] { fired.push_back(1); });
  EXPECT_TRUE(first == first);
  EXPECT_FALSE(first == second);  // same time, distinct events
  EXPECT_TRUE(engine.cancel(second));
  engine.run();
  EXPECT_EQ(fired, (std::vector<int>{0}));
}

}  // namespace
}  // namespace flotilla::sim
