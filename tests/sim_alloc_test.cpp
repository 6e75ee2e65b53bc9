// Allocation regression for the serial event path. This binary replaces the
// global operator new with a counting one, which is why it is its own test
// executable: no other test runs under the counter.
//
// Once the calendar and server slot vectors have grown to their working
// size, a Server round trip whose `done` fits std::function's inline
// buffer must not touch the heap at all. A journal Writer encodes each record into a
// reused line, so it allocates only when that line or its buffer grows.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "journal/journal.hpp"
#include "journal/record.hpp"
#include "sim/engine.hpp"
#include "sim/server.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

// Allocations made by `fn`, which must not itself run gtest assertions.
template <typename F>
std::uint64_t allocations_during(F&& fn) {
  const std::uint64_t before = g_allocations;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations - before;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flotilla::sim {
namespace {

// A `done` that resubmits itself until its budget runs out: two pointers,
// trivially copyable, so std::function stores it inline.
struct Resubmit {
  Server* server;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) server->submit(0.5, *this);
  }
};
static_assert(sizeof(Resubmit) <= 16);

TEST(SimAlloc, ServerRoundTripAllocatesNothingInSteadyState) {
  Engine engine;
  Server server(engine, 2);
  // Warm-up: grows the calendar heap, the calendar and server slot
  // vectors and their free lists to their working size.
  int remaining = 1000;
  server.submit(1.0, Resubmit{&server, &remaining});
  server.submit(1.5, Resubmit{&server, &remaining});
  engine.run();
  ASSERT_TRUE(server.idle());

  remaining = 10000;
  const std::uint64_t events_before = engine.processed();
  const std::uint64_t allocations = allocations_during([&] {
    server.submit(1.0, Resubmit{&server, &remaining});
    server.submit(1.5, Resubmit{&server, &remaining});
    engine.run();
  });
  const std::uint64_t events = engine.processed() - events_before;
  EXPECT_GE(events, 10000u);
  EXPECT_EQ(allocations, 0u) << "over " << events << " events";
  EXPECT_TRUE(server.idle());
}

}  // namespace
}  // namespace flotilla::sim

namespace flotilla::journal {
namespace {

TEST(JournalAlloc, WriterAppendAllocatesOnlyToGrowItsBuffer) {
  // Field values past the small-string size, so a per-record temporary
  // line or field string would have to allocate.
  Record record = transition_record(0.0, "task.000000000001",
                                    "AGENT_STAGING_INPUT_PENDING",
                                    "AGENT_SCHEDULING", "flux.partition.12", 1);
  Writer writer;
  constexpr int kRecords = 10000;
  const std::uint64_t allocations = allocations_during([&] {
    for (int i = 0; i < kRecords; ++i) {
      record.time = 0.001 * i;
      record.attempt = i % 3;
      writer.append(record);
    }
  });
  EXPECT_EQ(writer.records(), static_cast<std::size_t>(kRecords));
  // The buffer grows by realloc, which this counter does not see; the
  // reused scratch line allocates once, on the first record.
  EXPECT_LE(allocations, 1u) << "over " << kRecords << " records";
  EXPECT_TRUE(read(writer.bytes()).intact());
}

}  // namespace
}  // namespace flotilla::journal
