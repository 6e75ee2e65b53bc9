#include "reference.hpp"

#include <chrono>
#include <cstdio>

#include "util/error.hpp"

namespace perfbench {

namespace {

// Live reference tasks: the calendar holds one pending event per task.
// Their ~80 MB outgrow the per-core caches, as the simulator's task
// tables do; a run's peak_rss_mb leaves them out.
constexpr int kTasks = 262144;
constexpr std::size_t kStateRing = 8;
constexpr int kWarmSlices = 16;
// The record log is allocated and touched when the Reference is built,
// so its memory is in the resident set a run subtracts, and then
// rewritten from the start whenever it fills.
constexpr std::size_t kLogBytes = 32u << 20;
// Nominal wall time per reference event and per record (see
// Reference::nominal_slice_s): 6 ms per slice of events.
constexpr double kNominalEventS = 6.0e-3 / Reference::kSliceEvents;
constexpr double kNominalRecordS = 0.55e-6;

}  // namespace

Reference::Reference(bool journal) : journal_(journal) {
  if (journal_) {
    log_.assign(kLogBytes, '\0');
    log_.clear();
  }
  tasks_.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    std::string uid = "task.reference." + std::to_string(1000000 + i);
    tasks_[uid].states.assign(kStateRing, 0.0);
    calendar_.push({next_delay(), seq_++,
                    [this, uid] { advance(uid); }});
  }
  for (int i = 0; i < kWarmSlices; ++i) slice();
}

double Reference::next_delay() {
  lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(lcg_ >> 40) * 1e-6;
}

// One state transition: look the task up by uid, record the time, rename
// its backend now and then, and schedule its next transition with a
// callback that owns a copy of the uid (an allocation per event, as the
// simulator's callbacks make).
void Reference::advance(const std::string& uid) {
  Task& task = tasks_.at(uid);
  task.states[task.steps % kStateRing] = now_;
  if (++task.steps % 4 == 0) {
    task.backend = "flux.partition." + std::to_string(task.steps % 16);
  }
  calendar_.push({now_ + next_delay(), seq_++,
                  [this, uid] { advance(uid); }});
}

// Journal-shaped records: fixed-precision times and a uid per line, as
// journal::Record::encode writes them.
void Reference::write_records() {
  char line[128];
  for (std::uint64_t i = 0; i < kSliceRecords; ++i) {
    lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
    const int n = std::snprintf(
        line, sizeof line, "t=%.9f|uid=task.reference.%07u|state=%u|h=%08x\n",
        now_ + static_cast<double>(i) * 1e-3,
        static_cast<unsigned>(lcg_ >> 45), static_cast<unsigned>(i % 9),
        static_cast<unsigned>(lcg_ >> 13));
    if (log_.size() + static_cast<std::size_t>(n) > kLogBytes) log_.clear();
    log_.append(line, static_cast<std::size_t>(n));
  }
}

double Reference::nominal_slice_s() const {
  return static_cast<double>(kSliceEvents) * kNominalEventS +
         (journal_ ? static_cast<double>(kSliceRecords) * kNominalRecordS
                   : 0.0);
}

double Reference::slice() {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kSliceEvents; ++i) {
    Event event = std::move(const_cast<Event&>(calendar_.top()));
    calendar_.pop();
    now_ = event.time;
    event.callback();
  }
  if (journal_) write_records();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  FLOT_CHECK(calendar_.size() == static_cast<std::size_t>(kTasks),
             "reference calendar lost events");
  return seconds;
}

}  // namespace perfbench
