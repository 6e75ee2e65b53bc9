// A fixed reference workload that measures how fast the host runs code
// shaped like the simulator's at the moment it runs. It is built from the
// standard library only and never changes with the simulator, so a host
// time divided by the reference's time at the same moment compares across
// host states: a shared host's co-tenants slow both alike.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Reference {
 public:
  // Reference events per slice and, with `journal`, journal-shaped
  // records per slice (formatted and appended to an in-memory log).
  static constexpr std::uint64_t kSliceEvents = 4096;
  static constexpr std::uint64_t kSliceRecords = 12288;

  // Builds the reference state and runs it until warm. The workloads
  // that write or replay the journal spend about half their host time
  // on it and slow down more than the event loop alone on a loud host,
  // so their reference formats records too.
  explicit Reference(bool journal);

  // Runs one slice; returns its wall time [s].
  double slice();

  // The wall time of a slice at the nominal host speed: about its time
  // on a quiet 4-vCPU x86-64 KVM guest, where host times at the
  // reference speed read close to wall time. It only sets the unit.
  double nominal_slice_s() const;

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  struct Task {
    std::vector<double> states;  // ring of state-entry times
    std::uint64_t steps = 0;
    std::string backend;
  };

  void advance(const std::string& uid);
  double next_delay();
  void write_records();

  bool journal_;

  std::priority_queue<Event, std::vector<Event>, Later> calendar_;
  std::unordered_map<std::string, Task> tasks_;
  std::uint64_t seq_ = 0;
  std::uint64_t lcg_ = 0x9e3779b97f4a7c15ull;
  double now_ = 0.0;
  std::string log_;  // journal-shaped records, reused in place
};

}  // namespace perfbench
