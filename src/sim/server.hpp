// Serialized service center (c-server FIFO queue).
//
// Models the control-plane bottlenecks whose queueing behaviour drives every
// throughput result in the paper: slurmctld's step-creation RPC handler,
// a Flux instance's rank-0 broker loop, Dragon's central dispatcher. Work
// items carry their own service time; the center runs `parallelism` of them
// concurrently and the rest wait FIFO. Items in service live in a slot
// vector owned by the server, so a completion event captures only
// (this, slot) and fits std::function's inline buffer: a steady-state
// round trip schedules its event without allocating.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/engine.hpp"

namespace flotilla::sim {

class Server {
 public:
  using Done = std::function<void()>;

  Server(Engine& engine, int parallelism = 1);

  // Enqueues a work item that will occupy one server slot for
  // `service_time` virtual seconds, then fire `done`.
  void submit(Time service_time, Done done);

  // Items waiting for a slot (excludes items in service).
  std::size_t backlog() const { return queue_.size(); }
  int in_service() const { return busy_; }
  bool idle() const { return busy_ == 0 && queue_.empty(); }

  // Cumulative observability for overhead accounting.
  std::uint64_t completed() const { return completed_; }
  Time busy_time() const;

 private:
  struct Item {
    Time service_time;
    Done done;
  };

  void start(Time service_time, Done done);
  void start_next();
  void finish(std::uint32_t slot);

  Engine& engine_;
  int parallelism_;
  int busy_ = 0;
  std::uint64_t completed_ = 0;
  Time busy_accum_ = 0.0;
  std::deque<Item> queue_;
  std::vector<Done> in_service_;  // indexed by slot
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace flotilla::sim
