#include "sim/server.hpp"

#include "util/error.hpp"

namespace flotilla::sim {

Server::Server(Engine& engine, int parallelism)
    : engine_(engine), parallelism_(parallelism) {
  FLOT_CHECK(parallelism >= 1, "server parallelism must be >= 1, got ",
             parallelism);
}

void Server::submit(Time service_time, Done done) {
  FLOT_CHECK(service_time >= 0.0, "negative service time ", service_time);
  // A free slot and nobody waiting: start at once, which keeps FIFO order
  // and spares the queue a push and pop.
  if (busy_ < parallelism_ && queue_.empty()) {
    start(service_time, std::move(done));
    return;
  }
  queue_.push_back(Item{service_time, std::move(done)});
  start_next();
}

void Server::start(Time service_time, Done done) {
  std::uint32_t slot = static_cast<std::uint32_t>(in_service_.size());
  if (free_slots_.empty()) {
    in_service_.push_back(std::move(done));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_service_[slot] = std::move(done);
  }
  ++busy_;
  busy_accum_ += service_time;
  engine_.in(service_time, [this, slot] { finish(slot); });
}

void Server::start_next() {
  while (busy_ < parallelism_ && !queue_.empty()) {
    Item item = std::move(queue_.front());
    queue_.pop_front();
    start(item.service_time, std::move(item.done));
  }
}

void Server::finish(std::uint32_t slot) {
  // Moved out first: `done` may resubmit, which can grow in_service_.
  const Done done = std::move(in_service_[slot]);
  free_slots_.push_back(slot);
  --busy_;
  ++completed_;
  if (done) done();
  start_next();
}

Time Server::busy_time() const { return busy_accum_; }

}  // namespace flotilla::sim
