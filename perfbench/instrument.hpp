// Host-time instrumentation the benchmark attaches from outside the
// program: wall-clock spans around public calls into each layer, and a
// forwarding TaskBackend that times the backend's submit and the agent's
// start/completion handlers without changing the program.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "platform/backend.hpp"

namespace perfbench {

// One span kind per public call the benchmark wraps. The names are the
// per-layer metric prefixes.
enum class Layer : std::uint8_t {
  kDrain,         // Session::run() of the timed part (sim)
  kCoreSubmit,    // TaskManager::submit
  kCoreHandler,   // agent start/completion handlers, called by a backend
  kFluxSubmit,    // TaskBackend::submit on the flux backend
  kDragonSubmit,  // TaskBackend::submit on the dragon backend
  kCount,
};

const char* layer_name(Layer layer);

// In-memory span log. Spans nest strictly (each is a synchronous call),
// so a stack of open spans gives every span its parent.
class SpanRecorder {
 public:
  using PerLayer = std::array<double, static_cast<std::size_t>(Layer::kCount)>;

  explicit SpanRecorder(std::size_t expected_spans);

  void begin(Layer layer);
  void end();

  // Self time per layer [s]: each span's duration minus the part of it
  // its child spans cover.
  PerLayer self_seconds() const;
  // One line per span: layer,parent,start_ns,end_ns.
  void write_csv(std::ostream& out) const;

 private:
  struct Span {
    Layer layer;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static std::int64_t now_ns();

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* spans, Layer layer) : spans_(spans) {
    if (spans_) spans_->begin(layer);
  }
  ~ScopedSpan() {
    if (spans_) spans_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* spans_;
};

// Forwards every TaskBackend call to `inner`. With a recorder it times
// submit (as `submit_layer`) and the handlers the agent registers (as
// kCoreHandler). With `inject_mean_ns` > 0 it busy-waits before each
// submit for a seeded duration of that mean: the sensitivity check's
// synthetic slowdown of one layer.
class ForwardingBackend final : public flotilla::platform::TaskBackend {
 public:
  ForwardingBackend(std::unique_ptr<flotilla::platform::TaskBackend> inner,
                    SpanRecorder* spans, Layer submit_layer,
                    double inject_mean_ns, std::uint64_t seed);

  const std::string& name() const override { return inner_->name(); }
  bool accepts(flotilla::platform::TaskModality modality) const override {
    return inner_->accepts(modality);
  }
  bool self_scheduling() const override { return inner_->self_scheduling(); }
  flotilla::platform::NodeRange span() const override {
    return inner_->span();
  }
  bool supports_coscheduling() const override {
    return inner_->supports_coscheduling();
  }
  void bootstrap(ReadyHandler ready) override {
    inner_->bootstrap(std::move(ready));
  }
  void submit(flotilla::platform::LaunchRequest request) override;
  void on_task_start(StartHandler handler) override;
  void on_task_complete(CompletionHandler handler) override;
  void shutdown() override { inner_->shutdown(); }
  bool healthy() const override { return inner_->healthy(); }
  std::size_t inflight() const override { return inner_->inflight(); }
  bool quiescent() const override { return inner_->quiescent(); }
  std::string restore_summary() const override {
    return inner_->restore_summary();
  }
  void set_trace(flotilla::obs::TraceHandle handle) override {
    inner_->set_trace(handle);
  }

 private:
  std::unique_ptr<flotilla::platform::TaskBackend> inner_;
  SpanRecorder* spans_;
  Layer submit_layer_;
  double inject_mean_ns_;
  std::uint64_t rng_state_;
};

}  // namespace perfbench
