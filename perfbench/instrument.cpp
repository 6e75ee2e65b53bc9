#include "instrument.hpp"

#include <chrono>
#include <ostream>

#include "util/error.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kDrain: return "sim.drain";
    case Layer::kCoreSubmit: return "core.submit";
    case Layer::kCoreHandler: return "core.handler";
    case Layer::kFluxSubmit: return "flux.submit";
    case Layer::kDragonSubmit: return "dragon.submit";
    case Layer::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder(std::size_t expected_spans) {
  spans_.reserve(expected_spans);
  open_.reserve(16);
}

std::int64_t SpanRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::begin(Layer layer) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<std::int32_t>(spans_.size()));
  spans_.push_back(Span{layer, parent, now_ns(), 0});
}

void SpanRecorder::end() {
  FLOT_CHECK(!open_.empty(), "span end without a begin");
  spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
  open_.pop_back();
}

SpanRecorder::PerLayer SpanRecorder::self_seconds() const {
  FLOT_CHECK(open_.empty(), "spans still open at the end of the run");
  std::vector<std::int64_t> self_ns(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self_ns[i] += s.end_ns - s.start_ns;
    if (s.parent >= 0) {
      self_ns[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  PerLayer out{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[static_cast<std::size_t>(spans_[i].layer)] +=
        static_cast<double>(self_ns[i]) * 1e-9;
  }
  return out;
}

void SpanRecorder::write_csv(std::ostream& out) const {
  out << "layer,parent,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << layer_name(s.layer) << ',' << s.parent << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  }
}

ForwardingBackend::ForwardingBackend(
    std::unique_ptr<flotilla::platform::TaskBackend> inner,
    SpanRecorder* spans, Layer submit_layer, double inject_mean_ns,
    std::uint64_t seed)
    : inner_(std::move(inner)),
      spans_(spans),
      submit_layer_(submit_layer),
      inject_mean_ns_(inject_mean_ns),
      rng_state_(seed ^ 0x9e3779b97f4a7c15ull) {}

void ForwardingBackend::submit(flotilla::platform::LaunchRequest request) {
  ScopedSpan span(spans_, submit_layer_);
  if (inject_mean_ns_ > 0.0) {
    // splitmix64 step; the wait is uniform on [0.5, 1.5] x the mean.
    std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    const auto wait = std::chrono::nanoseconds(
        static_cast<std::int64_t>(inject_mean_ns_ * (0.5 + u)));
    const auto until = std::chrono::steady_clock::now() + wait;
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  inner_->submit(std::move(request));
}

void ForwardingBackend::on_task_start(StartHandler handler) {
  if (spans_ == nullptr) {
    inner_->on_task_start(std::move(handler));
    return;
  }
  inner_->on_task_start(
      [spans = spans_, handler = std::move(handler)](const std::string& id) {
        ScopedSpan span(spans, Layer::kCoreHandler);
        handler(id);
      });
}

void ForwardingBackend::on_task_complete(CompletionHandler handler) {
  if (spans_ == nullptr) {
    inner_->on_task_complete(std::move(handler));
    return;
  }
  inner_->on_task_complete(
      [spans = spans_, handler = std::move(handler)](
          const flotilla::platform::LaunchOutcome& outcome) {
        ScopedSpan span(spans, Layer::kCoreHandler);
        handler(outcome);
      });
}

}  // namespace perfbench
