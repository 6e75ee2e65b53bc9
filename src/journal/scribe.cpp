#include "journal/scribe.hpp"

#include <string_view>
#include <utility>

namespace flotilla::journal {

namespace {

// Snapshot of one node's free capacity, via the cluster's range aggregate
// so the scribe never reaches into Node internals.
std::int64_t node_free_cores(const platform::Cluster& cluster,
                             platform::NodeId node) {
  return cluster.free_cores(platform::NodeRange{node, 1});
}

std::int64_t node_free_gpus(const platform::Cluster& cluster,
                            platform::NodeId node) {
  return cluster.free_gpus(platform::NodeRange{node, 1});
}

}  // namespace

Scribe::Scribe(core::Session& session)
    : session_(session), obs_trace_(session.trace_handle()) {
  const int nodes = session_.cluster().size();
  free_cores_.reserve(nodes);
  free_gpus_.reserve(nodes);
  for (platform::NodeId n = 0; n < nodes; ++n) {
    free_cores_.push_back(node_free_cores(session_.cluster(), n));
    free_gpus_.push_back(node_free_gpus(session_.cluster(), n));
  }
  session_.cluster().add_observer(this);
}

Scribe::Scribe(core::Session& session, const std::vector<Record>& prefix)
    : Scribe(session) {
  for (const Record& record : prefix) record.encode_to(prefix_);
  prefix_records_ = prefix.size();
}

Scribe::~Scribe() { session_.cluster().remove_observer(this); }

void Scribe::attach(core::TaskManager& tmgr) {
  tmgr.on_transition([this](const core::Task& task, core::TaskState from,
                            core::TaskState to) {
    transition_.time = session_.now();
    transition_.uid = task.uid();
    transition_.from = core::to_string(from);
    transition_.to = core::to_string(to);
    transition_.backend = task.backend();
    transition_.attempt = task.attempts();
    emit(transition_);
  });
}

void Scribe::record_header(std::uint64_t seed, std::string spec) {
  emit(header_record(seed, std::move(spec)));
}

void Scribe::record_ready() { emit(ready_record(session_.now())); }

void Scribe::record_fault(std::string kind, std::string backend,
                          std::int64_t index, std::int64_t count) {
  emit(fault_record(session_.now(), std::move(kind), std::move(backend),
                    index, count));
}

void Scribe::record_end(std::int64_t done, std::int64_t failed,
                        std::int64_t canceled, std::uint64_t events) {
  emit(end_record(session_.now(), done, failed, canceled, events));
}

void Scribe::node_changed(platform::NodeId node) {
  const std::int64_t cores = node_free_cores(session_.cluster(), node);
  const std::int64_t gpus = node_free_gpus(session_.cluster(), node);
  const std::int64_t dc = cores - free_cores_[node];
  const std::int64_t dg = gpus - free_gpus_[node];
  free_cores_[node] = cores;
  free_gpus_[node] = gpus;
  // A notify with no net capacity change (e.g. a rejected probe) carries
  // no durable information — journaling it would only couple the record
  // stream to scheduler-internal probing patterns.
  if (dc == 0 && dg == 0) return;
  emit(alloc_record(session_.now(), node, dc, dg));
}

void Scribe::emit(const Record& record) {
  const std::size_t start = writer_.bytes().size();
  writer_.append(record);
  if (!diverged_ && cursor_ < prefix_records_) {
    const std::string_view got = writer_.bytes().substr(start);
    const std::size_t end = prefix_.find('\n', prefix_pos_) + 1;
    const std::string_view expected =
        std::string_view(prefix_).substr(prefix_pos_, end - prefix_pos_);
    if (expected != got) {
      diverged_ = true;
      divergence_ = Divergence{cursor_, std::string(expected),
                               std::string(got)};
    }
    prefix_pos_ = end;
    if (++cursor_ == prefix_records_) prefix_ = std::string();
  }
  obs_trace_.instant(obs::SpanType::kJournal, "journal",
                     to_string(record.type), 1.0);
}

}  // namespace flotilla::journal
