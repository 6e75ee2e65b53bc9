// Scribe: feeds the journal from the runtime's observation points.
//
// The scribe rides the same hooks the InvariantMonitor uses — the task
// transition hook (every lifecycle edge) and Cluster::Observer (every
// allocate/release, journaled as per-node free-capacity deltas) — plus
// harness-driven records (header, pilot-ready, fault injections, end
// summary). Because every record is emitted synchronously from the
// deterministic event loop, the journal bytes are a pure function of the
// seed: same spec, same bytes (the recovery oracle's foundation).
//
// Two modes:
//   record    append every record to the journal (a normal durable run).
//   validate  the recovery path. Constructed with a journal prefix, which
//             it encodes once into bytes, the scribe re-executes the run
//             and compares each line it appends against the next prefix
//             line, byte for byte. The first mismatch is captured as a
//             Divergence (a recovery bug: the restored state does not
//             reproduce the journaled history). Once the prefix
//             is exhausted the run "goes live" — replay_complete() — and
//             keeps appending, so a recovered journal grows into exactly
//             the bytes an uninterrupted run would have produced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "core/task_manager.hpp"
#include "journal/journal.hpp"
#include "journal/record.hpp"

namespace flotilla::journal {

// First record that failed prefix validation during recovery.
struct Divergence {
  std::size_t index = 0;  // record index in the journal (0 = header)
  std::string expected;   // the journaled line
  std::string got;        // the line the re-execution produced
};

class Scribe : public platform::Cluster::Observer {
 public:
  // Record mode: every emitted record is appended.
  explicit Scribe(core::Session& session);
  // Validate mode: emitted records are checked against `prefix` first
  // (recovery replay); appending continues either way. The prefix is
  // encoded on construction; the vector is not kept.
  Scribe(core::Session& session, const std::vector<Record>& prefix);
  ~Scribe() override;

  Scribe(const Scribe&) = delete;
  Scribe& operator=(const Scribe&) = delete;

  // Registers the task transition hook; call before submitting tasks
  // (hooks only cover tasks submitted after registration).
  void attach(core::TaskManager& tmgr);

  // Harness-driven records.
  void record_header(std::uint64_t seed, std::string spec);
  void record_ready();
  void record_fault(std::string kind, std::string backend, std::int64_t index,
                    std::int64_t count);
  void record_end(std::int64_t done, std::int64_t failed,
                  std::int64_t canceled, std::uint64_t events);

  // platform::Cluster::Observer — journals the free-capacity delta of the
  // changed node (negative = allocation claimed capacity).
  void node_changed(platform::NodeId node) override;

  const Writer& writer() const { return writer_; }
  std::size_t records() const { return writer_.records(); }

  // Validation state (validate mode; trivially true/false in record mode).
  bool replay_complete() const { return cursor_ >= prefix_records_; }
  std::size_t cursor() const { return cursor_; }
  bool diverged() const { return diverged_; }
  const Divergence& divergence() const { return divergence_; }

 private:
  void emit(const Record& record);

  core::Session& session_;
  obs::TraceHandle obs_trace_;
  Writer writer_;

  // The transition hook's record, reused so that assigning into its
  // strings keeps their capacity from one edge to the next.
  Record transition_;

  // The journal prefix as encoded lines, and the validation cursor over
  // it (empty in record mode; released once the replay is complete).
  std::string prefix_;
  std::size_t prefix_records_ = 0;
  std::size_t prefix_pos_ = 0;  // byte offset of line cursor_
  std::size_t cursor_ = 0;
  bool diverged_ = false;
  Divergence divergence_;

  // Last observed free capacity per node, to turn node_changed pings into
  // journaled deltas.
  std::vector<std::int64_t> free_cores_;
  std::vector<std::int64_t> free_gpus_;
};

}  // namespace flotilla::journal
