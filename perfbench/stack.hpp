// The benchmark's four workloads and the serial RP stack each one runs on
// (engine_shards=1, engine_threads=1, as in every paper figure).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class StackKind {
  kPilot,    // PilotManager/Pilot, exactly as a user builds it
  kForward,  // the same agent assembled by hand, every backend wrapped in
             // a ForwardingBackend
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  StackKind stack = StackKind::kPilot;
  bool tracing = false;  // Session::enable_tracing
  double trace_records_per_task = 32.0;  // sizes the trace ring
  bool spans = false;    // wall-clock spans, post-event hook, alloc counter
  double inject_ns = 0.0;  // mean busy-wait per flux submit (kForward)
  std::string journal;     // recover: the uninterrupted hybrid-service journal
  std::string spans_csv;   // where to write the span log (spans only)
};

struct RunResult {
  double setup_s = 0.0;  // Session, pilot bootstrap, workload generation
  double timed_s = 0.0;  // submit to drain; recover: journal parse to drain
  // Mean Reference::slice() wall time over slices run around set-up and
  // between drain segments: the host's speed while this run was timed.
  double ref_slice_s = 0.0;
  double nominal_ref_s = 0.0;  // Reference::nominal_slice_s()
  std::uint64_t submitted = 0;  // tasks handed to the TaskManager
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t offered = 0;  // operations attempted: tasks or offers
  std::uint64_t rejected = 0;
  double peak_rss_mb = 0.0;  // without the Reference's resident memory
  // Virtual-time results; identical for a seed whatever is measured.
  std::map<std::string, double> virt;
  std::string journal;  // final journal bytes (service workloads)
  // OverheadReport cells, one line each (traced runs).
  std::string overhead;
  // Per-layer metrics (traced runs).
  std::map<std::string, double> layer;
  std::vector<std::string> errors;  // failed correctness checks
};

std::string read_file(const std::string& path);

// Builds the stack once and runs it.
RunResult run_workload(const RunOptions& options);

// The uninterrupted hybrid-service journal for `seed`.
std::string produce_journal(std::uint64_t seed);

// The journal `recover` starts from: `full` cut after a record drawn from
// the seed within 1% of the journal's midpoint, with a seeded torn tail.
std::string crash_cut(const std::string& full, std::uint64_t seed);

}  // namespace perfbench
