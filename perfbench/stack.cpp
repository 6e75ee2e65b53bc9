#include "stack.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "alloc_counter.hpp"
#include "core/flotilla.hpp"
#include "dragon/dragon_backend.hpp"
#include "flux/flux_backend.hpp"
#include "ingress/ingress.hpp"
#include "instrument.hpp"
#include "journal/recovery.hpp"
#include "journal/scribe.hpp"
#include "obs/report.hpp"
#include "platform/spec_config.hpp"
#include "reference.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

using namespace flotilla;

namespace {

using Clock = std::chrono::steady_clock;

// Simulator events per drain segment; a reference slice runs between
// segments.
constexpr std::uint64_t kDrainSliceEvents = 16384;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct WorkloadSpec {
  int nodes = 0;
  std::vector<core::BackendSpec> backends;
  int tasks = 0;
  double duration = 0.0;
  bool mixed = false;    // alternate executable and function tasks
  bool service = false;  // open-loop ingress and the journal
};

// flux-null: per-task control-plane path; shallow calendar, trivial
// placement. flux-saturated: the paper's headline RP+Flux configuration,
// two full waves of 1,024 x 56 cores, so ~57k tasks run at once.
// hybrid-service: ingress, the two-runtime router, dragon and the journal
// write path. recover replays hybrid-service's journal.
WorkloadSpec workload_spec(const std::string& name) {
  if (name == "flux-null") {
    return {64, {{.type = "flux", .partitions = 1, .nodes = 64}}, 100000,
            0.0, false, false};
  }
  if (name == "flux-saturated") {
    return {1024, {{.type = "flux", .partitions = 16, .nodes = 1024}},
            2 * 1024 * 56, 180.0, false, false};
  }
  if (name == "hybrid-service" || name == "recover") {
    return {64,
            {{.type = "flux", .partitions = 4, .nodes = 32},
             {.type = "dragon", .partitions = 1, .nodes = 32}},
            100000, 0.0, true, true};
  }
  util::raise("unknown workload '", name, "'");
}

ingress::IngressConfig ingress_config(int tasks) {
  ingress::IngressConfig config;
  config.clients = 1000000;
  config.total_offers = tasks;
  config.arrival = ingress::ArrivalConfig::parse("poisson:500");
  config.admit = ingress::AdmitConfig::parse("defer:256");
  return config;
}

std::string settings_line(std::uint64_t seed) {
  return "tool=flotilla-perfbench;workload=hybrid-service;seed=" +
         std::to_string(seed);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size = 0.0;
  double resident = 0.0;
  statm >> size >> resident;
  FLOT_CHECK(statm.good(), "cannot read /proc/self/statm");
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

// Everything one run owns. Member order is destruction order reversed:
// the session outlives every component that observes it.
struct Stack {
  std::unique_ptr<core::Session> session;
  std::unique_ptr<journal::Scribe> scribe;
  std::unique_ptr<core::PilotManager> pmgr;
  core::Pilot* pilot = nullptr;
  std::unique_ptr<core::Agent> agent;  // kForward only
  core::Agent* active = nullptr;
  std::unique_ptr<core::TaskManager> tmgr;
  std::unique_ptr<ingress::IngressService> ingress;
  std::vector<core::TaskDescription> tasks;
  double recovery_s = 0.0;  // replay-validation set-up, counted as timed
};

// Pilot::build_backends for the workloads above, with every backend
// wrapped so the benchmark can time it.
void build_forward_agent(Stack& stack, const RunOptions& options,
                         SpanRecorder* spans) {
  auto& session = *stack.session;
  const auto& cal = session.calibration();
  const auto& description = stack.pilot->description();
  stack.agent = std::make_unique<core::Agent>(
      session, stack.pilot->allocation(), description.trace_tasks,
      description.router);
  platform::NodeId next = stack.pilot->allocation().first;
  for (const auto& spec : description.backends) {
    const platform::NodeRange span{next, spec.nodes};
    next += spec.nodes;
    if (spec.type == "flux") {
      stack.agent->add_backend(
          std::make_unique<ForwardingBackend>(
              std::make_unique<flux::FluxBackend>(
                  session.engine(), session.cluster(), span, spec.partitions,
                  cal.flux, session.seed(), &stack.pilot->srun_ceiling(),
                  spec.flux_backfill_depth),
              spans, Layer::kFluxSubmit, options.inject_ns, options.seed),
          cal.core.submit_cost_flux);
    } else {
      stack.agent->add_backend(
          std::make_unique<ForwardingBackend>(
              std::make_unique<dragon::DragonBackend>(
                  session.engine(), session.cluster(), span, cal.dragon,
                  session.seed(), spec.partitions),
              spans, Layer::kDragonSubmit, 0.0, options.seed),
          cal.core.submit_cost_dragon);
    }
  }
}

std::unique_ptr<Stack> build_stack(const WorkloadSpec& w,
                                   const RunOptions& options,
                                   SpanRecorder* spans,
                                   const journal::RecoveryManager* recovery) {
  auto stack = std::make_unique<Stack>();
  stack->session = std::make_unique<core::Session>(
      platform::spec_by_name("frontier"), w.nodes, options.seed,
      platform::frontier_calibration(), /*engine_shards=*/1,
      /*engine_threads=*/1);
  auto& session = *stack->session;
  if (options.tracing) {
    session.enable_tracing(static_cast<std::size_t>(
        w.tasks * options.trace_records_per_task + 65536));
  }
  if (w.service) {
    if (recovery != nullptr) {
      const auto start = Clock::now();
      stack->scribe =
          std::make_unique<journal::Scribe>(session, recovery->prefix());
      stack->recovery_s = seconds_since(start);
    } else {
      stack->scribe = std::make_unique<journal::Scribe>(session);
    }
    stack->scribe->record_header(options.seed, settings_line(options.seed));
  }

  stack->pmgr = std::make_unique<core::PilotManager>(session);
  core::PilotDescription description;
  description.nodes = w.nodes;
  description.backends = w.backends;
  stack->pilot = &stack->pmgr->submit(std::move(description));

  bool ready = false;
  std::string error;
  const auto on_ready = [&](bool ok, const std::string& e) {
    ready = ok;
    error = e;
  };
  if (options.stack == StackKind::kPilot) {
    stack->pilot->launch(on_ready);
    stack->active = &stack->pilot->agent();
  } else {
    build_forward_agent(*stack, options, spans);
    stack->agent->bootstrap(on_ready);
    stack->active = stack->agent.get();
  }
  session.run(600.0);
  if (!ready) util::raise("pilot failed to launch: ", error);
  if (stack->scribe) stack->scribe->record_ready();

  stack->tmgr = std::make_unique<core::TaskManager>(session, *stack->active);
  if (stack->scribe) stack->scribe->attach(*stack->tmgr);
  stack->tmgr->on_complete([](const core::Task&) {});
  stack->tasks = w.mixed ? workloads::mixed_tasks(w.tasks, w.duration)
                         : workloads::uniform_tasks(w.tasks, w.duration, 1);
  if (w.service) {
    stack->ingress = std::make_unique<ingress::IngressService>(
        session, *stack->tmgr, ingress_config(w.tasks));
  }
  return stack;
}

// Exact nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

void collect_virtual(Stack& stack, RunResult& result) {
  auto& metrics = stack.active->profiler().metrics();
  result.done = metrics.tasks_done();
  result.failed = metrics.tasks_failed();
  result.submitted = stack.tmgr->submitted();
  auto& v = result.virt;
  v["tasks_done"] = static_cast<double>(metrics.tasks_done());
  v["tasks_failed"] = static_cast<double>(metrics.tasks_failed());
  v["sim_tasks_per_s"] = metrics.avg_throughput();
  v["sim_makespan_s"] = metrics.makespan();
  v["sim_core_utilization"] =
      metrics.core_utilization(stack.pilot->total_cores());
  v["events"] = static_cast<double>(stack.session->engine().processed());
  // Submit->launch: from the TaskManager accepting the task (ingress:
  // the batch commit of an accepted offer) to its first RUNNING state,
  // exact over every task. The ingress's own histogram rounds to 10%
  // buckets, too coarse to tell two runs apart.
  std::vector<double> latency;
  latency.reserve(result.submitted);
  stack.tmgr->for_each_task([&](const core::Task& task) {
    sim::Time submitted = 0.0;
    sim::Time running = 0.0;
    if (task.state_time(core::TaskState::kTmgrScheduling, submitted) &&
        task.state_time(core::TaskState::kRunning, running)) {
      latency.push_back(running - submitted);
    }
  });
  v["submit_launch_samples"] = static_cast<double>(latency.size());
  v["sim_submit_launch_p50_s"] = percentile(latency, 0.50);
  v["sim_submit_launch_p999_s"] = percentile(latency, 0.999);
  result.offered = result.submitted;
  if (stack.ingress) {
    const auto stats = stack.ingress->stats();
    const auto& offer_latency = stack.ingress->submit_to_launch();
    result.offered = stats.offered;
    result.rejected = stats.rejected;
    v["ingress_offer_launch_p50_s"] = offer_latency.percentile(0.50);
    v["ingress_offer_launch_p999_s"] = offer_latency.percentile(0.999);
    v["ingress_offered"] = static_cast<double>(stats.offered);
    v["ingress_accepted"] = static_cast<double>(stats.accepted);
    v["ingress_rejected"] = static_cast<double>(stats.rejected);
    v["ingress_deferred"] = static_cast<double>(stats.deferred);
    v["ingress_batches"] = static_cast<double>(stats.batches);
  }
  if (stack.scribe) {
    result.journal = stack.scribe->writer().bytes();
    v["journal_records"] = static_cast<double>(stack.scribe->records());
    v["journal_bytes"] = static_cast<double>(result.journal.size());
  }
}

void collect_trace(core::Session& session, RunResult& result) {
  auto& layer = result.layer;
  const auto& tracer = *session.tracer();
  const double tasks = static_cast<double>(std::max<std::uint64_t>(
      result.done + result.failed, 1));
  std::uint64_t placement_attempts = 0;
  tracer.for_each([&](const obs::Record& r) {
    if (r.kind == obs::RecordKind::kInstant &&
        r.type == obs::SpanType::kPlacementAttempt) {
      ++placement_attempts;
    }
  });
  layer["sched.placement_attempts_per_task"] =
      static_cast<double>(placement_attempts) / tasks;
  layer["obs.records_per_task"] =
      static_cast<double>(tracer.recorded()) / tasks;
  layer["obs.dropped"] = static_cast<double>(tracer.dropped());
  layer["obs.recorded"] = static_cast<double>(tracer.recorded());

  const auto report = obs::OverheadReport::from_trace(tracer);
  layer["model.rp_core_s_per_task"] = report.rp_core_total() / tasks;
  layer["model.scheduler_wait_s_per_task"] =
      report.scheduler_wait_total() / tasks;
  layer["model.launch_s_p99"] =
      report.histogram(obs::SpanType::kTaskLaunch).p99();
  std::ostringstream cells;
  cells.precision(17);
  for (const auto& [key, stats] : report.cells()) {
    cells << obs::to_string(key.first) << ' ' << key.second << ' '
          << stats.count << ' ' << stats.total << ' ' << stats.min << ' '
          << stats.max << '\n';
  }
  cells << "unmatched_ends " << report.unmatched_ends() << " unclosed_begins "
        << report.unclosed_begins() << '\n';
  result.overhead = cells.str();
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FLOT_CHECK(in.good(), "cannot open '", path, "'");
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string crash_cut(const std::string& full, std::uint64_t seed) {
  std::vector<std::size_t> ends;  // offset one past each record's newline
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') ends.push_back(i + 1);
  }
  FLOT_CHECK(ends.size() >= 8, "journal too short to cut");
  // The crash point lies within 1% of the journal's midpoint. Recovery
  // work and memory grow with the surviving prefix, so a wider draw would
  // make the seed, not the code, set the metrics.
  sim::RngStream rng(seed, "perfbench.crash");
  const auto n = static_cast<std::int64_t>(ends.size());
  const auto keep = rng.uniform_int((49 * n) / 100, (51 * n) / 100);
  std::string cut = full.substr(0, ends[static_cast<std::size_t>(keep - 1)]);
  // A crash mid-write loses a few trailing bytes of the last record.
  cut.resize(cut.size() - static_cast<std::size_t>(rng.uniform_int(0, 48)));
  return cut;
}

std::string produce_journal(std::uint64_t seed) {
  RunOptions options;
  options.workload = "hybrid-service";
  options.seed = seed;
  RunResult result = run_workload(options);
  FLOT_CHECK(result.errors.empty(), "hybrid-service run failed: ",
             result.errors.front());
  return std::move(result.journal);
}

RunResult run_workload(const RunOptions& options) {
  const WorkloadSpec w = workload_spec(options.workload);
  const bool recover = options.workload == "recover";
  RunResult result;

  // Only the cut journal is held during the run, as after a real crash;
  // the uninterrupted one is read again for the comparison at the end.
  std::string cut;
  if (recover) cut = crash_cut(read_file(options.journal), options.seed);

  std::unique_ptr<SpanRecorder> spans;
  if (options.spans) {
    spans = std::make_unique<SpanRecorder>(
        static_cast<std::size_t>(w.tasks) * 4 + 1024);
  }

  // Reference slices sample the host's speed next to every timed
  // interval: around set-up, around the journal parse, and between drain
  // segments of kDrainSliceEvents simulator events. The run's host times
  // are reported with the mean slice time (RunResult::ref_slice_s).
  const double rss_before_reference = current_rss_mb();
  Reference reference(w.service);
  const double reference_mb = current_rss_mb() - rss_before_reference;
  double ref_s = 0.0;
  int ref_slices = 0;
  bool counting = false;  // the allocation counter skips reference slices
  const auto sample = [&] {
    alloc_counting(false);
    ref_s += reference.slice();
    ++ref_slices;
    alloc_counting(counting);
  };

  // Recovery starts by parsing the surviving journal; that is timed.
  std::unique_ptr<journal::RecoveryManager> recovery;
  double parse_s = 0.0;
  if (recover) {
    sample();
    const auto start = Clock::now();
    recovery = std::make_unique<journal::RecoveryManager>(cut);
    parse_s = seconds_since(start);
    sample();
    FLOT_CHECK(recovery->seed() == options.seed &&
                   recovery->spec_line() == settings_line(options.seed),
               "journal was recorded with different settings");
    cut.clear();
    cut.shrink_to_fit();
  }
  // One cold set-up per process, as a user's run pays it. Copying the
  // replay prefix is recovery work, timed with the run and not set-up.
  sample();
  const auto setup_start = Clock::now();
  const std::unique_ptr<Stack> stack =
      build_stack(w, options, spans.get(), recovery.get());
  result.setup_s = seconds_since(setup_start) - stack->recovery_s;
  sample();
  auto& session = *stack->session;

  std::size_t peak_pending = 0;
  std::uint64_t segment_events = 0;
  bool paused = false;
  session.engine().set_post_event_hook([&] {
    if (options.spans) {
      peak_pending = std::max(peak_pending, session.engine().pending());
    }
    if (++segment_events == kDrainSliceEvents) {
      segment_events = 0;
      paused = true;
      session.engine().stop();
    }
  });
  counting = options.spans;
  alloc_counting(counting);
  const AllocCounts allocs_before = alloc_counts();
  const std::uint64_t events_before = session.engine().processed();
  auto start = Clock::now();
  if (stack->ingress) {
    // Submits happen inside ingress callbacks, under the drain span.
    stack->ingress->start(std::move(stack->tasks));
  } else {
    ScopedSpan span(spans.get(), Layer::kCoreSubmit);
    stack->tmgr->submit(std::move(stack->tasks));
  }
  double timed_s = parse_s + stack->recovery_s;
  do {
    paused = false;
    {
      ScopedSpan span(spans.get(), Layer::kDrain);
      session.run();
    }
    if (paused) {
      timed_s += seconds_since(start);
      sample();
      start = Clock::now();
    }
  } while (paused);
  if (stack->scribe) {
    const auto& m = stack->active->profiler().metrics();
    stack->scribe->record_end(static_cast<std::int64_t>(m.tasks_done()),
                              static_cast<std::int64_t>(m.tasks_failed()), 0,
                              session.engine().processed());
  }
  result.timed_s = timed_s + seconds_since(start);
  sample();
  result.ref_slice_s = ref_s / ref_slices;
  result.nominal_ref_s = reference.nominal_slice_s();
  const AllocCounts allocs = alloc_counts();
  alloc_counting(false);
  session.engine().set_post_event_hook({});
  result.peak_rss_mb = peak_rss_mb() - reference_mb;

  collect_virtual(*stack, result);
  if (recover) {
    result.virt["journal_prefix_records"] =
        static_cast<double>(recovery->prefix().size());
  }

  // Correctness checks that need the live stack.
  if (result.done + result.failed != result.submitted) {
    result.errors.push_back(
        util::cat("only ", result.done + result.failed, " of ",
                  result.submitted, " submitted tasks reached a final state"));
  }
  if (stack->ingress) {
    const auto stats = stack->ingress->stats();
    if (!stats.conserved() || stats.offered != static_cast<std::uint64_t>(
                                                   w.tasks)) {
      result.errors.push_back("ingress offers not conserved");
    }
    if (stats.accepted != result.submitted) {
      result.errors.push_back("accepted offers != submitted tasks");
    }
  }
  if (recover) {
    if (stack->scribe->diverged()) {
      const auto& d = stack->scribe->divergence();
      result.errors.push_back(util::cat("recovery diverged at record #",
                                        d.index));
    } else if (!stack->scribe->replay_complete()) {
      result.errors.push_back(util::cat(
          "recovery ended after ", stack->scribe->cursor(), " of ",
          recovery->prefix().size(), " journaled records"));
    }
    if (result.journal != read_file(options.journal)) {
      result.errors.push_back(
          "recovered journal differs from the uninterrupted run's");
    }
  }

  if (options.spans) {
    const double tasks = static_cast<double>(
        std::max<std::uint64_t>(result.done + result.failed, 1));
    const auto self_s = spans->self_seconds();
    const auto self_us = [&](Layer layer) {
      return self_s[static_cast<std::size_t>(layer)] * 1e6 / tasks;
    };
    auto& l = result.layer;
    l["sim.events_per_task"] =
        static_cast<double>(session.engine().processed() - events_before) /
        tasks;
    l["sim.peak_pending"] = static_cast<double>(peak_pending);
    l["sim.self_us_per_task"] = self_us(Layer::kDrain);
    l["core.submit_us_per_task"] = self_us(Layer::kCoreSubmit);
    l["core.handler_us_per_task"] = self_us(Layer::kCoreHandler);
    l["flux.submit_us_per_task"] = self_us(Layer::kFluxSubmit);
    l["dragon.submit_us_per_task"] = self_us(Layer::kDragonSubmit);
    l["alloc.count_per_task"] =
        static_cast<double>(allocs.count - allocs_before.count) / tasks;
    l["alloc.bytes_per_task"] =
        static_cast<double>(allocs.bytes - allocs_before.bytes) / tasks;
    if (!options.spans_csv.empty()) {
      std::ofstream out(options.spans_csv);
      spans->write_csv(out);
      if (!out) result.errors.push_back("cannot write the span log");
    }
  }
  if (options.tracing) {
    collect_trace(session, result);
  }
  return result;
}

}  // namespace perfbench
