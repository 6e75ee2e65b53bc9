// Tests for the simulation fuzzing harness (src/check/): spec round-trip,
// generator validity/determinism, clean runs over generated scenarios, the
// invariant checkers catching a deliberately injected over-commit bug, and
// the shrinker reducing that failure to a minimal replayable spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "check/generator.hpp"
#include "check/invariants.hpp"
#include "check/runner.hpp"
#include "check/shrinker.hpp"
#include "check/spec.hpp"
#include "sim/random.hpp"

namespace flotilla::check {
namespace {

bool has_violation(const RunResult& result, const std::string& invariant) {
  return std::any_of(
      result.violations.begin(), result.violations.end(),
      [&](const Violation& v) { return v.invariant == invariant; });
}

// ------------------------------------------------------------ spec codec

TEST(ScenarioSpec, RoundTripsThroughString) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    const auto spec = generate_scenario(rng);
    const auto line = spec.to_string();
    EXPECT_EQ(ScenarioSpec::parse(line).to_string(), line);
  }
}

TEST(ScenarioSpec, RoundTripsFaultsAndBugField) {
  ScenarioSpec spec;
  spec.seed = 99;
  spec.nodes = 6;
  spec.backends = {{.type = "flux", .partitions = 2, .nodes = 3,
                    .flux_backfill_depth = 8},
                   {.type = "dragon", .partitions = 1, .nodes = 3}};
  spec.workload = "hetero";
  spec.duration = 1.25;
  spec.fail_probability = 0.125;
  spec.faults.push_back(
      {FaultSpec::Kind::kCrash, 12.5, "flux", 1, 0});
  spec.faults.push_back({FaultSpec::Kind::kCancelStorm, 3.0, "", 0, 7});
  spec.bug = "overcommit";
  const auto line = spec.to_string();
  const auto parsed = ScenarioSpec::parse(line);
  EXPECT_EQ(parsed.to_string(), line);
  ASSERT_EQ(parsed.faults.size(), 2u);
  EXPECT_EQ(parsed.faults[0].kind, FaultSpec::Kind::kCrash);
  EXPECT_EQ(parsed.faults[0].backend, "flux");
  EXPECT_EQ(parsed.faults[1].count, 7);
  EXPECT_EQ(parsed.bug, "overcommit");
  EXPECT_EQ(parsed.backends[0].flux_backfill_depth, 8);
}

TEST(ScenarioSpec, RoundTripsCrashRecoverDimensions) {
  ScenarioSpec spec;
  spec.seed = 5;
  spec.crash_at = 17;
  const auto line = spec.to_string();
  EXPECT_NE(line.find(";crash_at=17"), std::string::npos) << line;
  EXPECT_EQ(line.find(";recover="), std::string::npos)
      << "recover=true is the default and must not be emitted";
  EXPECT_EQ(ScenarioSpec::parse(line).crash_at, 17u);
  spec.recover = false;
  const auto survive = spec.to_string();
  EXPECT_NE(survive.find(";recover=0"), std::string::npos) << survive;
  const auto parsed = ScenarioSpec::parse(survive);
  EXPECT_EQ(parsed.crash_at, 17u);
  EXPECT_FALSE(parsed.recover);
  EXPECT_EQ(parsed.to_string(), survive);
  // Pre-recovery spec lines stay parseable and stable (no crash keys).
  ScenarioSpec def;
  EXPECT_EQ(def.to_string().find("crash_at"), std::string::npos);
}

TEST(ScenarioSpec, ParseRejectsGarbage) {
  EXPECT_THROW(ScenarioSpec::parse("frobnicate=1"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("nodes"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("tasks=many"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("faults=explode@1:flux:0"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("arrival=poisson"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("admit=reject"), util::Error);
  // Keys of dimensions the spec no longer has are errors, not ignored.
  for (const char* removed : {"shards=2", "threads=4"}) {
    try {
      ScenarioSpec::parse(removed);
      ADD_FAILURE() << removed << " parsed";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("spec: unknown key"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioSpec, RoundTripsIngressDimensions) {
  ScenarioSpec spec;
  spec.seed = 9;
  spec.clients = 1000000;
  spec.arrival = "bursty";
  spec.arrival_param = 1250.5;
  spec.admit = "defer";
  spec.admit_capacity = 48;
  const auto line = spec.to_string();
  EXPECT_NE(line.find(";clients=1000000"), std::string::npos) << line;
  EXPECT_NE(line.find(";arrival=bursty:1250.5"), std::string::npos) << line;
  EXPECT_NE(line.find(";admit=defer:48"), std::string::npos) << line;
  const auto parsed = ScenarioSpec::parse(line);
  EXPECT_EQ(parsed.clients, 1000000);
  EXPECT_EQ(parsed.arrival, "bursty");
  EXPECT_DOUBLE_EQ(parsed.arrival_param, 1250.5);
  EXPECT_EQ(parsed.admit, "defer");
  EXPECT_EQ(parsed.admit_capacity, 48);
  EXPECT_EQ(parsed.to_string(), line);
  // Pre-ingress spec lines stay stable: clients=0 emits none of the keys.
  ScenarioSpec def;
  EXPECT_EQ(def.to_string().find("clients"), std::string::npos);
  EXPECT_EQ(def.to_string().find("arrival"), std::string::npos);
  EXPECT_EQ(def.to_string().find("admit"), std::string::npos);
}

// -------------------------------------------------------------- generator

TEST(Generator, IsDeterministicPerSeed) {
  for (std::uint64_t seed : {1ull, 17ull, 4242ull}) {
    sim::RngStream a(seed, "fuzz.generate");
    sim::RngStream b(seed, "fuzz.generate");
    EXPECT_EQ(generate_scenario(a).to_string(),
              generate_scenario(b).to_string());
  }
}

TEST(Generator, ProducesValidSpecs) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    const auto spec = generate_scenario(rng);
    EXPECT_GE(spec.nodes, static_cast<int>(spec.backends.size()));
    int assigned = 0;
    for (const auto& b : spec.backends) {
      EXPECT_GE(b.nodes, 1);
      EXPECT_GE(b.partitions, 1);
      EXPECT_LE(b.partitions, b.nodes);
      assigned += b.nodes;
    }
    EXPECT_EQ(assigned, spec.nodes);
    const auto caps = unit_caps(spec);
    EXPECT_GE(caps.nodes, 1);
    // Sleep-workload demands stay within the smallest schedulable unit.
    EXPECT_LE(spec.cores, caps.cores);
    EXPECT_LE(spec.gpus, caps.gpus);
    for (const auto& f : spec.faults) {
      if (f.kind != FaultSpec::Kind::kCrash) continue;
      EXPECT_TRUE(f.backend == "flux" || f.backend == "dragon" ||
                  f.backend == "prrte")
          << "crash fault targets a backend without a crash surface";
    }
  }
}

TEST(Generator, ForcedIngressArmsEveryScenarioDeterministically) {
  GeneratorOptions force;
  force.force_ingress = true;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    sim::RngStream a(seed, "fuzz.generate");
    sim::RngStream b(seed, "fuzz.generate");
    const auto spec = generate_scenario(a, force);
    EXPECT_EQ(spec.to_string(), generate_scenario(b, force).to_string());
    EXPECT_GT(spec.clients, 0) << "force_ingress must arm every scenario";
    EXPECT_TRUE(spec.arrival == "poisson" || spec.arrival == "diurnal" ||
                spec.arrival == "bursty" || spec.arrival == "closed")
        << spec.arrival;
    EXPECT_GT(spec.arrival_param, 0.0);
    EXPECT_TRUE(spec.admit == "reject" || spec.admit == "defer");
    EXPECT_GE(spec.admit_capacity, 0);
    if (spec.arrival == "closed") {
      EXPECT_LE(spec.clients, 64) << "closed loops keep per-client state";
    }
  }
}

TEST(Runner, ForcedIngressScenariosHoldAllInvariants) {
  // Miniature of the nightly ingress-storm leg: forced clients/arrival/
  // admit dimensions, all oracles on (determinism, conservation under
  // rejection, closed-loop bounds, recovery).
  GeneratorOptions force;
  force.force_ingress = true;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    const auto spec = generate_scenario(rng, force);
    const auto result = run_with_oracles(spec);
    EXPECT_TRUE(result.ok()) << "seed " << seed << " spec " << spec.to_string()
                             << " first violation: "
                             << result.violations.front().to_string();
  }
}

TEST(Shrinker, IngressDimensionsShrinkTowardTheClassicPath) {
  ScenarioSpec spec;
  spec.clients = 50000;
  spec.arrival = "bursty";
  spec.arrival_param = 900.0;
  spec.admit = "defer";
  spec.admit_capacity = 7;
  const auto cands = [](const ScenarioSpec& s) {
    // Exercise candidates() through a shrink that rejects everything: the
    // spec must be offered an ingress-free reduction.
    bool saw_ingress_free = false;
    shrink(s, [&saw_ingress_free](const ScenarioSpec& candidate) {
      if (candidate.clients == 0) saw_ingress_free = true;
      return false;
    }, 100);
    return saw_ingress_free;
  };
  EXPECT_TRUE(cands(spec));
  // A failure that needs ingress keeps it but simplifies the dimensions.
  const auto shrunk = shrink(
      spec,
      [](const ScenarioSpec& candidate) { return candidate.clients > 0; },
      400);
  EXPECT_EQ(shrunk.spec.clients, 1);
  EXPECT_EQ(shrunk.spec.arrival, "poisson");
  EXPECT_EQ(shrunk.spec.admit, "reject");
  EXPECT_EQ(shrunk.spec.admit_capacity, 256);
}

// ------------------------------------------------------ transition matrix

TEST(Invariants, TransitionMatrixMatchesLifecycleGraph) {
  using S = core::TaskState;
  EXPECT_TRUE(legal_transition(S::kNew, S::kTmgrScheduling));
  EXPECT_TRUE(legal_transition(S::kTmgrScheduling, S::kStagingInput));
  EXPECT_TRUE(legal_transition(S::kTmgrScheduling, S::kAgentScheduling));
  EXPECT_TRUE(legal_transition(S::kExecutorPending, S::kAgentScheduling));
  EXPECT_TRUE(legal_transition(S::kRunning, S::kAgentScheduling));
  EXPECT_TRUE(legal_transition(S::kRunning, S::kDone));
  EXPECT_TRUE(legal_transition(S::kStagingOutput, S::kCanceled));
  // No skipping forward, no moving backwards, nothing after a terminal.
  EXPECT_FALSE(legal_transition(S::kNew, S::kRunning));
  EXPECT_FALSE(legal_transition(S::kTmgrScheduling, S::kExecutorPending));
  EXPECT_FALSE(legal_transition(S::kAgentScheduling, S::kRunning));
  EXPECT_FALSE(legal_transition(S::kRunning, S::kNew));
  EXPECT_FALSE(legal_transition(S::kDone, S::kFailed));
  EXPECT_FALSE(legal_transition(S::kCanceled, S::kAgentScheduling));
  EXPECT_FALSE(legal_transition(S::kFailed, S::kDone));
}

// ----------------------------------------------------------- clean sweeps

TEST(Runner, GeneratedScenariosHoldAllInvariants) {
  // A miniature of the CI fuzz smoke: every generated scenario must pass
  // every invariant plus the run-twice determinism oracle.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    const auto spec = generate_scenario(rng);
    const auto result = run_with_oracles(spec);
    EXPECT_TRUE(result.ok()) << "seed " << seed << " spec " << spec.to_string()
                             << " first violation: "
                             << result.violations.front().to_string();
    EXPECT_TRUE(result.ready);
  }
}

TEST(Runner, ReplayOfSerializedSpecIsBitIdentical) {
  sim::RngStream rng(7, "fuzz.generate");
  const auto spec = generate_scenario(rng);
  const auto direct = run_scenario(spec);
  const auto replayed = run_scenario(ScenarioSpec::parse(spec.to_string()));
  EXPECT_EQ(direct.fingerprint, replayed.fingerprint);
  EXPECT_EQ(direct.events, replayed.events);
  EXPECT_EQ(direct.done, replayed.done);
}

TEST(Runner, DifferentSeedsGiveDifferentFingerprints) {
  // The fingerprint covers the seeded jitter: same spec, different seed,
  // different trace — so equal fingerprints elsewhere mean something.
  sim::RngStream rng(7, "fuzz.generate");
  auto spec = generate_scenario(rng);
  const auto first = run_scenario(spec);
  spec.seed += 1;
  const auto second = run_scenario(spec);
  EXPECT_TRUE(first.ok());
  EXPECT_TRUE(second.ok());
  EXPECT_NE(first.fingerprint, second.fingerprint) << spec.to_string();
}

// ------------------------------------------------ crash/recover oracle

TEST(Recovery, TwoHundredSeededCrashScenariosRecoverByteEquivalent) {
  // The acceptance sweep (docs/recovery.md): 200 seeded crash/recover
  // scenarios across all four backends, each crashed at a seeded record
  // index, recovered from the surviving journal prefix, and required to
  // finish byte- and state-equivalent to the uninterrupted run. Kept
  // bounded by using small scenarios; the nightly CI leg runs the same
  // oracle over full generated scenarios.
  const char* const backends[] = {"srun", "flux", "dragon", "prrte"};
  RunOptions jopts;
  jopts.journal = true;
  int swept = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ScenarioSpec spec;
    spec.seed = seed;
    spec.nodes = 2 + static_cast<int>(seed % 3);
    spec.backends = {{backends[seed % 4]}};
    spec.workload = "sleep";
    spec.tasks = 4 + static_cast<int>(seed % 6);
    spec.duration = 1.0 + 0.25 * static_cast<double>(seed % 4);
    if (seed % 3 == 0) {
      spec.faults.push_back({FaultSpec::Kind::kCancelStorm, 2.0, "", 0, 2});
    }
    const auto reference = run_scenario(spec, jopts);
    ASSERT_TRUE(reference.ok()) << "seed " << seed << ": "
                                << reference.violations.front().to_string();
    const auto records = static_cast<std::uint64_t>(std::count(
        reference.journal.begin(), reference.journal.end(), '\n'));
    spec.crash_at = 1 + (seed * 7919) % records;  // seeded crash index
    spec.recover = seed % 10 != 0;  // every tenth: survive-only mode
    const auto violations = check_recovery(spec, reference);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << " crash_at=" << spec.crash_at << ": "
        << violations.front().to_string();
    ++swept;
  }
  EXPECT_EQ(swept, 200);
}

TEST(Recovery, OracleRunsInsideRunWithOracles) {
  // crash_at on a spec routes through run_with_oracles: base runs journal,
  // and the recovery oracle executes without violations on a clean spec.
  ScenarioSpec spec;
  spec.seed = 23;
  spec.nodes = 3;
  spec.backends = {{"flux"}};
  spec.workload = "sleep";
  spec.tasks = 8;
  spec.duration = 1.5;
  spec.crash_at = 20;
  const auto result = run_with_oracles(spec);
  EXPECT_TRUE(result.ok()) << result.violations.front().to_string();
  EXPECT_FALSE(result.journal.empty())
      << "a crash_at spec must journal its base runs";
}

// ------------------------------------- injected bug: caught then shrunk

TEST(Runner, InjectedOvercommitIsCaughtByConservation) {
  ScenarioSpec spec;
  spec.seed = 11;
  spec.nodes = 3;
  spec.backends = {{"srun"}};
  spec.workload = "sleep";
  spec.tasks = 30;
  spec.duration = 2.0;
  spec.bug = "overcommit";
  const auto result = run_scenario(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "conservation"))
      << "the leaked core must surface as a conservation violation";
  // The same spec without the bug passes — the checkers flag the defect,
  // not the scenario.
  spec.bug = "none";
  EXPECT_TRUE(run_scenario(spec).ok());
}

TEST(Shrinker, ReducesOvercommitFailureToMinimalReplayableSpec) {
  sim::RngStream rng(3, "fuzz.generate");
  auto spec = generate_scenario(rng);
  spec.bug = "overcommit";  // plant the defect in a busy scenario
  ASSERT_FALSE(run_scenario(spec).ok());

  const auto shrunk = shrink(
      spec,
      [](const ScenarioSpec& candidate) {
        return !run_scenario(candidate).ok();
      },
      400);

  // Still failing, still replayable from its serialized form.
  const auto replay = ScenarioSpec::parse(shrunk.spec.to_string());
  const auto result = run_scenario(replay);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "conservation"));

  // And actually minimal: the leak needs no tasks, no faults, no second
  // backend, and no workload payload.
  EXPECT_EQ(shrunk.spec.tasks, 0);
  EXPECT_TRUE(shrunk.spec.faults.empty());
  EXPECT_EQ(shrunk.spec.backends.size(), 1u);
  EXPECT_EQ(shrunk.spec.workload, "null");
  EXPECT_EQ(shrunk.spec.bug, "overcommit");  // the defect itself survives
  EXPECT_LE(shrunk.spec.nodes, 2);
}

TEST(Runner, InjectedStateLossIsCaughtAndShrunk) {
  // The seeded recovery defect: a controller that "recovers" but drops its
  // fault schedule. Invisible to every uninterrupted-run invariant — only
  // the crash/recover oracle can see it, as a journal divergence once the
  // dropped fault fails to fire during replay.
  ScenarioSpec spec;
  spec.seed = 11;
  spec.nodes = 4;
  spec.backends = {{"srun"}};
  spec.workload = "sleep";
  spec.tasks = 24;
  spec.duration = 5.0;
  spec.faults.push_back({FaultSpec::Kind::kCancelStorm, 6.0, "", 0, 8});
  spec.crash_at = 10;
  spec.bug = "state-loss";

  const auto result = run_with_oracles(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "recovery"))
      << "state loss must surface through the recovery oracle";
  // Inert without a crash: the bug only bites on the recovery path.
  ScenarioSpec uncrashed = spec;
  uncrashed.crash_at = 0;
  EXPECT_TRUE(run_with_oracles(uncrashed).ok());

  // Shrinks to a minimal spec that keeps the ingredients the bug needs:
  // the crash point, the fault schedule, and the defect flag.
  const auto shrunk = shrink(
      spec,
      [](const ScenarioSpec& candidate) {
        return !run_with_oracles(candidate).ok();
      },
      200);
  EXPECT_GT(shrunk.spec.crash_at, 0u);
  EXPECT_TRUE(shrunk.spec.recover);
  EXPECT_FALSE(shrunk.spec.faults.empty());
  EXPECT_EQ(shrunk.spec.bug, "state-loss");

  // Still failing, still replayable from its serialized form — the
  // flotilla-fuzz --replay workflow.
  const auto replay = ScenarioSpec::parse(shrunk.spec.to_string());
  const auto replayed = run_with_oracles(replay);
  EXPECT_FALSE(replayed.ok());
  EXPECT_TRUE(has_violation(replayed, "recovery"));
}

TEST(Shrinker, LeavesPassingSpecsAlone) {
  sim::RngStream rng(5, "fuzz.generate");
  const auto spec = generate_scenario(rng);
  int evaluations = 0;
  const auto shrunk = shrink(spec, [&evaluations](const ScenarioSpec&) {
    ++evaluations;
    return false;  // nothing fails
  });
  EXPECT_EQ(shrunk.spec.to_string(), spec.to_string());
  EXPECT_EQ(shrunk.evaluations, evaluations);
}

}  // namespace
}  // namespace flotilla::check
