// Tests for flotilla-lint, the DES determinism checker (tools/
// flotilla_lint.cpp). The fixture tree under tests/lint_fixtures/ mirrors
// src/ so the scanner's scope rules apply to it exactly as they do to the
// real tree; each fixture file holds one violation class (or a deliberate
// counter-example), and this test asserts the checker's exact diagnostics.
//
// FLOTILLA_LINT_BIN, FLOTILLA_LINT_FIXTURES and FLOTILLA_SRC_DIR are
// injected by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::vector<std::string> lines;  // stdout, split on newlines
};

RunResult run_lint(const std::string& args) {
  const std::string cmd = std::string(FLOTILLA_LINT_BIN) + " " + args +
                          " 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  RunResult result;
  if (pipe == nullptr) return result;
  std::string output;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::size_t begin = 0;
  while (begin < output.size()) {
    std::size_t end = output.find('\n', begin);
    if (end == std::string::npos) end = output.size();
    if (end > begin) result.lines.push_back(output.substr(begin, end - begin));
    begin = end + 1;
  }
  return result;
}

std::string fixture(const std::string& rel) {
  return std::string(FLOTILLA_LINT_FIXTURES) + "/" + rel;
}

std::string diag(const std::string& rel, int line, const std::string& rule,
                 const std::string& message) {
  return fixture(rel) + ":" + std::to_string(line) + ": error: [" + rule +
         "] " + message;
}

const char* const kWallClockMsg =
    "wall-clock time in simulation code breaks determinism; use "
    "sim::Engine::now()";
const char* const kRandomMsg =
    "nondeterministic randomness in simulation code; draw from a seeded "
    "sim::RngStream";

TEST(LintTest, FixtureScanReportsExactDiagnostics) {
  const RunResult result = run_lint(FLOTILLA_LINT_FIXTURES);
  EXPECT_EQ(result.exit_code, 1);

  const std::vector<std::string> expected = {
      diag("src/core/bad_random.cpp", 8, "unseeded-random", kRandomMsg),
      diag("src/core/bad_random.cpp", 14, "unseeded-random", kRandomMsg),
      diag("src/core/bad_random.cpp", 15, "unseeded-random", kRandomMsg),
      diag("src/dragon/sim_backend.cpp", 9, "wall-clock", kWallClockMsg),
      diag("src/flux/bad_sleep.cpp", 8, "real-sleep",
           "real sleeping in simulation code; model delays as simulated "
           "events"),
      diag("src/platform/bad_hw_concurrency.cpp", 8, "hardware-concurrency",
           "host-dependent concurrency breaks reproducibility; take worker "
           "counts from configuration"),
      diag("src/sim/bad_wall_clock.cpp", 8, "wall-clock", kWallClockMsg),
      diag("src/sim/bad_wall_clock.cpp", 13, "wall-clock", kWallClockMsg),
      diag("src/sim/bad_wall_clock.cpp", 15, "wall-clock", kWallClockMsg),
      diag("src/sim/bad_wall_clock.cpp", 20, "wall-clock", kWallClockMsg),
      diag("src/slurm/bad_unordered.cpp", 18, "unordered-iteration",
           "iteration over unordered container 'active_' can feed event "
           "ordering; iterate util::sorted_keys() or use an ordered "
           "container"),
      diag("src/slurm/bad_unordered.cpp", 22, "unordered-iteration",
           "iteration over unordered container 'drained' can feed event "
           "ordering; iterate util::sorted_keys() or use an ordered "
           "container"),
      diag("src/workloads/waived.cpp", 13, "wall-clock", kWallClockMsg),
  };
  EXPECT_EQ(result.lines, expected);
}

// A well-formed waiver (rule id + reason) suppresses; one without a reason
// does not — waived.cpp line 9 is absent above, line 13 present.
TEST(LintTest, WaiverRequiresReason) {
  const RunResult result = run_lint(fixture("src/workloads/waived.cpp"));
  EXPECT_EQ(result.exit_code, 1);
  ASSERT_EQ(result.lines.size(), 1u);
  EXPECT_EQ(result.lines[0],
            diag("src/workloads/waived.cpp", 13, "wall-clock", kWallClockMsg));
}

// Directory scans skip non-backend dragon files (threaded layer), but an
// explicit file argument is always checked.
TEST(LintTest, ExplicitFileBypassesScope) {
  const RunResult result = run_lint(fixture("src/dragon/thread_helper.cpp"));
  EXPECT_EQ(result.exit_code, 1);
  ASSERT_EQ(result.lines.size(), 1u);
  EXPECT_EQ(result.lines[0], diag("src/dragon/thread_helper.cpp", 10,
                                  "wall-clock", kWallClockMsg));
}

// The allowlisted execution layer is never checked, even when named
// directly.
TEST(LintTest, AllowlistHoldsForExplicitFiles) {
  const RunResult result = run_lint(fixture("src/local/process_pool.cpp"));
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.lines.empty());
}

// Counter-example file: comments, string literals, and sorted iteration
// must produce no diagnostics.
TEST(LintTest, CleanFixtureIsClean) {
  const RunResult result = run_lint(fixture("src/core/clean_component.cpp"));
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.lines.empty());
}

// The real tree must stay clean — this is the same gate CI runs.
TEST(LintTest, RepoSourceTreeIsClean) {
  const RunResult result = run_lint(FLOTILLA_SRC_DIR);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.lines.empty());
}

TEST(LintTest, ListRulesNamesEveryRule) {
  const RunResult result = run_lint("--list-rules");
  EXPECT_EQ(result.exit_code, 0);
  const std::vector<std::string> expected = {
      "hardware-concurrency", "real-sleep", "unordered-iteration",
      "unseeded-random", "wall-clock"};
  EXPECT_EQ(result.lines, expected);
}

}  // namespace
