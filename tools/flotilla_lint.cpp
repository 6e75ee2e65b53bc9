// flotilla-lint: determinism lint for the DES core.
//
// The simulator's value is that a (scenario, seed) pair always produces the
// same event sequence and therefore the same metrics — the property the
// paper's overhead characterization depends on. This tool enforces, as hard
// errors, the source-level rules that protect it (see docs/correctness.md):
// wall-clock, unseeded-random, hardware-concurrency, real-sleep, and
// unordered-iteration.
//
// Since the flotilla-analyze framework landed, this binary is a thin
// compatibility front-end: the rule bodies live in
// src/analyze/determinism.cpp (on the real token stream, shared with
// flotilla-analyze) and this file only reproduces the historical CLI —
// same scope rules, same diagnostics, same exit codes — so existing
// scripts, CI jobs, and the `lint` CMake target keep working unchanged.
//
// Scope: when given a directory, only simulation code is checked —
// src/{sim,core,slurm,flux,prrte,platform,workloads,sched,check,obs,
// analyze}/ and src/dragon/*_backend.* — because the real-threaded
// execution layer legitimately touches the host. Files on the explicit
// allowlist (dragon/function_executor, local/process_pool) are never
// checked, even when named directly. A single finding can be waived in
// place with
//   // FLOTILLA_LINT_ALLOW(rule-id): reason
// on the offending line; the reason is mandatory.
//
// Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/determinism.hpp"
#include "analyze/driver.hpp"
#include "analyze/sarif.hpp"

namespace fs = std::filesystem;
namespace fa = flotilla::analyze;

namespace {

bool lintable_extension(const fs::path& path) {
  static const char* const kExts[] = {".cpp", ".cc", ".cxx", ".hpp",
                                      ".h",   ".hh", ".ipp"};
  const std::string ext = path.extension().string();
  for (const char* e : kExts) {
    if (ext == e) return true;
  }
  return false;
}

void usage() {
  std::cerr
      << "usage: flotilla-lint [--list-rules] <path>...\n"
      << "  Directories are scanned recursively; only simulation-scope\n"
      << "  files are checked. Files named explicitly are always checked\n"
      << "  (unless allowlisted).\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& rule : fa::DeterminismPass().rules()) {
        std::cout << rule << "\n";
      }
      return 0;
    }
    if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    }
    if (!arg.empty() && arg[0] == '-') {
      usage();
      return 2;
    }
    roots.emplace_back(arg);
  }
  if (roots.empty()) {
    usage();
    return 2;
  }

  // Historical collection semantics: directory scans apply the simulation
  // scope and allowlist; explicit files bypass the scope (naming a file is
  // an instruction to check it) but never the allowlist.
  std::vector<std::string> files;
  for (const fs::path& root : roots) {
    if (fs::is_directory(root)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file()) continue;
        if (!lintable_extension(entry.path())) continue;
        const std::string path = entry.path().generic_string();
        if (fa::determinism_in_scope(path) &&
            !fa::determinism_allowlisted(path)) {
          files.push_back(path);
        }
      }
    } else if (fs::is_regular_file(root)) {
      const std::string path = root.generic_string();
      if (!fa::determinism_allowlisted(path)) files.push_back(path);
    } else {
      std::cerr << "flotilla-lint: no such path: " << root << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  fa::AnalysisInput input;
  input.files.reserve(files.size());
  for (const std::string& path : files) {
    fa::SourceFile file;
    std::string error;
    if (!fa::load_source(path, path, &file, &error)) {
      std::cerr << "flotilla-lint: cannot read " << path << "\n";
      return 2;
    }
    input.files.push_back(std::move(file));
  }

  std::vector<fa::Finding> findings;
  for (const fa::SourceFile& file : input.files) {
    fa::DeterminismPass::check_file(file, &findings);
  }
  fa::filter_waived(input, &findings);
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());

  fa::write_text(std::cout, findings);
  std::cerr << "flotilla-lint: " << input.files.size()
            << " file(s) checked, " << findings.size() << " issue(s)\n";
  return findings.empty() ? 0 : 1;
}
