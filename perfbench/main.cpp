// flotilla-perfbench: one benchmark process. perfbench/run.py drives it;
// each invocation prints one JSON object on stdout.
//
//   flotilla-perfbench run --workload flux-null --seed 7 [--stack forward]
//       [--tracing] [--trace-records-per-task R] [--spans] [--inject-ns N]
//       [--journal PATH] [--spans-csv PATH]
//   flotilla-perfbench journal --seed 7 --out PATH
//   flotilla-perfbench isolated --seed 7 --journal PATH --seconds S
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "isolated.hpp"
#include "journal/record.hpp"
#include "stack.hpp"

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ',';
    out += quoted(key) + ':' + number(value);
  }
  return out + '}';
}

std::string hex32(std::uint32_t value) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%08x", value);
  return buffer;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) != 0; }
  std::string get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw std::runtime_error("missing --" + key);
    }
    return it->second;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::runtime_error("usage: see perfbench/main.cpp");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument '" + key + "'");
    }
    key = key.substr(2);
    if (key == "tracing" || key == "spans") {
      args.values[key] = "1";
    } else if (i + 1 < argc) {
      args.values[key] = argv[++i];
    } else {
      throw std::runtime_error("--" + key + " needs a value");
    }
  }
  return args;
}

int run(const Args& args) {
  perfbench::RunOptions options;
  options.workload = args.get("workload");
  options.seed = std::stoull(args.get("seed"));
  if (args.has("stack")) {
    const auto stack = args.get("stack");
    if (stack != "pilot" && stack != "forward") {
      throw std::runtime_error("--stack is pilot or forward");
    }
    options.stack = stack == "pilot" ? perfbench::StackKind::kPilot
                                     : perfbench::StackKind::kForward;
  }
  options.tracing = args.has("tracing");
  options.spans = args.has("spans");
  if (options.spans && options.stack != perfbench::StackKind::kForward) {
    throw std::runtime_error("--spans needs --stack forward");
  }
  if (args.has("inject-ns")) options.inject_ns = std::stod(args.get("inject-ns"));
  if (args.has("trace-records-per-task")) {
    options.trace_records_per_task =
        std::stod(args.get("trace-records-per-task"));
  }
  if (args.has("journal")) options.journal = args.get("journal");
  if (args.has("spans-csv")) options.spans_csv = args.get("spans-csv");

  const auto r = perfbench::run_workload(options);
  std::string errors = "[";
  for (const auto& e : r.errors) {
    if (errors.size() > 1) errors += ',';
    errors += quoted(e);
  }
  errors += ']';
  std::cout << "{\"setup_s\":" << number(r.setup_s)
            << ",\"timed_s\":" << number(r.timed_s)
            << ",\"ref_slice_s\":" << number(r.ref_slice_s)
            << ",\"nominal_ref_s\":" << number(r.nominal_ref_s)
            << ",\"submitted\":" << r.submitted << ",\"done\":" << r.done
            << ",\"failed\":" << r.failed << ",\"offered\":" << r.offered
            << ",\"rejected\":" << r.rejected
            << ",\"peak_rss_mb\":" << number(r.peak_rss_mb)
            << ",\"virt\":" << object(r.virt)
            << ",\"journal_fnv\":" << quoted(hex32(flotilla::journal::fnv1a32(r.journal)))
            << ",\"overhead\":" << quoted(r.overhead)
            << ",\"layer\":" << object(r.layer) << ",\"errors\":" << errors
            << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.command == "run") return run(args);
    if (args.command == "journal") {
      const auto seed = std::stoull(args.get("seed"));
      const std::string bytes = perfbench::produce_journal(seed);
      std::ofstream out(args.get("out"), std::ios::binary);
      out << bytes;
      out.close();
      if (!out) throw std::runtime_error("cannot write the journal");
      std::cout << "{\"bytes\":" << bytes.size() << "}" << std::endl;
      return 0;
    }
    if (args.command == "isolated") {
      const auto values = perfbench::run_isolated(
          perfbench::read_file(args.get("journal")), std::stoull(args.get("seed")),
          std::stod(args.get("seconds")));
      std::cout << object(values) << std::endl;
      return 0;
    }
    throw std::runtime_error("unknown command '" + args.command + "'");
  } catch (const std::exception& e) {
    std::cerr << "flotilla-perfbench: " << e.what() << "\n";
    return 2;
  }
}
