// Per-layer families run alone, through each layer's public functions,
// on inputs shaped like the workload that stresses the layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

// Runs every family for about `seconds` in total and returns the median
// of each family's batches: sim.push_pop_ns_1k, sim.push_pop_ns_100k,
// sched.place_release_ns, journal.encode_ns_per_record,
// journal.read_ns_per_record and journal.parse_s. `journal` is the
// uninterrupted hybrid-service journal for `seed`.
std::map<std::string, double> run_isolated(const std::string& journal,
                                           std::uint64_t seed,
                                           double seconds);

}  // namespace perfbench
