// The four scale workloads the benchmark runs, and the output checks every
// run must pass (README.md gives the reasoning behind each shape).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mmx/sim/scale_scenario.hpp"

namespace perfbench {

/// Shape of one workload: population, simulated length and which lanes of
/// ScaleScenario it turns on. `things` and `rounds` are the knobs the
/// self-test shrinks; everything else is fixed by the workload.
struct WorkloadShape {
  std::string name;
  std::size_t things = 0;
  std::size_t rounds = 0;  ///< measurement rounds (0.0625 s simulated each)
  bool faults = false;     ///< make_fault_storm()
  bool overload = false;   ///< make_overload_config(3.0) on a widened slice
  /// FNV-1a digest of every field ScaleReport::operator== compares, at
  /// kDefaultSeed and the full shape. 0 = not pinned (scaled-down shapes).
  std::uint64_t pinned_digest = 0;
};

inline constexpr std::uint64_t kDefaultSeed = 4242;

/// The benchmark's workloads at full size, in README order.
const std::vector<WorkloadShape>& workloads();

/// Look up a workload by name; nullopt if unknown.
std::optional<WorkloadShape> find_workload(const std::string& name);

/// Scenario config for `shape` (single-threaded refresh, cache on).
mmx::sim::ScaleConfig make_config(const WorkloadShape& shape);

/// FNV-1a over every simulated field ScaleReport::operator== compares.
std::uint64_t report_digest(const mmx::sim::ScaleReport& rep);

/// Invariants every run must satisfy, plus the pinned digest when `seed`
/// is kDefaultSeed and the shape pins one. Returns the failure causes
/// (empty = pass).
std::vector<std::string> check_report(const WorkloadShape& shape, std::uint64_t seed,
                                      const mmx::sim::ScaleReport& rep);

}  // namespace perfbench
