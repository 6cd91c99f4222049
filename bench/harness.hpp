// Shared CLI + JSON reporting for the sweep-based benches.
//
// Every Monte-Carlo bench accepts the same flags:
//   --trials N    sweep size (per-bench meaning documented in --help)
//   --threads K   worker threads (0 = one per hardware thread)
//   --seed S      root seed (trial i draws from Rng::stream(S, i))
//   --json PATH   write a machine-readable report (metric summaries,
//                 wall-clock, throughput) for CI's perf lane
//   --obs         enable mmx::obs collection; the JSON report gains an
//                 "obs" block (counters, histograms, prometheus text)
//   --trace PATH  write the merged trace as chrome://tracing JSON
//                 (implies --obs)
//
// Figure output goes to stdout exactly as before (byte-identical at the
// historical defaults); sweep timing goes to stderr so redirected figure
// text never changes with thread count or machine speed. Without --obs
// the report carries no obs block.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mmx/sim/stats.hpp"
#include "mmx/sim/sweep.hpp"

namespace mmx::bench {

struct Options {
  sim::SweepConfig sweep;
  std::string json_path;   // empty = no JSON report
  std::string trace_path;  // empty = no chrome trace (--trace sets it)
  bool obs = false;        // runtime obs collection (--obs / --trace)
};

/// A bench-specific flag on top of the shared set. `value` must point at
/// a string pre-loaded with the default; it receives the raw argument
/// (the bench parses/validates it). `help` is the usage line suffix.
struct ExtraFlag {
  const char* flag;    // e.g. "--nodes"
  const char* help;    // e.g. "resident things (default 10000)"
  std::string* value;  // non-owning; holds default, receives override
};

/// Parse the shared sweep flags; prints usage and exits on --help or a
/// malformed/unknown argument.
Options parse_args(int argc, char** argv, std::size_t default_trials,
                   std::uint64_t default_seed, const char* trials_meaning = "trials");

/// Same, plus bench-specific flags (e.g. scale_churn's --nodes/--cache).
Options parse_args(int argc, char** argv, std::size_t default_trials,
                   std::uint64_t default_seed, const char* trials_meaning,
                   const std::vector<ExtraFlag>& extras);

void report_timing_line(std::size_t trials, std::size_t threads_used, double wall_s,
                        double trials_per_s);

/// Print the "[sweep] trials=.. threads=.. wall=..s (.. trials/s)" line
/// to stderr (stderr so stdout stays byte-stable across machines).
template <typename T>
void report_timing(const sim::SweepResult<T>& result) {
  report_timing_line(result.trials.size(), result.threads_used, result.wall_s,
                     result.trials_per_s);
}

/// Interleaved ref/fast pairs the micro benches time per stage. One pair
/// per process let host noise swing a gated speedup by 15%.
inline constexpr std::size_t kSpeedupPairs = 7;

/// One micro-bench stage timed as kSpeedupPairs ref/fast pairs in this
/// process, the arm that goes first alternating from pair to pair.
struct PairedStage {
  double ref_trials_per_s = 0.0;  ///< median over the ref runs
  sim::SweepResult<double> fast;  ///< the fast run of median throughput
  double speedup = 0.0;           ///< median of the pairs' fast/ref throughput ratios
  double speedup_min = 0.0;
  double speedup_max = 0.0;
  bool bitwise = true;  ///< every pair's two runs returned the same trials
};

/// `run(fast)` runs one arm of the stage and returns its sweep.
template <typename Run>
PairedStage time_pairs(Run&& run) {
  std::vector<double> ref_tps;
  std::vector<double> ratios;
  std::vector<sim::SweepResult<double>> fasts;
  bool bitwise = true;
  for (std::size_t k = 0; k < kSpeedupPairs; ++k) {
    const bool ref_first = k % 2 == 0;
    sim::SweepResult<double> first = run(/*fast=*/!ref_first);
    sim::SweepResult<double> second = run(/*fast=*/ref_first);
    const sim::SweepResult<double>& ref = ref_first ? first : second;
    sim::SweepResult<double>& fast = ref_first ? second : first;
    bitwise = bitwise && ref.trials == fast.trials;
    ref_tps.push_back(ref.trials_per_s);
    ratios.push_back(ref.trials_per_s > 0.0 ? fast.trials_per_s / ref.trials_per_s : 0.0);
    fasts.push_back(std::move(fast));
  }
  std::sort(fasts.begin(), fasts.end(),
            [](const auto& a, const auto& b) { return a.trials_per_s < b.trials_per_s; });
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  return {sim::median(ref_tps), std::move(fasts[fasts.size() / 2]), sim::median(ratios), *lo,
          *hi, bitwise};
}

/// Accumulates metric summaries and writes the perf-lane JSON report.
class JsonReport {
 public:
  JsonReport(std::string bench_name, const Options& options);

  void add_metric(const std::string& name, const std::vector<double>& samples);
  void add_scalar(const std::string& name, double value);

  template <typename T>
  void record(const sim::SweepResult<T>& result) {
    set_timing(result.trials.size(), result.threads_used, result.wall_s, result.trials_per_s);
  }
  void set_timing(std::size_t trials, std::size_t threads_used, double wall_s,
                  double trials_per_s);

  /// Write to `options.json_path` if set (no-op otherwise). Returns false
  /// if the file could not be written.
  bool write() const;

 private:
  std::string bench_name_;
  std::string json_path_;
  std::string trace_path_;
  bool obs_enabled_ = false;
  std::uint64_t seed_;
  std::size_t trials_ = 0;
  std::size_t threads_used_ = 0;
  double wall_s_ = 0.0;
  double trials_per_s_ = 0.0;
  std::vector<sim::MetricSummary> metrics_;
  std::vector<std::pair<std::string, double>> scalars_;
};

}  // namespace mmx::bench
