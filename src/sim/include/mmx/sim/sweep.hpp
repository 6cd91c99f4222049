// Deterministic parallel Monte-Carlo sweep engine.
//
// A sweep is N independent trials of a pure function
//   T trial(std::size_t index, Rng& rng)
// split into contiguous chunks that the calling thread and its helper
// threads claim from one shared atomic counter. Two guarantees make the
// parallel run bit-identical to the serial one at any thread count:
//
//   1. Seeding — trial i draws from Rng::stream(seed, i), a counter-based
//      derivation that is a pure function of (root seed, trial index):
//      no trial's randomness depends on scheduling or on other trials.
//   2. Ordering — trial i commits its result into slot i of a
//      preallocated vector; reductions over `SweepResult::trials` then
//      see the same operands in the same order regardless of which
//      worker finished first.
//
// docs/PARALLELISM.md walks through the scheme and how to add a sweep.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mmx/common/rng.hpp"
#include "mmx/obs/trace.hpp"

namespace mmx::sim {

struct SweepConfig {
  std::size_t trials = 30;
  std::size_t threads = 0;  // 0 = one worker per hardware thread
  std::uint64_t seed = 0x6d6d5821ULL;
};

/// Results committed in trial order, plus the wall-clock the sweep took.
template <typename T>
struct SweepResult {
  std::vector<T> trials;
  double wall_s = 0.0;
  double trials_per_s = 0.0;
  std::size_t threads_used = 1;
};

/// Five-number summary of one metric across trials (JSON-report unit).
struct MetricSummary {
  std::string name;
  std::size_t count = 0;
  double mean = 0.0;
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

MetricSummary summarize(std::string name, const std::vector<double>& samples);

/// Call `body(begin, end)` over contiguous chunks covering [0, count) on
/// `threads` workers (0 = one per hardware thread): inline when there is
/// one worker or one item, else on the calling thread plus helper threads
/// that claim chunks from one atomic counter. Rethrows the first
/// exception a chunk threw, after every worker has joined. The sweep
/// engine runs on it, and so does NetworkSimulator::refresh_cache.
void for_each_chunk(std::size_t count, std::size_t threads,
                    const std::function<void(std::size_t, std::size_t)>& body);

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config = {});

  const SweepConfig& config() const { return config_; }
  /// Worker count after resolving `threads == 0`.
  std::size_t threads() const { return threads_; }

  /// Run `config().trials` trials of `fn(index, rng)`; results commit in
  /// trial order. `T` must be default-constructible and must not be
  /// `bool` (`std::vector<bool>` slots are not independently writable
  /// across threads).
  template <typename Fn>
  auto run(Fn&& fn) { return map(config_.trials, std::forward<Fn>(fn)); }

  /// Same engine over an explicit item count (e.g. grid cells, distance
  /// points) when the sweep size is not `config().trials`.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn)
      -> SweepResult<std::decay_t<std::invoke_result_t<Fn&, std::size_t, Rng&>>> {
    using T = std::decay_t<std::invoke_result_t<Fn&, std::size_t, Rng&>>;
    static_assert(!std::is_same_v<T, bool>, "return a struct or int instead of bool");
    SweepResult<T> out;
    out.threads_used = threads_;
    out.trials.resize(count);
    const auto start = std::chrono::steady_clock::now();
    // Span keys combine a per-process run generation with the trial
    // index: unique across successive map() calls, so the deterministic
    // trace merge never sees one key produced by two runs. Generations
    // are deterministic because sweeps are launched serially from the
    // driving thread.
    const std::uint64_t trace_run = next_trace_run() << 40;
    for_each_chunk(count, threads_, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        // Trial spans are keyed on the trial index, so the merged trace
        // is schedule-independent (docs/OBSERVABILITY.md).
        MMX_OBS_SPAN("sweep.trial", trace_run | i);
        Rng rng = Rng::stream(config_.seed, i);
        out.trials[i] = fn(i, rng);
      }
    });
    out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    out.trials_per_s = out.wall_s > 0.0 ? static_cast<double>(count) / out.wall_s : 0.0;
    return out;
  }

 private:
  /// Monotonic per-process sweep-launch counter (trace span key prefix).
  static std::uint64_t next_trace_run();

  SweepConfig config_;
  std::size_t threads_;
};

}  // namespace mmx::sim
