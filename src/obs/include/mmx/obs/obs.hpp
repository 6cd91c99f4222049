// mmx::obs — zero-overhead observability for the simulation hot paths.
//
// The scale lanes (SweepRunner sweeps, the 10^4-node churn scenario)
// report only end-of-run aggregates; mmWave MAC behavior is dominated by
// transients those aggregates hide (beam retraining after a blocker
// move, retry storms, join bursts). This layer gives every subsystem
// named Counters/Gauges/Histograms plus trace spans, under one run-time
// switch: set_enabled(true) (the bench harness's --obs/--trace flags).
// Disabled instrumentation costs one predicted branch per site; the
// bench-perf lane gates the enabled cost on bench_scale_churn at < 2%.
//
// Determinism contract (docs/OBSERVABILITY.md): instruments never feed
// back into simulation state, so instrumented runs stay bit-identical.
// Counter/Histogram updates are relaxed atomics — final values are sums,
// which commute, so they are thread-count invariant whenever the
// simulated event set is. Trace events carry an explicit ordering key
// (trial index, measure-round index — never wall-clock order); the merge
// in trace.hpp sorts on it, so the merged event sequence is also
// thread-count invariant as long as each key is produced by one thread.
//
// Registration (Registry::counter(name) etc.) takes a lock and may
// allocate; hot sites must cache the returned reference — the MMX_OBS_*
// macros do this with a function-local static, so a site is one enabled
// check + one relaxed add in steady state, and passes mmx_analyze's
// hot-path-alloc rule.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace mmx::obs {

/// Runtime collection switch. Off by default: instrumented code runs,
/// instruments do not record. Flipped by the bench harness (--obs,
/// --trace) and by tests.
bool enabled();
void set_enabled(bool on);

/// Monotonic event count. Relaxed-atomic: cross-thread sums commute, so
/// the final value is deterministic whenever the increment set is.
class Counter {
 public:
  void inc() { add(1); }
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, resident population) with a
/// high-water mark. set() is relaxed; max tracking is a CAS loop
/// (rare: only on new highs).
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max_seen() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_max(std::int64_t v) {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed log2-bucket histogram of non-negative integer samples (retry
/// counts, rates in bps, span durations in ns). No allocation ever: the
/// bucket array is part of the object. Bucket index is bit_width(v), so
/// boundaries sit exactly at powers of two: bucket 0 holds v == 0,
/// bucket i (i >= 1) holds v in [2^(i-1), 2^i - 1].
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width of uint64 is 0..64

  static std::size_t bucket_of(std::uint64_t v) { return static_cast<std::size_t>(std::bit_width(v)); }
  /// Smallest value a bucket admits: 0 for bucket 0, else 2^(i-1).
  static std::uint64_t lower_bound(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Largest value bucket i admits (inclusive): 0, 1, 3, 7, ..., 2^i - 1.
  static std::uint64_t upper_bound(std::size_t i) {
    return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named-instrument registry. Lookup-or-create is mutex-guarded and may
/// allocate (setup time); returned references are stable for the process
/// lifetime, so hot sites cache them once. Export iterates sorted by
/// name, so output order never depends on registration races.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every instrument's value (names stay registered). Run scoping:
  /// the harness resets before the measured phase, tests reset between
  /// cases.
  void reset_values();

  /// Prometheus-style text exposition, sorted by name: counters/gauges
  /// as `mmx_<name> <value>`, histograms as cumulative `_bucket{le=...}`
  /// lines plus `_sum`/`_count`. Dots in names become underscores.
  std::string prometheus_text() const;

  /// Visit every instrument sorted by name. `kind` is 'c', 'g' or 'h'.
  void for_each(const std::function<void(const std::string& name, char kind, const Counter*,
                                         const Gauge*, const Histogram*)>& fn) const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace mmx::obs

// --- Instrumentation macros -------------------------------------------------
//
// Every macro is safe in any context a statement is. The function-local
// static caches the registry handle so steady state is branch + relaxed
// atomic op.
#define MMX_OBS_CAT_(a, b) a##b
#define MMX_OBS_CAT(a, b) MMX_OBS_CAT_(a, b)

#define MMX_OBS_COUNT(name, n)                                              \
  do {                                                                      \
    if (::mmx::obs::enabled()) {                                            \
      static ::mmx::obs::Counter& MMX_OBS_CAT(mmx_obs_c_, __LINE__) =       \
          ::mmx::obs::Registry::global().counter(name);                     \
      MMX_OBS_CAT(mmx_obs_c_, __LINE__).add(static_cast<std::uint64_t>(n)); \
    }                                                                       \
  } while (0)

#define MMX_OBS_GAUGE_SET(name, v)                                         \
  do {                                                                     \
    if (::mmx::obs::enabled()) {                                           \
      static ::mmx::obs::Gauge& MMX_OBS_CAT(mmx_obs_g_, __LINE__) =        \
          ::mmx::obs::Registry::global().gauge(name);                      \
      MMX_OBS_CAT(mmx_obs_g_, __LINE__).set(static_cast<std::int64_t>(v)); \
    }                                                                      \
  } while (0)

#define MMX_OBS_RECORD(name, v)                                               \
  do {                                                                        \
    if (::mmx::obs::enabled()) {                                              \
      static ::mmx::obs::Histogram& MMX_OBS_CAT(mmx_obs_h_, __LINE__) =       \
          ::mmx::obs::Registry::global().histogram(name);                     \
      MMX_OBS_CAT(mmx_obs_h_, __LINE__).record(static_cast<std::uint64_t>(v)); \
    }                                                                         \
  } while (0)
