// mmx::obs contracts: exact log2 bucket boundaries, registry identity
// and sorted export, runtime-disabled silence, thread-count-invariant
// merged traces (the determinism contract of docs/OBSERVABILITY.md),
// and chrome-trace export well-formedness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mmx/obs/export.hpp"
#include "mmx/obs/obs.hpp"
#include "mmx/obs/trace.hpp"
#include "mmx/sim/scale_scenario.hpp"
#include "mmx/sim/sweep.hpp"

namespace {

using namespace mmx;

// Fresh collection scope: instruments zeroed, trace buffers empty.
void reset_obs(bool enable) {
  obs::set_enabled(enable);
  obs::Registry::global().reset_values();
  obs::TraceSink::global().clear();
}

// Merged trace normalized for cross-run comparison: SweepRunner span
// keys carry a per-process run generation in the bits above 40, which
// advances between runs in the same process, so equality across two
// runs must compare (name, kind, trial bits, value) with the generation
// masked. Within one run the full key still orders the merge.
using NormalizedTrace = std::vector<std::tuple<std::string, int, std::uint64_t, std::uint64_t>>;

NormalizedTrace normalized_trace() {
  constexpr std::uint64_t kTrialMask = (std::uint64_t{1} << 40) - 1;
  NormalizedTrace out;
  const auto& sink = obs::TraceSink::global();
  for (const obs::TraceSink::MergedEvent& m : sink.merged())
    out.emplace_back(sink.name(m.event.name_id), static_cast<int>(m.event.kind),
                     m.event.key & kTrialMask, m.event.value);
  return out;
}

// Counter snapshot (name -> value); gauges and span-duration histograms
// are excluded (high-water marks and wall-clock durations legitimately
// vary with scheduling).
std::map<std::string, std::uint64_t> counter_snapshot() {
  std::map<std::string, std::uint64_t> out;
  obs::Registry::global().for_each([&](const std::string& name, char kind,
                                       const obs::Counter* c, const obs::Gauge*,
                                       const obs::Histogram*) {
    if (kind == 'c') out[name] = c->value();
  });
  return out;
}

std::vector<std::uint64_t> histogram_buckets(const char* name) {
  std::vector<std::uint64_t> out(obs::Histogram::kBuckets, 0);
  const obs::Histogram& h = obs::Registry::global().histogram(name);
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) out[i] = h.bucket(i);
  return out;
}

TEST(Histogram, BucketBoundariesExactAtPowersOfTwo) {
  // bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  for (std::size_t k = 1; k < 64; ++k) {
    const std::uint64_t lo = std::uint64_t{1} << (k - 1);
    const std::uint64_t hi = (std::uint64_t{1} << k) - 1;
    EXPECT_EQ(obs::Histogram::bucket_of(lo), k) << "k=" << k;
    EXPECT_EQ(obs::Histogram::bucket_of(hi), k) << "k=" << k;
    EXPECT_EQ(obs::Histogram::bucket_of(hi + 1), k + 1) << "k=" << k;
    EXPECT_EQ(obs::Histogram::lower_bound(k), lo);
    EXPECT_EQ(obs::Histogram::upper_bound(k), hi);
  }
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(obs::Histogram::upper_bound(64), ~std::uint64_t{0});

  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket(3), 1u);  // {4..7}
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u);
}

TEST(Registry, LookupIsIdentityAndExportIsSorted) {
  reset_obs(true);
  obs::Counter& a = obs::Registry::global().counter("test.registry.zeta");
  obs::Counter& b = obs::Registry::global().counter("test.registry.zeta");
  EXPECT_EQ(&a, &b);  // same name, same instrument, stable address
  a.add(7);
  EXPECT_EQ(b.value(), 7u);

  obs::Registry::global().counter("test.registry.alpha").inc();
  obs::Registry::global().gauge("test.registry.mid").set(42);

  // for_each visits sorted by name regardless of registration order.
  std::vector<std::string> order;
  obs::Registry::global().for_each([&](const std::string& name, char, const obs::Counter*,
                                       const obs::Gauge*, const obs::Histogram*) {
    if (name.rfind("test.registry.", 0) == 0) order.push_back(name);
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "test.registry.alpha");
  EXPECT_EQ(order[1], "test.registry.mid");
  EXPECT_EQ(order[2], "test.registry.zeta");

  const std::string prom = obs::Registry::global().prometheus_text();
  EXPECT_NE(prom.find("# TYPE mmx_test_registry_zeta counter"), std::string::npos);
  EXPECT_NE(prom.find("mmx_test_registry_zeta 7"), std::string::npos);
  EXPECT_NE(prom.find("mmx_test_registry_mid 42"), std::string::npos);
  // Sorted exposition: alpha's line precedes zeta's.
  EXPECT_LT(prom.find("mmx_test_registry_alpha"), prom.find("mmx_test_registry_zeta"));

  obs::Registry::global().reset_values();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(obs::Registry::global().gauge("test.registry.mid").value(), 0);
}

TEST(Runtime, DisabledCollectionRecordsNothing) {
  reset_obs(false);
  for (int i = 0; i < 100; ++i) {
    MMX_OBS_COUNT("test.disabled.count", 3);
    MMX_OBS_GAUGE_SET("test.disabled.gauge", i);
    MMX_OBS_RECORD("test.disabled.hist", i);
    MMX_OBS_SPAN("test.disabled.span", i);
    MMX_OBS_SAMPLE("test.disabled.sample", i, i);
  }
  EXPECT_TRUE(obs::TraceSink::global().merged().empty());
  EXPECT_EQ(obs::TraceSink::global().dropped(), 0u);
  EXPECT_EQ(obs::Registry::global().counter("test.disabled.count").value(), 0u);
  EXPECT_EQ(obs::Registry::global().histogram("test.disabled.hist").count(), 0u);
}

TEST(Runtime, EnabledCollectionRecords) {
  reset_obs(true);
  MMX_OBS_COUNT("test.enabled.count", 2);
  MMX_OBS_COUNT("test.enabled.count", 3);
  { MMX_OBS_SPAN("test.enabled.span", 9); }
  MMX_OBS_SAMPLE("test.enabled.sample", 1, 55);
  EXPECT_EQ(obs::Registry::global().counter("test.enabled.count").value(), 5u);
  const auto merged = obs::TraceSink::global().merged();
  ASSERT_EQ(merged.size(), 2u);
  // Stable sort by key: the span (key 9) sorts after the sample (key 1).
  EXPECT_EQ(merged[0].event.kind, obs::EventKind::kSample);
  EXPECT_EQ(merged[0].event.value, 55u);
  EXPECT_EQ(merged[1].event.kind, obs::EventKind::kSpan);
  EXPECT_EQ(obs::TraceSink::global().name(merged[1].event.name_id), "test.enabled.span");
  // Span durations feed the "span.<name>.ns" histogram.
  EXPECT_EQ(obs::Registry::global().histogram("span.test.enabled.span.ns").count(), 1u);
}

TEST(Runtime, DigestExcludesTimestampsAndIsStable) {
  reset_obs(true);
  { MMX_OBS_SPAN("test.digest.span", 1); }
  const std::uint64_t d1 = obs::TraceSink::global().merged_digest();
  EXPECT_EQ(obs::TraceSink::global().merged_digest(), d1);  // pure
  { MMX_OBS_SPAN("test.digest.span", 2); }                  // same name, new key
  EXPECT_NE(obs::TraceSink::global().merged_digest(), d1);
}

TEST(Determinism, SweepTraceInvariantAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    reset_obs(true);
    sim::SweepRunner runner(sim::SweepConfig{.trials = 96, .threads = threads, .seed = 7});
    const auto result = runner.run([](std::size_t i, Rng& rng) {
      return rng.uniform(0.0, 1.0) + static_cast<double>(i);
    });
    return std::make_tuple(result.trials, normalized_trace(), counter_snapshot());
  };
  const auto [r1, t1, c1] = run(1);
  const auto [r2, t2, c2] = run(2);
  const auto [r8, t8, c8] = run(8);
  EXPECT_EQ(r1, r2);  // trial results bit-identical (existing contract)
  EXPECT_EQ(r1, r8);
  ASSERT_EQ(t1.size(), 96u);  // one span per trial
  EXPECT_EQ(t1, t2);          // merged trace: names/kinds/keys/values + order
  EXPECT_EQ(t1, t8);
  EXPECT_EQ(c1, c2);  // counter sums commute
  EXPECT_EQ(c1, c8);
  EXPECT_EQ(obs::TraceSink::global().dropped(), 0u);
}

TEST(Determinism, ScaleScenarioInvariantUnderObsAndThreads) {
  sim::ScaleConfig cfg = sim::make_scale_config(60);
  cfg.duration_s = 2.0;
  cfg.join_window_s = 0.5;
  cfg.walkers = 1;

  // Arm 1: obs off (the pre-obs behavior).
  reset_obs(false);
  const sim::ScaleReport plain = sim::ScaleScenario(cfg).run(3);

  // Arm 2: obs on, serial refresh.
  reset_obs(true);
  const sim::ScaleReport obs1 = sim::ScaleScenario(cfg).run(3);
  const auto trace1 = normalized_trace();
  const auto counters1 = counter_snapshot();
  const auto rates1 = histogram_buckets("scale.thing_rate_bps");

  // Arm 3: obs on, threaded refresh.
  cfg.refresh_threads = 4;
  reset_obs(true);
  const sim::ScaleReport obs4 = sim::ScaleScenario(cfg).run(3);
  const auto trace4 = normalized_trace();
  const auto counters4 = counter_snapshot();
  const auto rates4 = histogram_buckets("scale.thing_rate_bps");

  // Instrumentation never feeds back into simulation state...
  EXPECT_EQ(plain, obs1);
  EXPECT_EQ(plain, obs4);
  // ...and what it records is thread-count invariant.
  EXPECT_EQ(trace1, trace4);
  EXPECT_EQ(counters1, counters4);
  EXPECT_EQ(rates1, rates4);
  EXPECT_EQ(counters1.at("scale.joins"), static_cast<std::uint64_t>(obs1.joins));
  EXPECT_EQ(counters1.at("mac.arq.transmissions"), obs1.arq.transmissions);
  // The cache refresh is a plain chunk loop, not a sweep: its 64-node
  // blocks sit inside the sim.refresh_cache span and emit no per-block
  // sweep.trial spans at any thread count.
  const auto has_span = [](const NormalizedTrace& t, const std::string& name) {
    return std::any_of(t.begin(), t.end(), [&](const auto& e) { return std::get<0>(e) == name; });
  };
  EXPECT_TRUE(has_span(trace1, "sim.refresh_cache"));
  EXPECT_FALSE(has_span(trace1, "sweep.trial"));
  EXPECT_FALSE(has_span(trace4, "sweep.trial"));
}

TEST(Export, ChromeTraceJsonIsWellFormed) {
  reset_obs(true);
  { MMX_OBS_SPAN("test.export.span", 1); }
  MMX_OBS_SAMPLE("test.export.sample", 2, 17);
  const std::string json = obs::chrome_trace_json();

  // Required schema pieces of the Trace Event Format.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.export.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter sample
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

  // Braces/brackets balance outside strings — the round-trip smoke an
  // actual chrome://tracing load depends on.
  int brace = 0, bracket = 0;
  bool in_string = false, escaped = false;
  for (const char ch : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
      continue;
    }
    if (ch == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    brace += (ch == '{') - (ch == '}');
    bracket += (ch == '[') - (ch == ']');
    EXPECT_GE(brace, 0);
    EXPECT_GE(bracket, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

TEST(Trace, FullBufferDropsInsteadOfGrowing) {
  obs::set_enabled(true);
  obs::TraceSink::global().set_buffer_capacity(8);
  obs::TraceSink::global().clear();  // applies the capacity to this thread's buffer
  for (int i = 0; i < 20; ++i) MMX_OBS_SAMPLE("test.drop.sample", i, i);
  EXPECT_EQ(obs::TraceSink::global().merged().size(), 8u);
  EXPECT_EQ(obs::TraceSink::global().dropped(), 12u);
  obs::TraceSink::global().clear();
}

}  // namespace
