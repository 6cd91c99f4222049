// Scale-lane contract tests (ctest label: scale). Small populations —
// the full 10^4-node configuration lives in bench_scale_churn — but the
// invariants proven here are exactly the ones the bench relies on:
// cached == uncached bit-for-bit, thread-count invariance, and
// seed-deterministic accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "mmx/common/rng.hpp"
#include "mmx/sim/scale_scenario.hpp"

namespace mmx::sim {
namespace {

// A fast-but-representative configuration: enough nodes to exercise
// grants, denials (narrowed band), churn, and the crowd; ~1 s simulated.
// Churn fractions are scaled up so the per-tick slices stay non-zero at
// this population (the 10^4-node defaults round to zero here).
ScaleConfig small_config(std::size_t nodes = 150) {
  ScaleConfig cfg = make_scale_config(nodes);
  cfg.duration_s = 1.0;
  cfg.join_window_s = 0.5;
  cfg.churn_interval_s = 0.25;
  cfg.measure_interval_s = 0.125;
  cfg.move_fraction = 0.05;
  cfg.leave_fraction = 0.02;
  return cfg;
}

TEST(ScaleScenario, CachedReportEqualsUncachedReport) {
  ScaleConfig cached_cfg = small_config();
  ScaleConfig uncached_cfg = cached_cfg;
  cached_cfg.use_cache = true;
  uncached_cfg.use_cache = false;

  const ScaleReport cached = ScaleScenario(cached_cfg).run(7);
  const ScaleReport uncached = ScaleScenario(uncached_cfg).run(7);

  // The pinned claim of docs/SCALING.md: the cache changes wall-clock
  // only. Every simulated quantity — protocol counters and the physics
  // the MAC consumed — must match to the last bit.
  EXPECT_EQ(cached, uncached);
  EXPECT_EQ(cached.mean_snr_db, uncached.mean_snr_db);
  EXPECT_EQ(cached.mean_joint_ber, uncached.mean_joint_ber);
  EXPECT_EQ(cached.delivery_ratio, uncached.delivery_ratio);
  EXPECT_EQ(cached.arq.transmissions, uncached.arq.transmissions);
  // The frame-success memo is keyed on the BER value, which both arms
  // compute to the same bits, so it misses on the same polls.
  EXPECT_EQ(cached.frame_evals, uncached.frame_evals);

  // Sanity on the arms themselves: the cached run actually used the
  // cache, the uncached run never touched it.
  EXPECT_GT(cached.cache.hits + cached.cache.refills, 0u);
  EXPECT_EQ(uncached.cache.hits, 0u);
  EXPECT_EQ(uncached.cache_refills, 0u);
}

TEST(ScaleScenario, RefreshThreadCountDoesNotChangeTheReport) {
  ScaleConfig one = small_config();
  ScaleConfig four = small_config();
  one.refresh_threads = 1;
  four.refresh_threads = 4;
  const ScaleReport r1 = ScaleScenario(one).run(11);
  const ScaleReport r4 = ScaleScenario(four).run(11);
  EXPECT_EQ(r1, r4);
  EXPECT_EQ(r1.cache_refills, r4.cache_refills);
  EXPECT_EQ(r1.cache.revalidated, r4.cache.revalidated);
  EXPECT_EQ(r1.cache.invalidated, r4.cache.invalidated);
  EXPECT_EQ(r1.frame_evals, r4.frame_evals);
}

TEST(ScaleScenario, SameSeedReproducesDifferentSeedDiverges) {
  const ScaleScenario scenario(small_config());
  const ScaleReport a = scenario.run(42);
  const ScaleReport b = scenario.run(42);
  const ScaleReport c = scenario.run(43);
  EXPECT_EQ(a, b);
  // Different crowd walks and churn draws must leave a visible trace in
  // the channel statistics.
  EXPECT_FALSE(a == c);
}

TEST(ScaleScenario, AccountingInvariantsHold) {
  const ScaleConfig cfg = small_config();
  const ScaleReport r = ScaleScenario(cfg).run(3);

  EXPECT_EQ(r.joins, r.granted + r.denied);
  // Initial joins plus power-cycle rejoins from the leave slices.
  EXPECT_GT(r.joins, cfg.nodes);
  EXPECT_GT(r.leaves, 0u);
  EXPECT_GT(r.moves, 0u);
  EXPECT_GT(r.granted, 0u);
  EXPECT_GT(r.measure_rounds, 0u);
  // Every round polls every resident thing; rounds inside the join
  // window see a partial population, so the total is bounded by the
  // full-population product and from below by the post-join rounds
  // (the join window spans the first half of the run).
  EXPECT_LE(r.link_evals, r.measure_rounds * cfg.nodes);
  EXPECT_GT(r.link_evals, r.measure_rounds * cfg.nodes / 2);
  // The crowd advanced once per churn tick.
  EXPECT_EQ(r.blocker_updates,
            static_cast<std::size_t>(cfg.duration_s / cfg.churn_interval_s));
  EXPECT_GT(r.arq.transmissions, 0u);
  // A frame is priced only when transmitted, and only when its link's BER
  // moved since the thing's last frame: a still link reuses its price.
  EXPECT_GT(r.frame_evals, 0u);
  EXPECT_LT(r.frame_evals, r.link_evals);
  EXPECT_LT(r.frame_evals, r.arq.transmissions);
  EXPECT_GE(r.delivery_ratio, 0.0);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_GT(r.mean_rate_bps, 0.0);
}

TEST(ScaleScenario, NarrowBandDeniesAndRetriesKeepThingsResident) {
  // Shrink the band until the allocator cannot grant everyone: denied
  // joiners must stay resident (tracked), retry on churn ticks, and the
  // run must still complete with coherent accounting.
  ScaleConfig cfg = small_config(120);
  cfg.sim.band_low_hz = 57.0e9;
  cfg.sim.band_high_hz = 57.08e9;  // room for ~dozens of channels, not 120
  const ScaleReport r = ScaleScenario(cfg).run(5);
  EXPECT_GT(r.denied, 0u);
  EXPECT_GT(r.granted, 0u);
  EXPECT_EQ(r.joins, r.granted + r.denied);
  // Retries happen: leaves free spectrum, and each leave lets one denied
  // thing re-request, so join attempts exceed population + power-cycles.
  EXPECT_GT(r.joins, static_cast<std::size_t>(cfg.nodes) + r.leaves);
  // Residency: denied things still get polled every round (bounded below
  // by the post-join-window rounds, as above).
  EXPECT_LE(r.link_evals, r.measure_rounds * cfg.nodes);
  EXPECT_GT(r.link_evals, r.measure_rounds * cfg.nodes / 2);
}

// Expects the constructor to reject `cfg` with an invalid_argument whose
// message names `field`.
void expect_rejected(const ScaleConfig& cfg, const std::string& field) {
  try {
    const ScaleScenario scenario(cfg);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ScaleScenarioConfig, RejectsNonFiniteNegativeOrOverOneFractions) {
  // A negative fraction would cast a negative llround() to size_t and
  // spin the churn loop ~2^64 times.
  for (const double bad : {-0.01, kNaN, kInf, 1.5}) {
    ScaleConfig cfg = small_config();
    cfg.move_fraction = bad;
    expect_rejected(cfg, "move_fraction");
    cfg = small_config();
    cfg.leave_fraction = bad;
    expect_rejected(cfg, "leave_fraction");
  }
}

TEST(ScaleScenarioConfig, RejectsNonFiniteOrNonPositiveIntervals) {
  // A NaN interval passes a plain `<= 0` check and schedules no rounds.
  for (const double bad : {0.0, -0.125, kNaN, kInf}) {
    ScaleConfig cfg = small_config();
    cfg.measure_interval_s = bad;
    expect_rejected(cfg, "measure_interval_s");
    cfg = small_config();
    cfg.churn_interval_s = bad;
    expect_rejected(cfg, "churn_interval_s");
  }
}

TEST(ScaleScenarioConfig, RejectsNonFiniteOrNonPositiveDuration) {
  for (const double bad : {0.0, -1.0, kNaN, kInf}) {
    ScaleConfig cfg = small_config();
    cfg.duration_s = bad;
    expect_rejected(cfg, "duration_s");
  }
}

TEST(ScaleScenarioConfig, RejectsNonFiniteOrNonPositiveNodeRate) {
  for (const double bad : {0.0, -0.5e6, kNaN, kInf}) {
    ScaleConfig cfg = small_config();
    cfg.node_rate_bps = bad;
    expect_rejected(cfg, "node_rate_bps");
  }
}

TEST(ScaleScenarioConfig, RejectsNonFiniteOrNonPositiveFrameBits) {
  for (const double bad : {0.0, -1000.0, kNaN, kInf}) {
    ScaleConfig cfg = small_config();
    cfg.frame_bits = bad;
    expect_rejected(cfg, "frame_bits");
  }
}

TEST(ScaleScenarioConfig, RejectsNegativeOrNonFiniteJoinWindow) {
  for (const double bad : {-0.5, kNaN, kInf}) {
    ScaleConfig cfg = small_config();
    cfg.join_window_s = bad;
    expect_rejected(cfg, "join_window_s");
  }
  // Everyone arriving at t = 0 is a legal storm.
  ScaleConfig burst = small_config(20);
  burst.join_window_s = 0.0;
  const ScaleReport r = ScaleScenario(burst).run(1);
  EXPECT_GE(r.joins, burst.nodes);
  EXPECT_EQ(r.joins, r.granted + r.denied);
}

TEST(ScaleScenarioConfig, RejectsAReaperNoSlowerThanOneRound) {
  // A polled thing is heard once per round: a reap timeout at or below
  // the round length would reclaim healthy grants every round.
  ScaleConfig cfg = small_config();
  cfg.faults = make_fault_storm();
  cfg.faults.reap_timeout_s = cfg.measure_interval_s;
  expect_rejected(cfg, "faults.reap_timeout_s");
  // A disabled layer ignores its knobs, this one included.
  cfg.faults.enabled = false;
  EXPECT_NO_THROW(ScaleScenario{cfg});
  // But it is FaultConfig{}, whose reaper runs on the default timeout: a
  // round that long is rejected with the layer off as well.
  cfg.measure_interval_s = FaultConfig{}.reap_timeout_s;
  expect_rejected(cfg, "faults.reap_timeout_s");
}

TEST(ScaleScenarioConfig, RandomConfigsCompleteOrThrowTyped) {
  // Small randomized configs, invalid values included: each one either
  // throws std::invalid_argument or completes with coherent accounting.
  const auto pick = [](Rng& rng, double lo, double hi) {
    const int roll = rng.uniform_int(0, 29);  // one value in ten is invalid
    if (roll == 0) return kNaN;
    if (roll == 1) return -rng.uniform(lo, hi);
    if (roll == 2) return rng.chance(0.5) ? 0.0 : kInf;
    return rng.uniform(lo, hi);
  };
  std::size_t completed = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    ScaleConfig cfg = make_scale_config(static_cast<std::size_t>(rng.uniform_int(1, 10)));
    cfg.sim.band_high_hz = cfg.sim.band_low_hz + rng.uniform(2e6, 20e6);  // some denies
    cfg.duration_s = pick(rng, 0.1, 2.0);
    cfg.join_window_s = pick(rng, 0.0, 1.0);
    cfg.churn_interval_s = pick(rng, 0.05, 0.5);
    cfg.measure_interval_s = pick(rng, 0.01, 0.25);
    cfg.move_fraction = pick(rng, 0.0, 1.0);
    cfg.leave_fraction = pick(rng, 0.0, 1.0);
    if (rng.chance(0.5)) {
      cfg.faults = make_fault_storm();
      cfg.faults.reap_timeout_s = pick(rng, 0.05, 1.0);
      cfg.faults.power_cycle_rate_hz = pick(rng, 0.0, 8.0);
      cfg.faults.storm_fraction = rng.uniform(0.0, 1.2);  // > 1 is invalid
    }
    if (rng.chance(0.5)) {
      cfg.sim.init.overload.enabled = true;
      cfg.sim.init.overload.min_rate_bps = cfg.node_rate_bps / 4.0;
      cfg.sim.init.overload.shedding = rng.chance(0.5);
      cfg.high_priority_period = static_cast<std::size_t>(rng.uniform_int(0, 3));
    }
    ScaleReport r;
    try {
      r = ScaleScenario(cfg).run(seed);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++completed;
    EXPECT_EQ(r.joins, r.granted + r.denied) << "seed " << seed;
    EXPECT_EQ(r.overload.invariant_violations, 0u) << "seed " << seed;
    EXPECT_GE(r.delivery_ratio, 0.0) << "seed " << seed;
    EXPECT_LE(r.delivery_ratio, 1.0) << "seed " << seed;
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(completed, 5u);
  EXPECT_GT(rejected, 5u);
}

}  // namespace
}  // namespace mmx::sim
