// Fault-injection contract tests (ctest label: faults).
//
// Three claims are pinned here. (1) A FaultPlan is a pure function of
// (config, duration, seed). (2) A fault-injected scale run keeps the
// sweep engine's determinism contract: bit-identical reports at any
// refresh thread count, reproducible per seed — faults included. (3) The
// recovery paths actually recover: zombies get reaped, escalations
// rejoin, outages close, and the default storm's exact accounting is
// pinned as golden integers so any behavioral drift is a visible diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "mmx/sim/faults.hpp"
#include "mmx/sim/scale_scenario.hpp"

namespace mmx::sim {
namespace {

// Same fast-but-representative shape as the scale-lane tests, plus the
// pinned default fault storm. Two simulated seconds so down times
// (0.4 s), reap silences (0.5 s) and capped backoffs all play out.
ScaleConfig faulty_config(std::size_t nodes = 120) {
  ScaleConfig cfg = make_scale_config(nodes);
  cfg.duration_s = 2.0;
  cfg.join_window_s = 0.5;
  cfg.churn_interval_s = 0.25;
  cfg.measure_interval_s = 0.0625;
  cfg.move_fraction = 0.05;
  cfg.leave_fraction = 0.02;
  cfg.faults = make_fault_storm();
  return cfg;
}

TEST(FaultPlan, IsAPureFunctionOfConfigDurationSeed) {
  const FaultConfig cfg = make_fault_storm();
  const FaultPlan a = FaultPlan::compile(cfg, 4.0, 99);
  const FaultPlan b = FaultPlan::compile(cfg, 4.0, 99);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_GT(a.events().size(), 0u);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].t_s, b.events()[i].t_s);
    EXPECT_EQ(a.events()[i].duration_s, b.events()[i].duration_s);
    EXPECT_EQ(a.events()[i].rng_index, b.events()[i].rng_index);
  }
  // A different seed reshuffles the schedule.
  const FaultPlan c = FaultPlan::compile(cfg, 4.0, 100);
  ASSERT_EQ(c.events().size(), a.events().size());  // counts are rate-driven
  bool any_differs = false;
  for (std::size_t i = 0; i < a.events().size(); ++i)
    any_differs = any_differs || a.events()[i].t_s != c.events()[i].t_s;
  EXPECT_TRUE(any_differs);
}

TEST(FaultPlan, EventCountsFollowRatesAndScheduleIsSorted) {
  FaultConfig cfg = make_fault_storm();
  cfg.storm_rate_hz = 2.0;
  cfg.power_cycle_rate_hz = 3.0;
  cfg.revoke_rate_hz = 1.0;
  const double duration_s = 4.0;
  const FaultPlan plan = FaultPlan::compile(cfg, duration_s, 7);

  std::size_t storms = 0, cycles = 0, revokes = 0;
  for (std::size_t i = 0; i < plan.events().size(); ++i) {
    const FaultEvent& ev = plan.events()[i];
    switch (ev.kind) {
      case FaultEvent::Kind::kStorm: ++storms; break;
      case FaultEvent::Kind::kPowerCycle: ++cycles; break;
      case FaultEvent::Kind::kRevoke: ++revokes; break;
    }
    EXPECT_GE(ev.t_s, 0.0);
    EXPECT_LE(ev.t_s, duration_s);
    if (i > 0) {
      EXPECT_GE(ev.t_s, plan.events()[i - 1].t_s);  // time-sorted
    }
  }
  EXPECT_EQ(storms, 8u);    // 2 Hz * 4 s
  EXPECT_EQ(cycles, 12u);   // 3 Hz * 4 s
  EXPECT_EQ(revokes, 4u);   // 1 Hz * 4 s
}

TEST(FaultPlan, DisabledConfigCompilesToAnEmptySchedule) {
  const FaultPlan plan = FaultPlan::compile(FaultConfig{}, 8.0, 1);
  EXPECT_TRUE(plan.events().empty());
}

TEST(FaultPlan, RejectsInvalidConfigs) {
  const auto compile = [](FaultConfig cfg) { return FaultPlan::compile(cfg, 1.0, 0); };
  FaultConfig bad = make_fault_storm();
  bad.storm_rate_hz = -1.0;
  EXPECT_THROW(compile(bad), std::invalid_argument);
  bad = make_fault_storm();
  bad.storm_fraction = 1.5;
  EXPECT_THROW(compile(bad), std::invalid_argument);
  bad = make_fault_storm();
  bad.arq_giveups_to_rejoin = -1;
  EXPECT_THROW(compile(bad), std::invalid_argument);
  bad = make_fault_storm();
  bad.timeout_skew_frac = 1.0;
  EXPECT_THROW(compile(bad), std::invalid_argument);
  // NaN slips past a plain `< 0` test; an infinite rate would make the
  // event count garbage.
  bad = make_fault_storm();
  bad.power_cycle_rate_hz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(compile(bad), std::invalid_argument);
  bad = make_fault_storm();
  bad.revoke_rate_hz = std::numeric_limits<double>::infinity();
  EXPECT_THROW(compile(bad), std::invalid_argument);
  bad = make_fault_storm();
  bad.ack_loss_frac = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(compile(bad), std::invalid_argument);
  EXPECT_THROW(FaultPlan::compile(make_fault_storm(), 0.0, 0), std::invalid_argument);
}

TEST(FaultScenario, DisabledLayerEqualsZeroRateEnabledLayer) {
  // The enabled code path with every rate/probability at zero must
  // reproduce the fault-free run's report exactly: the extra machinery
  // (liveness notes, reaping sweeps, pacing gates) draws nothing and
  // changes nothing.
  ScaleConfig off = faulty_config();
  off.faults = FaultConfig{};
  ScaleConfig zeroed = off;
  zeroed.faults.enabled = true;
  const ScaleReport a = ScaleScenario(off).run(21);
  const ScaleReport b = ScaleScenario(zeroed).run(21);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.faults, FaultStats{});
}

TEST(FaultScenario, DisabledKnobsAreInert) {
  // Every rate and knob set EXCEPT the master switch — the reaper timeout
  // even below one round, which an enabled layer would reject: the run
  // must equal one with FaultConfig{}. A disabled layer is the zero-rate
  // layer, whatever its other fields say.
  ScaleConfig plain = faulty_config();
  plain.faults = FaultConfig{};
  ScaleConfig knobs = plain;
  knobs.faults = make_fault_storm();
  knobs.faults.enabled = false;
  knobs.faults.reap_timeout_s = plain.measure_interval_s / 2.0;
  const ScaleReport a = ScaleScenario(plain).run(21);
  const ScaleReport b = ScaleScenario(knobs).run(21);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.faults, FaultStats{});
}

TEST(FaultScenario, ReportIsBitIdenticalAcrossRefreshThreads) {
  // The tentpole contract: a full fault storm — reaps, rejoins, storms,
  // revocations — stays bit-identical at any refresh_threads, for more
  // than one seed.
  for (const std::uint64_t seed : {3ULL, 17ULL}) {
    ScaleConfig cfg = faulty_config();
    cfg.refresh_threads = 1;
    const ScaleReport r1 = ScaleScenario(cfg).run(seed);
    cfg.refresh_threads = 2;
    const ScaleReport r2 = ScaleScenario(cfg).run(seed);
    cfg.refresh_threads = 8;
    const ScaleReport r8 = ScaleScenario(cfg).run(seed);
    EXPECT_EQ(r1, r2) << "seed " << seed;
    EXPECT_EQ(r1, r8) << "seed " << seed;
    EXPECT_EQ(r1.mean_snr_db, r8.mean_snr_db) << "seed " << seed;
    EXPECT_EQ(r1.delivery_ratio, r8.delivery_ratio) << "seed " << seed;
  }
}

TEST(FaultScenario, SameSeedReproducesDifferentSeedDiverges) {
  const ScaleScenario scenario(faulty_config());
  const ScaleReport a = scenario.run(5);
  const ScaleReport b = scenario.run(5);
  const ScaleReport c = scenario.run(6);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(FaultScenario, CachedArmEqualsUncachedArmUnderFaults) {
  ScaleConfig cached = faulty_config();
  ScaleConfig uncached = cached;
  cached.use_cache = true;
  uncached.use_cache = false;
  const ScaleReport a = ScaleScenario(cached).run(9);
  const ScaleReport b = ScaleScenario(uncached).run(9);
  EXPECT_EQ(a, b);
}

TEST(FaultScenario, GoldenDefaultStormAccounting) {
  // Exact integer accounting of the pinned default storm (seed 61444).
  // These are golden values: a diff here means fault semantics changed
  // and docs/ROBUSTNESS.md + the bench baseline must be re-derived.
  const ScaleReport r = ScaleScenario(faulty_config()).run(0xF004);

  EXPECT_EQ(r.faults.storms, 2u);
  EXPECT_EQ(r.faults.power_cycles, 8u);
  EXPECT_EQ(r.faults.revocations, 4u);
  EXPECT_EQ(r.faults.acks_lost, 45u);
  EXPECT_EQ(r.faults.acks_corrupted, 17u);
  EXPECT_EQ(r.faults.reaped, 5u);
  EXPECT_EQ(r.faults.escalations, 42u);
  EXPECT_EQ(r.faults.rejoin_attempts, 40u);
  EXPECT_EQ(r.faults.recoveries, 42u);
  EXPECT_EQ(r.faults.recovery_rounds_sum, 82u);
  EXPECT_EQ(r.joins, 177u);
  EXPECT_EQ(r.granted, 177u);
  EXPECT_EQ(r.denied, 0u);
  EXPECT_EQ(r.leaves, 15u);
  EXPECT_EQ(r.arq.transmissions, 3326u);
  EXPECT_EQ(r.arq.delivered, 1880u);
  EXPECT_EQ(r.arq.gave_up, 220u);
  EXPECT_EQ(r.arq.duplicate_acks, 17u);
  EXPECT_EQ(r.measure_rounds, 32u);
  EXPECT_EQ(r.link_evals, 3330u);
}

TEST(FaultScenario, RecoveryPathsActuallyRecover) {
  const ScaleReport r = ScaleScenario(faulty_config()).run(12);
  // Every fault class fired...
  EXPECT_GT(r.faults.storms, 0u);
  EXPECT_GT(r.faults.power_cycles, 0u);
  EXPECT_GT(r.faults.revocations, 0u);
  EXPECT_GT(r.faults.acks_lost, 0u);
  // ...and the network healed: zombie grants were reaped, backoff rejoins
  // happened and closed outages.
  EXPECT_GT(r.faults.reaped, 0u);
  EXPECT_GT(r.faults.rejoin_attempts, 0u);
  EXPECT_GT(r.faults.recoveries, 0u);
  // Accounting sanity: every recovery went through a successful
  // registration, so join identities stay balanced.
  EXPECT_EQ(r.joins, r.granted + r.denied);
  // The storm hurts but the MAC keeps the floor: most resolved payloads
  // still deliver.
  EXPECT_GT(r.delivery_ratio, 0.5);
  EXPECT_LT(r.delivery_ratio, 1.0);
}

TEST(FaultScenario, ZombieGrantsAreReapedAndSpectrumIsReusable) {
  // Power-cycles only: a cycled grant-holder leaves a zombie grant that
  // nothing but the reaper can reclaim. With reaping working, rebooted
  // nodes re-acquire and the run keeps granting.
  ScaleConfig cfg = faulty_config();
  cfg.faults = FaultConfig{};
  cfg.faults.enabled = true;
  cfg.faults.power_cycle_rate_hz = 8.0;
  cfg.faults.power_cycle_down_s = 0.2;
  cfg.faults.reap_timeout_s = 0.3;
  const ScaleReport r = ScaleScenario(cfg).run(4);
  EXPECT_GT(r.faults.power_cycles, 0u);
  EXPECT_GT(r.faults.reaped, 0u);
  EXPECT_GT(r.faults.rejoin_attempts, 0u);
  EXPECT_GT(r.faults.recoveries, 0u);
  EXPECT_EQ(r.faults.storms, 0u);
  EXPECT_EQ(r.faults.acks_lost, 0u);
}

TEST(FaultStats, ParticipatesInReportEquality) {
  ScaleReport a, b;
  EXPECT_EQ(a, b);
  b.faults.storms = 1;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace mmx::sim
