// Overload-control contract tests (ctest label: overload).
//
// Four claims are pinned here, per docs/ROBUSTNESS.md. (1) At the pinned
// 3x oversubscription lane the AP degrades gracefully instead of
// cliff-denying: admitted things keep delivery >= 0.80, nobody is ever
// granted below the configured rate floor, compaction actually fires,
// and the allocator's invariants never break. (2) The lane keeps the
// sweep engine's determinism contract: bit-identical reports at any
// refresh thread count, reproducible per seed. (3) Overload control
// composes with the fault storm. (4) With `overload.enabled` false every
// other overload knob is inert — the scenario is byte-identical to the
// pre-overload code path, which is what lets this PR ride next to the
// pinned fault goldens without touching them.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "mmx/sim/faults.hpp"
#include "mmx/sim/scale_scenario.hpp"

namespace mmx::sim {
namespace {

TEST(OverloadLane, PinnedLaneMeetsAcceptanceFloors) {
  const ScaleConfig cfg = make_overload_config();
  const ScaleReport rep = ScaleScenario(cfg).run(42);

  // ~3x more things than the band fits at full rate actually arrived.
  EXPECT_GT(cfg.nodes, 200u);
  EXPECT_GT(rep.denied, 0u);

  // Graceful degradation, not a denial cliff: the admitted population
  // keeps a usable link...
  EXPECT_GT(rep.overload.admitted, 0u);
  EXPECT_GE(rep.delivery_ratio, 0.80);
  // ...and rate demotion stops at the floor, never below it.
  EXPECT_GT(rep.overload.demotions, 0u);
  EXPECT_GT(rep.overload.admitted_below_request, 0u);
  EXPECT_GE(rep.overload.min_admitted_rate_bps,
            cfg.sim.init.overload.min_rate_bps - 1.0);
  EXPECT_GE(rep.overload.mean_admitted_rate_bps, rep.overload.min_admitted_rate_bps);

  // Fragmentation blocked an admissible demand at least once and
  // compaction cleared it, re-tuning the moved holders.
  EXPECT_GE(rep.overload.compactions, 1u);
  EXPECT_GT(rep.overload.retunes, 0u);

  // Denies carry occupancy-derived backoff hints and the hinted
  // population actually came back through the backoff path.
  EXPECT_GT(rep.overload.hinted_denies, 0u);
  EXPECT_GT(rep.overload.hint_delay_sum_s, 0.0);
  EXPECT_GT(rep.overload.backoff_retries, 0u);

  // The spectrum map never went inconsistent. Non-negotiable.
  EXPECT_EQ(rep.overload.invariant_violations, 0u);
}

TEST(OverloadLane, ReportBitIdenticalAcrossRefreshThreads) {
  ScaleConfig cfg = make_overload_config();
  cfg.refresh_threads = 1;
  const ScaleReport serial = ScaleScenario(cfg).run(7);
  cfg.refresh_threads = 8;
  const ScaleReport threaded = ScaleScenario(cfg).run(7);
  EXPECT_TRUE(serial == threaded);
  EXPECT_TRUE(serial.overload == threaded.overload);
}

TEST(OverloadLane, ReproduciblePerSeedAndSeedSensitive) {
  const ScaleScenario sc(make_overload_config());
  const ScaleReport a = sc.run(3);
  const ScaleReport b = sc.run(3);
  EXPECT_TRUE(a == b);
  const ScaleReport c = sc.run(4);
  EXPECT_FALSE(a == c);
}

TEST(OverloadLane, ComposesWithFaultStorm) {
  ScaleConfig cfg = make_overload_config();
  cfg.faults = make_fault_storm();
  cfg.refresh_threads = 1;
  const ScaleReport serial = ScaleScenario(cfg).run(11);
  // Both subsystems were live in the same run...
  EXPECT_GT(serial.faults.power_cycles, 0u);
  EXPECT_GT(serial.overload.hinted_denies, 0u);
  EXPECT_EQ(serial.overload.invariant_violations, 0u);
  // ...and their composition keeps the determinism contract.
  cfg.refresh_threads = 8;
  const ScaleReport threaded = ScaleScenario(cfg).run(11);
  EXPECT_TRUE(serial == threaded);
}

TEST(OverloadLane, MakeOverloadConfigRejectsNonFiniteOrNonPositive) {
  // NaN and inf pass a plain `<= 0` test, and llround() of either yields
  // a garbage population.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), kInf, -kInf})
    EXPECT_THROW(make_overload_config(bad), std::invalid_argument) << bad;
  EXPECT_GT(make_overload_config(0.5).nodes, 0u);
}

TEST(OverloadLane, DisabledKnobsAreInert) {
  // Every overload knob set EXCEPT the master switch: the report must be
  // bit-identical to the untouched config. This is the scenario-level
  // proof that the overload machinery is invisible until enabled.
  ScaleConfig base = make_scale_config(60);
  base.duration_s = 1.0;
  base.join_window_s = 0.4;
  base.churn_interval_s = 0.25;
  base.leave_fraction = 0.02;

  ScaleConfig knobs = base;
  knobs.sim.init.overload.min_rate_bps = base.node_rate_bps / 4.0;
  knobs.sim.init.overload.shedding = true;
  knobs.high_priority_period = 3;
  knobs.promote_every_rounds = 2;
  ASSERT_FALSE(knobs.sim.init.overload.enabled);

  const ScaleReport plain = ScaleScenario(base).run(5);
  const ScaleReport knobbed = ScaleScenario(knobs).run(5);
  EXPECT_TRUE(plain == knobbed);
  // And the overload accounting stays all-zero.
  EXPECT_TRUE(knobbed.overload == OverloadLaneReport{});
}

}  // namespace
}  // namespace mmx::sim
