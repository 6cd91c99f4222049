// Figure-level regression tests: compact versions of every bench's
// headline claim, run in CI so the paper reproduction cannot silently
// drift when models are refactored. EXPERIMENTS.md documents the full
// paper-vs-measured numbers; these tests pin the load-bearing ones.
#include <gtest/gtest.h>

#include <cmath>

#include "mmx/antenna/pattern_metrics.hpp"
#include "mmx/baseline/fixed_beam.hpp"
#include "mmx/baseline/platforms.hpp"
#include "mmx/channel/blockage.hpp"
#include "mmx/channel/presets.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/phy/ber.hpp"
#include "mmx/rf/vco.hpp"
#include "mmx/sim/network_sim.hpp"
#include "mmx/sim/stats.hpp"
#include "trace_paths.hpp"

namespace mmx {
namespace {

channel::Room furnished_lab() { return channel::furnished_lab(); }

TEST(Fig07, VcoEndpointsAndIsmCoverage) {
  rf::Vco vco;
  EXPECT_NEAR(vco.frequency_hz(3.5), 23.95e9, 1e6);
  EXPECT_NEAR(vco.frequency_hz(4.9), 24.25e9, 1e6);
  EXPECT_TRUE(vco.covers(kIsmLowHz));
  EXPECT_TRUE(vco.covers(kIsmHighHz));
}

TEST(Fig08, BeamGeometry) {
  antenna::MmxBeamPair pair;
  const antenna::Pattern p0 = [&](double t) { return pair.amplitude(0, t); };
  const antenna::Pattern p1 = [&](double t) { return pair.amplitude(1, t); };
  const auto peak1 = antenna::find_peak(p1, -kPi / 2.0, kPi / 2.0);
  EXPECT_NEAR(rad_to_deg(peak1.angle), 0.0, 1.5);
  const auto peak0 = antenna::find_peak(p0, 0.0, kPi / 2.0);
  EXPECT_NEAR(rad_to_deg(peak0.angle), 30.0, 5.0);
  EXPECT_GT(antenna::depth_below_peak_db(p0, 0.0), 40.0);
}

TEST(Fig10, OtamNeverLosesToFixedBeam) {
  // Per-placement: OTAM's joint BER <= the fixed-beam baseline's, with
  // the blocked-LoS person in place; and OTAM's worst SNR stays usable.
  Rng rng(42);
  const channel::Pose ap{{2.0, 5.9}, -kPi / 2.0};
  antenna::MmxBeamPair beams;
  antenna::Dipole ap_ant;
  sim::LinkBudget budget;
  rf::SpdtSwitch spdt;
  double worst_otam = 1e9;
  for (int i = 0; i < 30; ++i) {
    const Vec2 pos{rng.uniform(0.5, 3.5), rng.uniform(0.3, 4.8)};
    channel::Room room = furnished_lab();
    channel::park_person(room, pos, ap.position);
    const auto paths = test::trace_paths(room, pos, ap.position);
    const double toward = (ap.position - pos).angle();
    const channel::Pose node{pos, toward + deg_to_rad(rng.uniform(-60.0, 60.0))};
    const auto modes = baseline::compare_modes_avg(paths, node, beams, ap, ap_ant,
                                                   24.125e9, budget, spdt);
    EXPECT_LE(modes.with_otam.joint_ber, modes.without_otam.joint_ber + 1e-12);
    worst_otam = std::min(worst_otam, modes.with_otam.snr_db);
  }
  EXPECT_GT(worst_otam, 0.0);
}

TEST(Fig11, BerCdfOrdering) {
  Rng rng(11);
  const channel::Pose ap{{2.0, 5.9}, -kPi / 2.0};
  antenna::MmxBeamPair beams;
  antenna::Dipole ap_ant;
  sim::LinkBudget budget;
  rf::SpdtSwitch spdt;
  std::vector<double> with_otam;
  std::vector<double> without;
  for (int i = 0; i < 30; ++i) {
    const Vec2 pos{rng.uniform(0.5, 3.5), rng.uniform(0.3, 4.8)};
    channel::Room room = furnished_lab();
    channel::park_person(room, pos, ap.position);
    const auto paths = test::trace_paths(room, pos, ap.position);
    const double toward = (ap.position - pos).angle();
    const channel::Pose node{pos, toward + deg_to_rad(rng.uniform(-60.0, 60.0))};
    const auto modes = baseline::compare_modes_avg(paths, node, beams, ap, ap_ant,
                                                   24.125e9, budget, spdt);
    with_otam.push_back(std::max(phy::kBerFloor, modes.with_otam.joint_ber));
    without.push_back(std::max(phy::kBerFloor, modes.without_otam.joint_ber));
  }
  // The paper's qualitative result: OTAM's distribution sits left of the
  // baseline at the median and the 90th percentile.
  EXPECT_LE(sim::median(with_otam), sim::median(without));
  EXPECT_LT(sim::percentile(with_otam, 90.0), sim::percentile(without, 90.0));
}

TEST(Fig12, RangeAnchors) {
  channel::Room hall(22.0, 8.0);
  const channel::Pose ap{{21.0, 4.0}, kPi};
  antenna::MmxBeamPair beams;
  antenna::Dipole ap_ant;
  sim::LinkBudget budget;
  rf::SpdtSwitch spdt;
  const channel::Pose facing{{3.0, 4.0}, 0.0};            // 18 m out
  const channel::Pose away{{3.0, 4.0}, deg_to_rad(45.0)};
  const auto paths = test::trace_paths(hall, facing.position, ap.position);
  const auto gf = channel::compute_beam_gains(paths, facing, beams, ap, ap_ant, 24.125e9);
  const auto ga = channel::compute_beam_gains(paths, away, beams, ap, ap_ant, 24.125e9);
  const double snr_facing = budget.evaluate_otam(gf, spdt).snr_db;
  const double snr_away = budget.evaluate_otam(ga, spdt).snr_db;
  // Paper: >= 15 dB facing, ~9 dB not facing, at 18 m.
  EXPECT_NEAR(snr_facing, 15.0, 4.0);
  EXPECT_NEAR(snr_away, 9.0, 4.0);
  EXPECT_GT(snr_facing, snr_away);
}

TEST(Fig13, MultiNodeShape) {
  Rng rng(99);
  auto mean_sinr_at = [&](int k) {
    std::vector<double> all;
    for (int trial = 0; trial < 12; ++trial) {
      sim::NetworkSimulator net(channel::Room(6.0, 4.0), channel::Pose{{5.7, 2.0}, kPi});
      int placed = 0;
      int attempts = 0;
      while (placed < k && attempts < 50 * k) {
        ++attempts;
        const channel::Pose pose{{rng.uniform(0.4, 5.2), rng.uniform(0.4, 3.6)},
                                 deg_to_rad(rng.uniform(-60.0, 60.0))};
        if (net.add_node(pose, 20e6)) ++placed;
      }
      for (const auto& [id, s] : net.sinr_all_db()) all.push_back(s);
    }
    return sim::mean(all);
  };
  const double m1 = mean_sinr_at(1);
  const double m20 = mean_sinr_at(20);
  EXPECT_GT(m1, 20.0);   // strong single-node links
  EXPECT_GT(m20, 12.0);  // still robust at 20 simultaneous nodes
  EXPECT_LT(m1 - m20, 15.0);  // graceful, not catastrophic, decline
}

TEST(Table1, HeadlineNumbers) {
  const auto rows = baseline::table1_platforms();
  const auto& mmx_row = baseline::platform(rows, "mmX");
  EXPECT_NEAR(mmx_row.power_w, 1.1, 0.01);
  EXPECT_NEAR(mmx_row.cost_usd, 110.0, 1.0);
  EXPECT_NEAR(mmx_row.energy_per_bit_nj(), 11.0, 0.2);
  EXPECT_LT(mmx_row.energy_per_bit_nj(),
            baseline::platform(rows, "WiFi (802.11n)").energy_per_bit_nj());
}

}  // namespace
}  // namespace mmx
