#include "mmx/core/scenario.hpp"

#include <gtest/gtest.h>

#include "mmx/common/units.hpp"

namespace mmx::core {
namespace {

Network paper_network() {
  return Network(channel::Room(6.0, 4.0), channel::Pose{{5.5, 2.0}, kPi});
}

TEST(Scenario, StaticNodesDeliverEverything) {
  Network net = paper_network();
  const std::vector<ScenarioNode> nodes = {
      {{{1.0, 2.0}, 0.0}, 10e6, 0.1, 128},
      {{{2.0, 1.0}, 0.3}, 8e6, 0.1, 128},
  };
  ScenarioConfig cfg;
  cfg.duration_s = 1.0;
  const ScenarioResult r = run_scenario(net, nodes, cfg);
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.joins_denied, 0u);
  for (const auto& n : r.nodes) {
    EXPECT_GE(n.frames_sent, 9u);
    EXPECT_DOUBLE_EQ(n.delivery_ratio(), 1.0);
    EXPECT_GT(n.mean_snr_db, 10.0);
    EXPECT_GT(n.goodput_bps, 0.0);
    // Static clear-room nodes never dip below the outage threshold.
    EXPECT_DOUBLE_EQ(n.outage_fraction, 0.0);
    EXPECT_GT(n.min_snr_db, 10.0);
  }
}

TEST(Scenario, EnergyLedgerConsistent) {
  Network net = paper_network();
  const std::vector<ScenarioNode> nodes = {{{{1.0, 2.0}, 0.0}, 10e6, 0.1, 250}};
  ScenarioConfig cfg;
  cfg.duration_s = 1.0;
  const ScenarioResult r = run_scenario(net, nodes, cfg);
  const auto& n = r.nodes[0];
  // ~10 frames of (16 + (6+250+2)*8) bits at 10 Mbps.
  const double frame_bits = 16.0 + (6.0 + 250.0 + 2.0) * 8.0;
  EXPECT_NEAR(n.airtime_s, n.frames_sent * frame_bits / 10e6, 1e-9);
  EXPECT_NEAR(n.radio_energy_j, n.airtime_s * 1.1, 1e-6);
  // Duty cycle is tiny: the radio sleeps >99.5% of the time.
  EXPECT_LT(n.airtime_s / cfg.duration_s, 0.005);
}

TEST(Scenario, FrameCadenceHonoured) {
  Network net = paper_network();
  const std::vector<ScenarioNode> nodes = {{{{1.0, 2.0}, 0.0}, 10e6, 0.05, 64}};
  ScenarioConfig cfg;
  cfg.duration_s = 2.0;
  const ScenarioResult r = run_scenario(net, nodes, cfg);
  // ~40 frames in 2 s at 50 ms cadence (first fire is phase-jittered).
  EXPECT_NEAR(static_cast<double>(r.nodes[0].frames_sent), 40.0, 3.0);
}

TEST(Scenario, WalkersCauseInversionsButFewLosses) {
  Network net = paper_network();
  const std::vector<ScenarioNode> nodes = {
      {{{0.8, 2.0}, 0.0}, 10e6, 0.05, 128},
      {{{1.2, 3.0}, -0.4}, 10e6, 0.05, 128},
  };
  ScenarioConfig cfg;
  cfg.duration_s = 3.0;
  cfg.walkers = 3;
  cfg.seed = 7;
  const ScenarioResult r = run_scenario(net, nodes, cfg);
  std::size_t inversions = 0;
  double worst_outage = 0.0;
  for (const auto& n : r.nodes) {
    inversions += n.inversions;
    worst_outage = std::max(worst_outage, n.outage_fraction);
    EXPECT_GT(n.delivery_ratio(), 0.6);  // OTAM keeps most frames alive
    EXPECT_LE(n.min_snr_db, n.mean_snr_db);
  }
  EXPECT_GT(inversions, 0u);  // blockage happened and was ridden through
  EXPECT_GT(worst_outage, 0.0);  // ...and the stats recorded the dips
}

TEST(Scenario, ReliableModeAtLeastAsGood) {
  Network net1 = paper_network();
  Network net2 = paper_network();
  const std::vector<ScenarioNode> nodes = {{{{0.8, 2.0}, 0.0}, 10e6, 0.05, 128}};
  ScenarioConfig plain;
  plain.duration_s = 2.0;
  plain.walkers = 3;
  plain.seed = 3;
  ScenarioConfig reliable = plain;
  reliable.reliable = true;
  const double pr = run_scenario(net1, nodes, plain).nodes[0].delivery_ratio();
  const double rr = run_scenario(net2, nodes, reliable).nodes[0].delivery_ratio();
  EXPECT_GE(rr + 1e-9, pr);
}

TEST(Scenario, DeniedJoinCounted) {
  Network net = paper_network();
  const std::vector<ScenarioNode> nodes = {
      {{{1.0, 2.0}, 0.0}, 200e6, 0.1, 64},  // 250 MHz demand: granted
      {{{2.0, 2.0}, 0.0}, 200e6, 0.1, 64},  // no spectrum, same bearing: denied
  };
  ScenarioConfig cfg;
  cfg.duration_s = 0.5;
  const ScenarioResult r = run_scenario(net, nodes, cfg);
  EXPECT_EQ(r.joins_denied, 1u);
  EXPECT_EQ(r.nodes.size(), 1u);
}

TEST(Scenario, Validation) {
  Network net = paper_network();
  EXPECT_THROW(run_scenario(net, {}, ScenarioConfig{.duration_s = 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmx::core
