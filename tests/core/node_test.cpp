#include "mmx/core/node.hpp"

#include <gtest/gtest.h>

#include "mmx/common/units.hpp"
#include "mmx/mac/allocator.hpp"

namespace mmx::core {
namespace {

mac::ChannelGrant grant_for(std::uint16_t id, double rate_bps = 10e6) {
  // Mirror what the AP's init protocol would produce.
  rf::Vco vco;
  mac::ChannelGrant g;
  g.node_id = id;
  const double bw = mac::required_bandwidth_hz(rate_bps);
  g.channel = {24.1e9, bw};
  g.sdm_harmonic = 0;
  g.vco_tune_v0 = vco.voltage_for(g.channel.center_hz - 0.4 * bw);
  g.vco_tune_v1 = vco.voltage_for(g.channel.center_hz + 0.4 * bw);
  return g;
}

TEST(CoreNode, ConfigureDerivesPhy) {
  Node node(1, {{1.0, 2.0}, 0.0});
  EXPECT_FALSE(node.configured());
  node.configure(grant_for(1));
  ASSERT_TRUE(node.configured());
  // 12.5 MHz channel * 0.8 -> 10 Mbps.
  EXPECT_NEAR(node.bit_rate_bps(), 10e6, 1.0);
  // FSK tones symmetric around the channel centre, Df = symbol rate.
  const auto& cfg = node.phy_config();
  EXPECT_NEAR(cfg.fsk_freq1_hz - cfg.fsk_freq0_hz, 10e6, 1e4);
  EXPECT_NEAR(cfg.fsk_freq0_hz + cfg.fsk_freq1_hz, 0.0, 1e4);
}

TEST(CoreNode, SymbolRateCappedBySwitch) {
  Node node(1, {{1.0, 2.0}, 0.0});
  node.configure(grant_for(1, 180e6));  // 225 MHz channel would imply 180 Mbps
  EXPECT_DOUBLE_EQ(node.bit_rate_bps(), 100e6);  // paper §9.1 cap
}

TEST(CoreNode, WrongGrantRejected) {
  Node node(1, {{1.0, 2.0}, 0.0});
  EXPECT_THROW(node.configure(grant_for(2)), std::invalid_argument);
  EXPECT_THROW(node.grant(), std::logic_error);
  EXPECT_THROW(node.phy_config(), std::logic_error);
}

TEST(CoreNode, PowerMatchesPaper) {
  Node node(1, {{1.0, 2.0}, 0.0});
  EXPECT_NEAR(node.power_w(), 1.1, 0.01);
  node.configure(grant_for(1, 180e6));  // 100 Mbps after cap
  EXPECT_NEAR(node.energy_per_bit_j(), 11e-9, 0.2e-9);  // 11 nJ/bit
}

TEST(CoreNode, TransmitFrameProducesSamples) {
  Node node(1, {{1.0, 2.0}, 0.0});
  node.configure(grant_for(1));
  phy::Frame f;
  f.node_id = 1;
  f.payload = {1, 2, 3};
  const phy::OtamChannel ch{{1e-4, 0.0}, {1e-3, 0.0}};
  const auto rx = node.transmit_frame(f, ch);
  EXPECT_GT(rx.size(), 100u);
  EXPECT_GT(dsp::mean_power(rx), 0.0);
}

TEST(CoreNode, TransmitBeforeConfigureThrows) {
  Node node(1, {{1.0, 2.0}, 0.0});
  const phy::OtamChannel ch{{1e-4, 0.0}, {1e-3, 0.0}};
  EXPECT_THROW(node.transmit_bits({1, 0}, ch), std::logic_error);
}

TEST(CoreNode, PoseManagement) {
  Node node(7, {{1.0, 2.0}, 0.5});
  EXPECT_EQ(node.id(), 7);
  EXPECT_DOUBLE_EQ(node.pose().orientation_rad, 0.5);
  EXPECT_DOUBLE_EQ(node.pose().position.x, 1.0);
}

}  // namespace
}  // namespace mmx::core
