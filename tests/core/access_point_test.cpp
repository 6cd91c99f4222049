#include "mmx/core/access_point.hpp"

#include <gtest/gtest.h>

#include "mmx/common/units.hpp"
#include "mmx/core/node.hpp"
#include "mmx/dsp/noise.hpp"

namespace mmx::core {
namespace {

AccessPoint make_ap() { return AccessPoint({{5.5, 2.0}, kPi}); }

TEST(CoreAp, NoiseFloorSane) {
  AccessPoint ap = make_ap();
  // 25 MHz channel, NF ~2.6 dB -> about -97 dBm.
  EXPECT_NEAR(ap.noise_floor_dbm(), -97.0, 3.0);
}

TEST(CoreAp, InitGrantsThroughFacade) {
  AccessPoint ap = make_ap();
  const auto msg = ap.handle_init(mac::ChannelRequest{1, 10e6, 0.0});
  EXPECT_NE(std::get_if<mac::ChannelGrant>(&msg), nullptr);
  EXPECT_EQ(ap.init().holders().size(), 1u);
  EXPECT_TRUE(ap.release(1));
  EXPECT_FALSE(ap.release(1));
}

TEST(CoreAp, ServeSideChannel) {
  Rng rng(1);
  AccessPoint ap = make_ap();
  mac::SideChannel sc;
  sc.node_to_ap(mac::ChannelRequest{1, 10e6, 0.0}, rng);
  EXPECT_EQ(ap.serve(sc, rng), 1u);
  EXPECT_EQ(sc.pending_at_node(), 1u);
}

TEST(CoreAp, ReceiveDecodesNodeTransmission) {
  Rng rng(2);
  AccessPoint ap = make_ap();
  Node node(1, {{1.0, 2.0}, 0.0});
  const auto msg = ap.handle_init(mac::ChannelRequest{1, 10e6, 0.0});
  node.configure(std::get<mac::ChannelGrant>(msg));

  phy::Frame f;
  f.node_id = 1;
  f.seq = 5;
  f.payload = {9, 8, 7, 6};
  const phy::OtamChannel ch{{2e-4, 0.0}, {2e-3, 0.0}};
  auto rx = node.transmit_frame(f, ch);
  rx.resize(rx.size() + 4 * node.phy_config().samples_per_symbol, dsp::Complex{});
  dsp::add_awgn(rx, dsp::mean_power(rx) / db_to_lin(20.0), rng);

  const Reception rec = ap.receive(rx, node.phy_config());
  ASSERT_TRUE(rec.frame.has_value());
  EXPECT_EQ(*rec.frame, f);
  EXPECT_GT(rec.sync_correlation, 0.8);
}

TEST(CoreAp, ReceiveRejectsNoise) {
  Rng rng(3);
  AccessPoint ap = make_ap();
  Node node(1, {{1.0, 2.0}, 0.0});
  const auto msg = ap.handle_init(mac::ChannelRequest{1, 10e6, 0.0});
  node.configure(std::get<mac::ChannelGrant>(msg));
  const dsp::Cvec junk = dsp::awgn(4096, 1.0, rng);
  const Reception rec = ap.receive(junk, node.phy_config());
  EXPECT_FALSE(rec.frame.has_value());
}

}  // namespace
}  // namespace mmx::core
