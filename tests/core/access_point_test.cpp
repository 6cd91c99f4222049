#include "mmx/core/access_point.hpp"

#include <gtest/gtest.h>

#include "mmx/common/units.hpp"
#include "mmx/core/node.hpp"
#include "mmx/dsp/noise.hpp"
#include "mmx/mac/init_protocol.hpp"

namespace mmx::core {
namespace {

AccessPoint make_ap() { return AccessPoint({{5.5, 2.0}, kPi}); }

/// A node configured with a 10 Mbps grant from the AP's init protocol.
Node granted_node() {
  mac::InitProtocol init(mac::FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{});
  Node node(1, {{1.0, 2.0}, 0.0});
  node.configure(std::get<mac::ChannelGrant>(init.handle(mac::ChannelRequest{1, 10e6, 0.0})));
  return node;
}

TEST(CoreAp, NoiseFloorSane) {
  AccessPoint ap = make_ap();
  // 25 MHz channel, NF ~2.6 dB -> about -97 dBm.
  EXPECT_NEAR(ap.noise_floor_dbm(), -97.0, 3.0);
}

TEST(CoreAp, ReceiveDecodesNodeTransmission) {
  Rng rng(2);
  const AccessPoint ap = make_ap();
  const Node node = granted_node();

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
  const AccessPoint ap = make_ap();
  const Node node = granted_node();
  const dsp::Cvec junk = dsp::awgn(4096, 1.0, rng);
  const Reception rec = ap.receive(junk, node.phy_config());
  EXPECT_FALSE(rec.frame.has_value());
}

}  // namespace
}  // namespace mmx::core
