// System-level tests for coded frames and the multi-frame stream
// receiver.
#include <gtest/gtest.h>

#include "mmx/channel/blockage.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/core/network.hpp"
#include "mmx/dsp/noise.hpp"
#include "mmx/mac/init_protocol.hpp"
#include "mmx/phy/preamble.hpp"

namespace mmx::core {
namespace {

Network paper_network(std::uint64_t seed = 1) {
  NetworkSpec spec;
  spec.noise_seed = seed;
  return Network(channel::Room(6.0, 4.0), channel::Pose{{5.5, 2.0}, kPi}, spec);
}

TEST(CodedSend, AllProfilesDeliverOnGoodLink) {
  Network net = paper_network();
  const auto id = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  const std::vector<std::uint8_t> payload(100, 0x3D);
  for (auto profile : {phy::CodingProfile::kNone, phy::CodingProfile::kHamming,
                       phy::CodingProfile::kConvolutional}) {
    const auto r = net.send(*id, payload, profile);
    EXPECT_TRUE(r.delivered) << static_cast<int>(profile);
  }
}

TEST(CodedSend, FecWinsOnMarginalLink) {
  // Degrade the budget so uncoded frames drop regularly; Hamming+
  // interleaving should recover a visible fraction of them.
  NetworkSpec spec;
  spec.budget.implementation_loss_db = 45.0;
  Network net(channel::Room(6.0, 4.0), channel::Pose{{5.5, 2.0}, kPi}, spec);
  const auto id = net.join({{1.5, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  const std::vector<std::uint8_t> payload(32, 0x22);
  int plain = 0;
  int coded = 0;
  const int kTrials = 30;
  for (int i = 0; i < kTrials; ++i) {
    plain += net.send(*id, payload, phy::CodingProfile::kNone).delivered;
    coded += net.send(*id, payload, phy::CodingProfile::kConvolutional).delivered;
  }
  EXPECT_GT(plain, 0);           // link is marginal, not dead
  EXPECT_LT(plain, kTrials);     // ...and genuinely lossy
  EXPECT_GE(coded, plain);       // FEC never hurts here and usually helps
}

/// A node configured with a 10 Mbps grant from the AP's init protocol.
Node granted_node() {
  mac::InitProtocol init(mac::FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{});
  Node node(1, {{1.0, 2.0}, 0.0});
  node.configure(std::get<mac::ChannelGrant>(init.handle(mac::ChannelRequest{1, 10e6, 0.0})));
  return node;
}

TEST(StreamReceive, DecodesBackToBackFrames) {
  Rng rng(9);
  const AccessPoint ap{channel::Pose{{5.5, 2.0}, kPi}};
  const Node node = granted_node();
  const phy::OtamChannel ch{{2e-4, 0.0}, {2e-3, 0.0}};

  dsp::Cvec stream;
  std::vector<phy::Frame> sent;
  for (int k = 0; k < 3; ++k) {
    phy::Frame f;
    f.node_id = 1;
    f.seq = static_cast<std::uint16_t>(k);
    f.payload.assign(16 + 8 * static_cast<std::size_t>(k),
                     static_cast<std::uint8_t>(0x40 + k));
    sent.push_back(f);
    const auto burst = node.transmit_frame(f, ch);
    stream.insert(stream.end(), burst.begin(), burst.end());
    // Inter-frame gap of dead air.
    stream.resize(stream.size() + 40 * node.phy_config().samples_per_symbol, dsp::Complex{});
  }
  dsp::add_awgn(stream, dsp::mean_power(stream) / db_to_lin(22.0), rng);

  const auto frames = ap.receive_stream(stream, node.phy_config());
  ASSERT_EQ(frames.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(frames[k].frame.has_value());
    EXPECT_EQ(*frames[k].frame, sent[k]);
  }
}

TEST(StreamReceive, NoiseOnlyStreamYieldsNothing) {
  Rng rng(10);
  const AccessPoint ap{channel::Pose{{5.5, 2.0}, kPi}};
  const Node node = granted_node();
  const dsp::Cvec junk = dsp::awgn(node.phy_config().samples_per_symbol * 400, 1.0, rng);
  EXPECT_TRUE(ap.receive_stream(junk, node.phy_config()).empty());
}

TEST(StreamReceive, CodedFramesInStream) {
  Rng rng(11);
  Network net = paper_network(11);
  const auto id = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  // send() exercises the AP's coded receive path per frame; stream-level
  // coded reception reuses the same decode, so a spot check suffices.
  const std::vector<std::uint8_t> payload(64, 0x77);
  EXPECT_TRUE(net.send(*id, payload, phy::CodingProfile::kHamming).delivered);
}

}  // namespace
}  // namespace mmx::core
