#include "mmx/core/network.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "mmx/channel/blockage.hpp"
#include "mmx/common/units.hpp"

namespace mmx::core {
namespace {

Network paper_network() {
  return Network(channel::Room(6.0, 4.0), channel::Pose{{5.5, 2.0}, kPi});
}

bool same_bits(const sim::OtamLink& a, const sim::OtamLink& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(CoreNetwork, JoinConfiguresNode) {
  Network net = paper_network();
  const auto id = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(net.node(*id).configured());
  EXPECT_NEAR(net.node(*id).bit_rate_bps(), 10e6, 1.0);
}

TEST(CoreNetwork, SendDeliversPayload) {
  Network net = paper_network();
  const auto id = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  const std::vector<std::uint8_t> payload{0xCA, 0xFE, 0xBA, 0xBE};
  const SendReport r = net.send(*id, payload);
  EXPECT_TRUE(r.delivered);
  EXPECT_GT(r.snr_db, 10.0);
  EXPECT_EQ(r.payload_bytes, 4u);
}

TEST(CoreNetwork, SendSurvivesBlockedLos) {
  // The headline end-to-end scenario through the public API.
  Network net = paper_network();
  const auto id = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  channel::park_blocker_on_los(net.room(), {1.0, 2.0}, {5.5, 2.0});
  const std::vector<std::uint8_t> payload(64, 0x55);
  const SendReport r = net.send(*id, payload);
  EXPECT_TRUE(r.delivered);
  EXPECT_TRUE(r.inverted);  // Fig. 4(b): bits arrive inverted, preamble fixes it
}

TEST(CoreNetwork, SequenceNumbersAdvance) {
  Network net = paper_network();
  const auto id = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  const std::vector<std::uint8_t> p{1};
  EXPECT_TRUE(net.send(*id, p).delivered);
  EXPECT_TRUE(net.send(*id, p).delivered);
}

TEST(CoreNetwork, MeasureMatchesPaperStyleSnr) {
  Network net = paper_network();
  const auto id = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  const sim::OtamLink otam = net.measure(*id);
  const sim::OtamLink fixed = net.measure_fixed_beam(*id);
  EXPECT_GT(otam.snr_db, 10.0);
  EXPECT_LE(otam.joint_ber, fixed.joint_ber + 1e-12);
}

TEST(CoreNetwork, MeasureFollowsRoomThroughCache) {
  // measure() reads the simulator's cached links; every room or pose
  // change must show up, bit-identical to a fresh trace.
  Network net = paper_network();
  const auto id = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  const sim::OtamLink clear = net.measure(*id);

  channel::park_blocker_on_los(net.room(), {1.0, 2.0}, {5.5, 2.0});
  const sim::OtamLink blocked = net.measure(*id);
  EXPECT_FALSE(same_bits(blocked, clear));
  EXPECT_TRUE(same_bits(blocked, net.sim().link_uncached(*id)));
  net.room().clear_blockers();
  EXPECT_TRUE(same_bits(net.measure(*id), clear));

  net.set_pose(*id, {{1.5, 1.0}, 0.3});
  const sim::OtamLink moved = net.measure(*id);
  EXPECT_FALSE(same_bits(moved, clear));
  EXPECT_TRUE(same_bits(moved, net.sim().link_uncached(*id)));
  net.set_pose(*id, {{1.0, 2.0}, 0.0});
  EXPECT_TRUE(same_bits(net.measure(*id), clear));
}

TEST(CoreNetwork, LeaveFreesChannel) {
  Network net = paper_network();
  const auto a = net.join({{1.0, 2.0}, 0.0}, 180e6);
  ASSERT_TRUE(a);
  net.leave(*a);
  EXPECT_EQ(net.num_nodes(), 0u);
  const auto b = net.join({{1.0, 2.0}, 0.0}, 180e6);
  EXPECT_TRUE(b.has_value());
}

TEST(CoreNetwork, MultipleNodesCoexist) {
  Network net = paper_network();
  std::vector<std::uint16_t> ids;
  for (int i = 0; i < 5; ++i) {
    const auto id = net.join({{0.8 + 0.8 * i, 1.0 + 0.5 * i}, 0.2 * i - 0.4}, 8e6);
    ASSERT_TRUE(id) << i;
    ids.push_back(*id);
  }
  const std::vector<std::uint8_t> payload(32, 0xAB);
  for (const auto id : ids) {
    EXPECT_TRUE(net.send(id, payload).delivered) << id;
  }
}

TEST(CoreNetwork, SendReliableDeliversFirstTryOnGoodLink) {
  Network net = paper_network();
  const auto id = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  const std::vector<std::uint8_t> payload(64, 0x11);
  const auto r = net.send_reliable(*id, payload);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.attempts, 1);
}

TEST(CoreNetwork, SendReliableRetriesThroughNoise) {
  // Degrade the link with extra implementation loss so single attempts
  // are marginal; ARQ should still get most payloads through.
  NetworkSpec spec;
  spec.budget.implementation_loss_db = 47.0;  // ~29 dB worse than calibrated: marginal
  Network net(channel::Room(6.0, 4.0), channel::Pose{{5.5, 2.0}, kPi}, spec);
  const auto id = net.join({{1.5, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id);
  const std::vector<std::uint8_t> payload(32, 0x22);
  int one_shot = 0;
  int reliable = 0;
  int total_attempts = 0;
  for (int i = 0; i < 20; ++i) {
    one_shot += net.send(*id, payload).delivered;
    const auto r = net.send_reliable(*id, payload, mac::ArqConfig{.max_retries = 6});
    reliable += r.delivered;
    total_attempts += r.attempts;
  }
  EXPECT_GE(reliable, one_shot);
  EXPECT_GT(total_attempts, 20);  // retries actually happened
}

TEST(CoreNetwork, Validation) {
  Network net = paper_network();
  EXPECT_THROW(net.join({{9.0, 2.0}, 0.0}, 1e6), std::invalid_argument);
  EXPECT_THROW(net.node(42), std::out_of_range);
  EXPECT_THROW(net.send(42, std::vector<std::uint8_t>{1}), std::out_of_range);
  const auto id = net.join({{1.0, 2.0}, 0.0}, 1e6);
  EXPECT_THROW(net.set_pose(*id, {{-1.0, 2.0}, 0.0}), std::invalid_argument);
}

TEST(CoreNetwork, IdSpaceExhaustionThrowsInsteadOfWrapping) {
  // Ids are never recycled; the 65536th join must fail loudly instead of
  // reissuing id 1, which is still joined, and must change nothing.
  Network net = paper_network();
  const auto held = net.join({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(held.has_value());
  for (int i = 1; i < std::numeric_limits<std::uint16_t>::max(); ++i) {
    const auto id = net.join({{2.0, 2.0}, 0.0}, 10e6);
    ASSERT_TRUE(id.has_value()) << "cycle " << i;
    net.leave(*id);
  }
  ASSERT_EQ(net.num_nodes(), 1u);

  try {
    (void)net.join({{2.0, 2.0}, 0.0}, 10e6);
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("node id space exhausted"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 live"), std::string::npos);
  }
  EXPECT_EQ(net.num_nodes(), 1u);
  EXPECT_EQ(net.node(*held).pose().position.x, 1.0);
}

}  // namespace
}  // namespace mmx::core
