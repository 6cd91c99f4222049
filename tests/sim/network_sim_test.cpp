#include "mmx/sim/network_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mmx/channel/blockage.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/sim/stats.hpp"

namespace mmx::sim {
namespace {

NetworkSimulator paper_testbed() {
  // 6 x 4 m room, AP on one side facing inward (paper §9.2).
  return NetworkSimulator(channel::Room(6.0, 4.0), channel::Pose{{5.5, 2.0}, kPi});
}

TEST(NetworkSim, AddNodeGrantsChannel) {
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(net.num_nodes(), 1u);
  EXPECT_NEAR(net.grant(*id).channel.bandwidth_hz, 12.5e6, 1.0);
}

TEST(NetworkSim, LinkSnrReasonableInRoom) {
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{1.0, 2.0}, 0.0}, 10e6);
  const OtamLink l = net.link(*id);
  // ~4.5 m LoS boresight: strong double-digit SNR.
  EXPECT_GT(l.snr_db, 15.0);
  EXPECT_LT(l.snr_db, 45.0);
  EXPECT_LT(l.joint_ber, 1e-6);
}

TEST(NetworkSim, OtamBeatsFixedBeamUnderBlockage) {
  // The Fig. 10 effect in miniature.
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{1.0, 2.0}, deg_to_rad(40.0)}, 10e6);
  channel::park_blocker_on_los(net.room(), {1.0, 2.0}, {5.5, 2.0});
  const OtamLink otam = net.link(*id);
  const OtamLink fixed = net.fixed_beam_link(*id);
  EXPECT_LT(otam.joint_ber, fixed.joint_ber + 1e-15);
}

TEST(NetworkSim, BearingAtAp) {
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{1.0, 2.0}, 0.0}, 1e6);
  // Node due -x of the AP; AP faces -x (orientation pi) -> bearing ~0.
  EXPECT_NEAR(net.bearing_at_ap(*id), 0.0, 1e-9);
}

TEST(NetworkSim, MoveNodeChangesLink) {
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{4.5, 2.0}, 0.0}, 1e6);
  const double snr_near = net.link(*id).snr_db;
  net.set_node_pose(*id, {{0.5, 2.0}, 0.0});
  const double snr_far = net.link(*id).snr_db;
  EXPECT_GT(snr_near, snr_far);
}

TEST(NetworkSim, TwentyNodesAllGetService) {
  // §9.5 scale: 20 simultaneous nodes at 25 MHz-class demands -> FDM
  // fills, SDM absorbs the rest.
  Rng rng(1);
  NetworkSimulator net = paper_testbed();
  int granted = 0;
  for (int i = 0; i < 20; ++i) {
    const channel::Pose pose{{rng.uniform(0.5, 4.8), rng.uniform(0.5, 3.5)},
                             rng.uniform(-1.0, 1.0)};
    if (net.add_node(pose, 20e6)) ++granted;
  }
  EXPECT_GE(granted, 12);  // most nodes; SDM admission rejects unservable bearings
}

TEST(NetworkSim, SinrDegradesGracefullyWithLoad) {
  // Fig. 13 shape: average SINR decreases only slightly from 1 to 20
  // simultaneous transmitters and stays high.
  Rng rng(2);
  NetworkSimulator net = paper_testbed();
  std::vector<double> avg_by_k;
  for (int k = 0; k < 20; ++k) {
    const channel::Pose pose{{rng.uniform(0.5, 4.8), rng.uniform(0.5, 3.5)},
                             rng.uniform(-1.0, 1.0)};
    net.add_node(pose, 20e6);
    const auto sinr = net.sinr_all_db();
    if (sinr.empty()) continue;
    std::vector<double> vals;
    for (const auto& [id, s] : sinr) vals.push_back(s);
    avg_by_k.push_back(mean(vals));
  }
  ASSERT_GE(avg_by_k.size(), 10u);
  // High average throughout...
  EXPECT_GT(avg_by_k.back(), 15.0);
  // ...with only graceful degradation from the single-node case.
  EXPECT_LT(avg_by_k.front() - avg_by_k.back(), 15.0);
}

TEST(NetworkSim, RemoveNodeFreesResources) {
  NetworkSimulator net = paper_testbed();
  const auto a = net.add_node({{1.0, 2.0}, 0.0}, 180e6);
  ASSERT_TRUE(a);
  net.remove_node(*a);
  EXPECT_EQ(net.num_nodes(), 0u);
  const auto b = net.add_node({{2.0, 2.0}, 0.0}, 180e6);
  EXPECT_TRUE(b.has_value());
  EXPECT_EQ(net.grant(*b).sdm_harmonic, 0);
}

TEST(NetworkSim, ValidatesPositions) {
  NetworkSimulator net = paper_testbed();
  EXPECT_THROW(net.add_node({{10.0, 2.0}, 0.0}, 1e6), std::invalid_argument);
  const auto id = net.add_node({{1.0, 2.0}, 0.0}, 1e6);
  EXPECT_THROW(net.set_node_pose(*id, {{-1.0, 0.0}, 0.0}), std::invalid_argument);
  EXPECT_THROW(net.link(999), std::out_of_range);
  EXPECT_THROW(NetworkSimulator(channel::Room(6.0, 4.0), channel::Pose{{7.0, 2.0}, 0.0}),
               std::invalid_argument);
}

TEST(NetworkSim, NodeOnApPositionRejectedBeforeAnyStateChange) {
  // A node on the AP has no path to trace, so every cache refill would
  // throw; it must be refused before an id is issued or spectrum moves.
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id.has_value());
  const Vec2 ap = net.ap_pose().position;
  const auto allocations = net.init().allocator().allocations();

  EXPECT_THROW(net.add_node({ap, 0.0}, 1e6), std::invalid_argument);
  EXPECT_THROW(net.admit({ap, 0.0}, 1e6), std::invalid_argument);
  EXPECT_THROW(net.add_tracked_node({ap, 0.0}), std::invalid_argument);
  EXPECT_THROW(net.set_node_pose(*id, {ap, 0.0}), std::invalid_argument);
  EXPECT_EQ(net.num_nodes(), 1u);
  EXPECT_EQ(net.num_associated(), 1u);
  EXPECT_EQ(net.init().allocator().allocations(), allocations);
  EXPECT_EQ(net.node_pose(*id).position, (Vec2{1.0, 2.0}));

  // The cache still refills, and the next id is the one a rejected call
  // would otherwise have taken.
  EXPECT_EQ(net.refresh_cache(2), 1u);
  EXPECT_EQ(net.link(*id).snr_db, net.link_uncached(*id).snr_db);
  const auto next = net.add_node({{2.0, 2.0}, 0.0}, 1e6);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, *id + 1);
  EXPECT_EQ(net.refresh_cache(2), 1u);
}

// Association is read from the AP's holder table, not kept beside it:
// is_associated, num_associated and reap_inactive must agree with
// init().holders() through every grant-changing call.
void ExpectAssociationMatchesHolders(const NetworkSimulator& net,
                                     const std::vector<std::uint16_t>& resident) {
  for (const std::uint16_t id : resident)
    EXPECT_EQ(net.is_associated(id), net.init().holders().contains(id)) << "node " << id;
  for (const auto& [id, holder] : net.init().holders())
    EXPECT_NE(std::find(resident.begin(), resident.end(), id), resident.end()) << "node " << id;
  EXPECT_EQ(net.num_associated(), net.init().holders().size());
}

TEST(NetworkSim, AssociationFollowsTheHolderTable) {
  // Room for two 12.5 MHz channels. Every node sits within 0.45 rad of
  // the others' bearings, so SDM cannot group them and a third is denied.
  SimConfig cfg;
  cfg.band_high_hz = kIsmLowHz + 27e6;
  NetworkSimulator net(channel::Room(6.0, 4.0), channel::Pose{{5.5, 2.0}, kPi}, cfg);
  const channel::Pose p1{{1.0, 2.0}, 0.0};
  const channel::Pose p2{{1.0, 2.3}, 0.0};
  const channel::Pose p3{{1.5, 1.8}, 0.0};
  std::vector<std::uint16_t> resident;

  const auto a = net.admit(p1, 10e6).id;
  const auto b = net.admit(p2, 10e6).id;
  ASSERT_TRUE(a && b);
  resident = {*a, *b};
  EXPECT_FALSE(net.admit(p3, 10e6).id.has_value());
  const std::uint16_t t = net.add_tracked_node(p3);
  resident.push_back(t);
  ExpectAssociationMatchesHolders(net, resident);
  EXPECT_FALSE(net.is_associated(t));
  EXPECT_EQ(net.num_associated(), 2u);

  net.note_activity(*a, 0.0);
  net.note_activity(t, 0.0);
  EXPECT_TRUE(net.revoke_grant(*b));
  EXPECT_FALSE(net.revoke_grant(*b));  // already unassociated
  EXPECT_FALSE(net.revoke_grant(t));   // never associated
  EXPECT_THROW(net.grant(*b), std::out_of_range);
  ExpectAssociationMatchesHolders(net, resident);
  EXPECT_EQ(net.num_nodes(), 3u);  // a revoked node stays resident

  const auto d = net.admit(p3, 10e6).id;  // b's spectrum is free again
  ASSERT_TRUE(d.has_value());
  resident.push_back(*d);
  net.note_activity(*d, 5.0);
  ExpectAssociationMatchesHolders(net, resident);

  // Only associated, noted, long-silent nodes are reaped: a (silent
  // 10 s), not d (5 s), not the unassociated t and b.
  EXPECT_EQ(net.reap_inactive(10.0, 6.0), std::vector<std::uint16_t>{*a});
  std::erase(resident, *a);
  EXPECT_THROW(net.is_associated(*a), std::out_of_range);
  ExpectAssociationMatchesHolders(net, resident);

  net.remove_node(*d);
  std::erase(resident, *d);
  ExpectAssociationMatchesHolders(net, resident);
  EXPECT_EQ(net.num_associated(), 0u);
  EXPECT_TRUE(net.reap_inactive(100.0, 1.0).empty());
}

TEST(NetworkSim, IdSpaceExhaustionThrowsInsteadOfWrapping) {
  // Ids are never recycled. A wrapped counter would reissue id 1 while
  // its holder is still live and hand it the old grant back, so the
  // 65536th id must fail loudly and change nothing.
  NetworkSimulator net = paper_testbed();
  const auto held = net.add_node({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(held.has_value());
  const mac::ChannelGrant held_grant = net.grant(*held);
  for (int i = 1; i < std::numeric_limits<std::uint16_t>::max(); ++i) {
    const auto id = net.add_node({{2.0, 2.0}, 0.0}, 10e6);
    ASSERT_TRUE(id.has_value()) << "cycle " << i;
    net.remove_node(*id);
  }
  ASSERT_EQ(net.num_nodes(), 1u);

  try {
    (void)net.add_node({{2.0, 2.0}, 0.0}, 10e6);
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("node id space exhausted"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 live"), std::string::npos);
  }
  EXPECT_THROW(net.add_tracked_node({{2.0, 2.0}, 0.0}), std::overflow_error);
  EXPECT_EQ(net.num_nodes(), 1u);
  EXPECT_EQ(net.grant(*held).channel.center_hz, held_grant.channel.center_hz);
}

}  // namespace
}  // namespace mmx::sim
