#include "mmx/mac/init_protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "mmx/antenna/tma.hpp"
#include "mmx/common/units.hpp"

namespace mmx::mac {
namespace {

InitProtocol make_protocol() {
  return InitProtocol(FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{});
}

// Admission's default harmonic slots are the AP TMA's steered angles, in
// the order admission tries them, each bitwise the closed form
// asin(0.125 m) of that design (delay 0.0625, d = lambda/2).
TEST(InitProtocol, DefaultSdmSlotsAreTheApTmaSteeredAngles) {
  const std::vector<HarmonicSlot> slots = default_sdm_slots();
  const std::vector<int> order{0, 1, -1, 2, -2, 3, -3, 4, -4};
  ASSERT_EQ(slots.size(), order.size());
  const antenna::TimeModulatedArray tma = antenna::ap_tma();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int m = order[i];
    EXPECT_EQ(slots[i].harmonic, m);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(slots[i].angle_rad),
              std::bit_cast<std::uint64_t>(std::asin(0.125 * m)))
        << "m=" << m;
    EXPECT_EQ(slots[i].angle_rad, tma.steered_angle(m)) << "m=" << m;
  }
}

TEST(InitProtocol, GrantsChannelForHdVideo) {
  InitProtocol p = make_protocol();
  // "if a device needs to stream an HD video, a few MHz of bandwidth must
  // be allocated to it" (§4) — 10 Mbps request.
  const auto msg = p.handle(ChannelRequest{1, 10e6, 0.0});
  const auto* g = std::get_if<ChannelGrant>(&msg);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->node_id, 1);
  EXPECT_NEAR(g->channel.bandwidth_hz, 12.5e6, 1.0);
  EXPECT_EQ(g->sdm_harmonic, 0);
}

TEST(InitProtocol, GrantCarriesValidVcoVoltages) {
  InitProtocol p = make_protocol();
  const auto msg = p.handle(ChannelRequest{1, 10e6, 0.0});
  const auto* g = std::get_if<ChannelGrant>(&msg);
  ASSERT_NE(g, nullptr);
  rf::Vco vco;
  // The two tuning voltages must land inside the channel, v1 above v0.
  const double f0 = vco.frequency_hz(g->vco_tune_v0);
  const double f1 = vco.frequency_hz(g->vco_tune_v1);
  EXPECT_GT(f1, f0);
  EXPECT_GE(f0, g->channel.low_hz() - 1.0);
  EXPECT_LE(f1, g->channel.high_hz() + 1.0);
}

TEST(InitProtocol, IdempotentForSameNode) {
  InitProtocol p = make_protocol();
  const auto m1 = p.handle(ChannelRequest{1, 10e6, 0.0});
  const auto m2 = p.handle(ChannelRequest{1, 10e6, 0.0});
  const auto* g1 = std::get_if<ChannelGrant>(&m1);
  const auto* g2 = std::get_if<ChannelGrant>(&m2);
  ASSERT_TRUE(g1 && g2);
  EXPECT_EQ(g1->channel, g2->channel);
  EXPECT_EQ(p.allocator().num_allocations(), 1u);
}

TEST(InitProtocol, ZeroRateDenied) {
  InitProtocol p = make_protocol();
  const auto msg = p.handle(ChannelRequest{1, 0.0, 0.0});
  EXPECT_NE(std::get_if<ChannelDeny>(&msg), nullptr);
}

TEST(InitProtocol, NonFiniteRatesDenied) {
  // A NaN rate fails every bandwidth comparison, so on a full band it
  // used to pass try_sdm's width test and get an SDM slot; +inf walked
  // the overload demotion ladder forever. Both are denied up front, with
  // and without overload control, and modify_rate keeps the old grant.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double rate : {kNan, kInf, -kInf})
    EXPECT_THROW(required_bandwidth_hz(rate), std::invalid_argument) << rate;
  for (const bool overload : {false, true}) {
    InitConfig cfg;
    cfg.overload.enabled = overload;
    cfg.overload.min_rate_bps = 4e6;
    cfg.overload.shedding = true;
    InitProtocol p(FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{}, cfg);
    // Nine 25 MHz channels fill the band, all steered at harmonic +2, so
    // a newcomer near harmonic -3 is far enough away to share any of them.
    for (std::uint16_t id = 0; id < 9; ++id)
      ASSERT_TRUE(std::holds_alternative<ChannelGrant>(p.handle({id, 20e6, std::asin(0.25)})));
    ASSERT_LT(p.allocator().largest_gap_hz(), 25e6);
    const ChannelGrant before = p.holders().at(0).grant;
    for (const double rate : {kNan, kInf, -kInf}) {
      const auto msg = p.handle(ChannelRequest{100, rate, std::asin(-0.375), 2});
      EXPECT_NE(std::get_if<ChannelDeny>(&msg), nullptr) << rate << " overload " << overload;
      EXPECT_FALSE(p.holders().contains(100));
      const auto mod = p.modify_rate(0, rate);
      EXPECT_NE(std::get_if<ChannelDeny>(&mod), nullptr) << rate << " overload " << overload;
      EXPECT_EQ(p.holders().at(0).grant.channel, before.channel);
      EXPECT_EQ(p.holders().at(0).grant.sdm_harmonic, before.sdm_harmonic);
    }
    EXPECT_EQ(p.holders().size(), 9u);
  }
}

TEST(InitProtocol, FallsBackToSdmWhenBandFull) {
  InitProtocol p = make_protocol();
  // Fill the band with wide FDM channels from distinct bearings.
  std::uint16_t id = 0;
  int fdm_grants = 0;
  while (true) {
    const auto msg = p.handle(ChannelRequest{id, 80e6, 0.3 * id});
    const auto* g = std::get_if<ChannelGrant>(&msg);
    if (!g || g->sdm_harmonic != 0) break;
    ++fdm_grants;
    ++id;
  }
  EXPECT_GE(fdm_grants, 2);
  // The node that broke the loop should have received an SDM share (its
  // bearing differs from every holder's by >= the minimum separation).
  const auto msg = p.handle(ChannelRequest{99, 80e6, -0.5});
  const auto* g = std::get_if<ChannelGrant>(&msg);
  ASSERT_NE(g, nullptr);
  EXPECT_NE(g->sdm_harmonic, 0);
}

TEST(InitProtocol, SdmRefusedForCoincidentBearings) {
  InitProtocol p = make_protocol();
  // Exhaust the band.
  p.handle(ChannelRequest{1, 150e6, 0.0});
  p.handle(ChannelRequest{2, 60e6, 0.5});
  // Same bearing as node 1 -> cannot share spatially.
  const auto msg = p.handle(ChannelRequest{3, 100e6, 0.0});
  EXPECT_NE(std::get_if<ChannelDeny>(&msg), nullptr);
}

TEST(InitProtocol, SdmSharesUseDistinctHarmonics) {
  InitProtocol p = make_protocol();
  p.handle(ChannelRequest{1, 180e6, 0.0});  // 225 MHz: nearly the whole band
  const auto m2 = p.handle(ChannelRequest{2, 100e6, 0.5});
  const auto m3 = p.handle(ChannelRequest{3, 100e6, -0.5});
  const auto* g2 = std::get_if<ChannelGrant>(&m2);
  const auto* g3 = std::get_if<ChannelGrant>(&m3);
  ASSERT_TRUE(g2 && g3);
  EXPECT_NE(g2->sdm_harmonic, 0);
  EXPECT_NE(g3->sdm_harmonic, g2->sdm_harmonic);
  EXPECT_EQ(g2->channel, g3->channel);
}

TEST(InitProtocol, ReleaseFreesSpectrum) {
  InitProtocol p = make_protocol();
  p.handle(ChannelRequest{1, 200e6, 0.0});
  EXPECT_TRUE(p.release(1));
  EXPECT_FALSE(p.release(1));
  const auto msg = p.handle(ChannelRequest{2, 200e6, 0.0});
  const auto* g = std::get_if<ChannelGrant>(&msg);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->sdm_harmonic, 0);
}

TEST(InitProtocol, ServeDrainsSideChannel) {
  Rng rng(1);
  InitProtocol p = make_protocol();
  SideChannel sc;
  sc.node_to_ap(ChannelRequest{1, 10e6, 0.1}, rng);
  sc.node_to_ap(ChannelRequest{2, 8e6, -0.2}, rng);
  EXPECT_EQ(p.serve(sc, rng), 2u);
  EXPECT_EQ(sc.pending_at_node(), 2u);
  const auto r1 = sc.poll_at_node();
  ASSERT_TRUE(r1.has_value());
  EXPECT_NE(std::get_if<ChannelGrant>(&*r1), nullptr);
}

TEST(InitProtocol, ManySmallSensorsAllFit) {
  // "These bands are wide enough to support many nodes" (§7a): 40 sensors
  // at 1 Mbps each need ~50 MHz + guards.
  InitProtocol p = make_protocol();
  int granted = 0;
  for (std::uint16_t id = 0; id < 40; ++id) {
    const auto msg = p.handle(ChannelRequest{id, 1e6, 0.05 * id});
    if (std::get_if<ChannelGrant>(&msg)) ++granted;
  }
  EXPECT_EQ(granted, 40);
}

TEST(InitProtocol, ModifyRateGrows) {
  InitProtocol p = make_protocol();
  p.handle(ChannelRequest{1, 10e6, 0.0});
  const auto msg = p.modify_rate(1, 40e6);
  const auto* g = std::get_if<ChannelGrant>(&msg);
  ASSERT_NE(g, nullptr);
  EXPECT_NEAR(g->channel.bandwidth_hz, 50e6, 1.0);
  EXPECT_EQ(p.allocator().num_allocations(), 1u);
}

TEST(InitProtocol, ModifyRateShrinkFreesSpectrum) {
  InitProtocol p = make_protocol();
  p.handle(ChannelRequest{1, 100e6, 0.0});
  const double free_before = p.allocator().free_bandwidth_hz();
  const auto msg = p.modify_rate(1, 10e6);
  EXPECT_NE(std::get_if<ChannelGrant>(&msg), nullptr);
  EXPECT_GT(p.allocator().free_bandwidth_hz(), free_before + 100e6);
}

TEST(InitProtocol, ModifyRateDenyRestoresOldGrant) {
  InitProtocol p = make_protocol();
  p.handle(ChannelRequest{1, 10e6, 0.0});
  p.handle(ChannelRequest{2, 150e6, 0.5});
  // Node 1 asks for more than remains -> deny, but keeps its old channel.
  const auto msg = p.modify_rate(1, 190e6);
  EXPECT_NE(std::get_if<ChannelDeny>(&msg), nullptr);
  ASSERT_TRUE(p.holders().contains(1));
  EXPECT_NEAR(p.holders().at(1).grant.channel.bandwidth_hz, 12.5e6, 1.0);
}

TEST(InitProtocol, ModifyRateDenyRestoresGrantBitExact) {
  // The deny path must reinstate the previous grant EXACTLY — same
  // center, bandwidth, harmonic and VCO voltages — not merely an
  // equivalent-width channel somewhere else. Node 2 sits mid-band
  // between two neighbours so the restore has to land back in its hole.
  InitProtocol p = make_protocol();
  p.handle(ChannelRequest{1, 40e6, 0.0});
  p.handle(ChannelRequest{2, 40e6, 0.8});
  p.handle(ChannelRequest{3, 40e6, 1.6});
  const ChannelGrant before = p.holders().at(2).grant;
  const auto msg = p.modify_rate(2, 190e6);  // 237.5 MHz: cannot fit
  EXPECT_NE(std::get_if<ChannelDeny>(&msg), nullptr);
  ASSERT_TRUE(p.holders().contains(2));
  const ChannelGrant& after = p.holders().at(2).grant;
  EXPECT_DOUBLE_EQ(after.channel.center_hz, before.channel.center_hz);
  EXPECT_DOUBLE_EQ(after.channel.bandwidth_hz, before.channel.bandwidth_hz);
  EXPECT_EQ(after.sdm_harmonic, before.sdm_harmonic);
  EXPECT_DOUBLE_EQ(after.vco_tune_v0, before.vco_tune_v0);
  EXPECT_DOUBLE_EQ(after.vco_tune_v1, before.vco_tune_v1);
  // The allocator's books agree with the restored grant.
  ASSERT_TRUE(p.allocator().lookup(2).has_value());
  EXPECT_EQ(*p.allocator().lookup(2), before.channel);
}

TEST(InitProtocol, ModifyUnknownNodeDenied) {
  InitProtocol p = make_protocol();
  const auto msg = p.modify_rate(42, 1e6);
  EXPECT_NE(std::get_if<ChannelDeny>(&msg), nullptr);
}

TEST(InitProtocol, BadConfigThrows) {
  for (const double eff : {0.0, std::numeric_limits<double>::quiet_NaN()}) {
    InitConfig bad;
    bad.spectral_efficiency = eff;
    EXPECT_THROW(InitProtocol(FdmAllocator(kIsmLowHz, kIsmHighHz), rf::Vco{}, bad),
                 std::invalid_argument)
        << eff;
  }
  // The rate floor is checked only while overload control is on, and a
  // NaN floor must fail it like a negative one.
  for (const double floor : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    InitConfig bad_floor;
    bad_floor.overload.min_rate_bps = floor;
    EXPECT_NO_THROW(InitProtocol(FdmAllocator(kIsmLowHz, kIsmHighHz), rf::Vco{}, bad_floor));
    bad_floor.overload.enabled = true;
    EXPECT_THROW(InitProtocol(FdmAllocator(kIsmLowHz, kIsmHighHz), rf::Vco{}, bad_floor),
                 std::invalid_argument)
        << floor;
  }
}

// ---- SDM limits --------------------------------------------------------
//
// A full band: node 1 at bearing 0 (harmonic 0) holds 125 MHz, node 2 at
// harmonic -3 holds 80 MHz, and node 3 fills the rest at a bearing no
// harmonic reaches, so its channel can never be shared. Node 4 at
// harmonic +4 then converts node 1's channel (lowest qualifying id) into
// a two-member group.
const double kBearingM3 = std::asin(-0.375);  // harmonic -3
const double kBearingP2 = std::asin(0.25);    // harmonic +2
const double kBearingP4 = std::asin(0.5);     // harmonic +4

InitProtocol make_sdm_pair() {
  InitProtocol p = make_protocol();
  EXPECT_TRUE(std::holds_alternative<ChannelGrant>(p.handle({1, 100e6, 0.0})));
  EXPECT_TRUE(std::holds_alternative<ChannelGrant>(p.handle({2, 64e6, kBearingM3})));
  EXPECT_TRUE(std::holds_alternative<ChannelGrant>(p.handle({3, 34e6, 1.2})));
  EXPECT_LT(p.allocator().largest_gap_hz(), 12.5e6);
  const auto msg = p.handle({4, 10e6, kBearingP4});
  const auto* g = std::get_if<ChannelGrant>(&msg);
  EXPECT_NE(g, nullptr);
  if (g) {
    EXPECT_EQ(g->channel, p.holders().at(1).grant.channel);
    EXPECT_EQ(g->sdm_harmonic, 4);
  }
  return p;
}

std::size_t holders_on(const InitProtocol& p, const ChannelAllocation& ch) {
  return static_cast<std::size_t>(
      std::count_if(p.holders().begin(), p.holders().end(),
                    [&](const auto& kv) { return kv.second.grant.channel == ch; }));
}

TEST(InitProtocolSdm, FullGroupTakesNoFourthMember) {
  InitProtocol p = make_sdm_pair();
  const ChannelAllocation group = p.holders().at(1).grant.channel;
  // Harmonic -4 is 0.52 rad from both members: the third member joins.
  const auto third = p.handle({5, 10e6, -kBearingP4});
  ASSERT_TRUE(std::holds_alternative<ChannelGrant>(third));
  EXPECT_EQ(std::get<ChannelGrant>(third).channel, group);
  ASSERT_EQ(holders_on(p, group), 3u);
  // Harmonic +2 is free in the full group, but a fourth member is not
  // placed there: the newcomer shares node 2's channel instead, 0.64 rad
  // from node 2. The harmonics span 1.05 rad and a bearing may sit
  // 0.07 rad off one, so no fourth bearing could be 0.45 rad from all
  // three members: the separation refuses it as well as the capacity.
  const auto fourth = p.handle({6, 10e6, kBearingP2});
  const auto* g = std::get_if<ChannelGrant>(&fourth);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->channel, p.holders().at(2).grant.channel);
  EXPECT_EQ(g->sdm_harmonic, 2);
  EXPECT_EQ(p.holders().at(2).grant.sdm_harmonic, -3);
  EXPECT_EQ(holders_on(p, group), 3u);
}

// The bearing separation alone caps a group at 3. Members at bearing 0
// and at the two outermost bearings the harmonics admit (harmonic -/+4
// at -/+0.524 rad, plus the 0.07 rad mismatch) spread as wide as a group
// can. Every bearing a free harmonic reaches then sits within 0.45 rad of
// some member, so each fourth request is refused and the group keeps 3.
TEST(InitProtocolSdm, WidestGroupRefusesEveryFourthBearing) {
  InitProtocol p = make_protocol();
  ASSERT_TRUE(std::holds_alternative<ChannelGrant>(p.handle({1, 180e6, 0.0})));
  const double edge = kBearingP4 + 0.069;
  for (const auto& [id, bearing] : {std::pair<std::uint16_t, double>{2, edge}, {3, -edge}}) {
    const auto msg = p.handle({id, 100e6, bearing});
    const auto* g = std::get_if<ChannelGrant>(&msg);
    ASSERT_NE(g, nullptr) << id;
    EXPECT_EQ(g->channel, p.holders().at(1).grant.channel);
  }
  const ChannelAllocation group = p.holders().at(1).grant.channel;
  ASSERT_EQ(holders_on(p, group), 3u);
  ASSERT_LT(p.allocator().largest_gap_hz(), 125e6);
  std::uint16_t id = 10;
  for (const HarmonicSlot& slot : default_sdm_slots()) {
    for (const double off : {-0.069, 0.0, 0.069}) {
      const auto msg = p.handle({id++, 100e6, slot.angle_rad + off});
      EXPECT_TRUE(std::holds_alternative<ChannelDeny>(msg))
          << "harmonic " << slot.harmonic << " offset " << off;
    }
  }
  EXPECT_EQ(holders_on(p, group), 3u);
  EXPECT_EQ(p.holders().size(), 3u);
}

TEST(InitProtocolSdm, BearingWithinSeparationOfAMemberIsRefused) {
  InitProtocol p = make_sdm_pair();
  const ChannelAllocation group = p.holders().at(1).grant.channel;
  // 0.44 rad from member 1 at bearing 0 (harmonic -3, 0.056 rad off):
  // the group has room and a free harmonic, yet refuses it. Node 2's
  // channel has no other harmonic near it, so the newcomer is denied.
  const auto near = p.handle({5, 10e6, -0.44});
  EXPECT_TRUE(std::holds_alternative<ChannelDeny>(near));
  EXPECT_EQ(holders_on(p, group), 2u);
  // 0.46 rad away (harmonic -4, 0.064 rad off) is separable: it joins.
  const auto far = p.handle({6, 10e6, -0.46});
  const auto* g = std::get_if<ChannelGrant>(&far);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->channel, group);
  EXPECT_EQ(g->sdm_harmonic, -4);
  EXPECT_EQ(holders_on(p, group), 3u);
}

// ---- Overload control (docs/ROBUSTNESS.md) ----------------------------
//
// A bearing of 1.2 rad sits > 0.07 rad from every default TMA slot
// direction, so SDM never qualifies and a full band goes straight to the
// overload ladder.
constexpr double kNoSdmBearing = 1.2;

InitProtocol make_overloaded(InitConfig cfg) {
  return InitProtocol(FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{}, cfg);
}

TEST(InitProtocolOverload, DisabledKeepsLegacyBehavior) {
  // OverloadConfig knobs other than `enabled` must be inert: first-fit
  // placement, bare denies (no hint), zero stats.
  InitConfig cfg;
  cfg.overload.min_rate_bps = 1e6;
  cfg.overload.shedding = true;  // enabled stays false
  InitProtocol p = make_overloaded(cfg);
  EXPECT_EQ(p.allocator().policy(), AllocPolicy::kFirstFit);
  p.handle(ChannelRequest{1, 160e6, kNoSdmBearing});
  const auto msg = p.handle(ChannelRequest{2, 160e6, kNoSdmBearing});
  const auto* d = std::get_if<ChannelDeny>(&msg);
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->retry_after_s, 0.0);
  EXPECT_EQ(p.overload_stats(), OverloadStats{});
}

TEST(InitProtocolOverload, DemotionLadderHalvesUntilItFits) {
  // 200 MHz of the 250 MHz band taken; a 100 MHz demand walks the
  // halving ladder (100 -> 50 -> 25 MHz) and lands at a quarter of its
  // request — above the 10 Mbps floor.
  InitConfig cfg;
  cfg.overload.enabled = true;
  cfg.overload.min_rate_bps = 10e6;
  InitProtocol p = make_overloaded(cfg);
  EXPECT_EQ(p.allocator().policy(), AllocPolicy::kBestFit);
  p.handle(ChannelRequest{1, 160e6, kNoSdmBearing});  // 200 MHz
  const auto msg = p.handle(ChannelRequest{2, 80e6, kNoSdmBearing});
  const auto* g = std::get_if<ChannelGrant>(&msg);
  ASSERT_NE(g, nullptr);
  EXPECT_NEAR(g->channel.bandwidth_hz, 25e6, 1.0);  // 20 Mbps = request/4
  EXPECT_EQ(p.overload_stats().demotions, 1u);
  ASSERT_TRUE(p.granted_rate_bps(2).has_value());
  EXPECT_NEAR(*p.granted_rate_bps(2), 20e6, 1.0);
  EXPECT_GE(*p.granted_rate_bps(2), cfg.overload.min_rate_bps);
}

TEST(InitProtocolOverload, DemotionStopsAtFloor) {
  // Nothing fits even at the floor -> deny, never a below-floor grant.
  InitConfig cfg;
  cfg.overload.enabled = true;
  cfg.overload.min_rate_bps = 40e6;  // floor channel: 50 MHz
  InitProtocol p = make_overloaded(cfg);
  p.handle(ChannelRequest{1, 170e6, kNoSdmBearing});  // 212.5 MHz
  const auto msg = p.handle(ChannelRequest{2, 80e6, kNoSdmBearing});
  EXPECT_NE(std::get_if<ChannelDeny>(&msg), nullptr);
  EXPECT_EQ(p.overload_stats().demotions, 0u);
}

TEST(InitProtocolOverload, PromotionWithNoRoomTouchesNothing) {
  // Every demoted holder's next rung is wider than the gap its own
  // release would open, so the pass must find nothing to grow: no
  // grants, no re-tunes, the spectrum map exactly as it was.
  InitConfig cfg;
  cfg.overload.enabled = true;
  cfg.overload.min_rate_bps = 10e6;  // 12.5 MHz floor
  InitProtocol p = make_overloaded(cfg);
  // 200 MHz, then two 100 MHz demands. The packed band never has 100 MHz
  // of headroom, so compaction cannot make room and both are demoted:
  // to 25 MHz in the 49 MHz tail, then to 12.5 MHz in the 23 MHz left.
  ASSERT_TRUE(std::holds_alternative<ChannelGrant>(p.handle({1, 160e6, kNoSdmBearing})));
  for (const std::uint16_t id : {2, 3})
    ASSERT_TRUE(std::holds_alternative<ChannelGrant>(p.handle({id, 80e6, kNoSdmBearing})));
  ASSERT_NEAR(p.holders().at(2).grant.channel.bandwidth_hz, 25e6, 1.0);
  ASSERT_NEAR(p.holders().at(3).grant.channel.bandwidth_hz, 12.5e6, 1.0);
  ASSERT_EQ(p.overload_stats().demotions, 2u);
  ASSERT_EQ(p.overload_stats().compactions, 0u);
  ASSERT_TRUE(p.take_retunes().empty());
  const auto before = p.allocator().allocations();
  EXPECT_TRUE(p.promote_demoted().empty());
  EXPECT_TRUE(p.take_retunes().empty());
  EXPECT_EQ(p.allocator().allocations(), before);
  EXPECT_EQ(p.overload_stats().promotions, 0u);
  // Freeing a neighbour makes room: the same pass now grows a holder.
  ASSERT_TRUE(p.release(1));
  EXPECT_FALSE(p.promote_demoted().empty());
}

TEST(InitProtocolOverload, DenyHintGrowsWithPressureAndResets) {
  InitConfig cfg;
  cfg.overload.enabled = true;  // no demotion floor: straight to deny
  InitProtocol p = make_overloaded(cfg);
  p.handle(ChannelRequest{1, 160e6, kNoSdmBearing});
  std::vector<double> hints;
  for (std::uint16_t id = 2; id < 6; ++id) {
    const auto msg = p.handle(ChannelRequest{id, 160e6, kNoSdmBearing});
    const auto* d = std::get_if<ChannelDeny>(&msg);
    ASSERT_NE(d, nullptr);
    hints.push_back(d->retry_after_s);
  }
  // Every hint positive; the deny streak pushes them up.
  for (const double h : hints) EXPECT_GT(h, 0.0);
  EXPECT_GT(hints.back(), hints.front());
  EXPECT_EQ(p.overload_stats().hinted_denies, 4u);
  // Freed spectrum resets the pressure: the next hint drops back down.
  ASSERT_TRUE(p.release(1));
  p.handle(ChannelRequest{10, 160e6, kNoSdmBearing});  // takes the band again
  const auto msg = p.handle(ChannelRequest{11, 160e6, kNoSdmBearing});
  const auto* d = std::get_if<ChannelDeny>(&msg);
  ASSERT_NE(d, nullptr);
  EXPECT_LE(d->retry_after_s, hints.back());

  // Saturation: a full band (occupancy 1) and a streak of 32 or more give
  // kDenyHintBaseS * (1 + 15 + 0.25 * 32) = 3 s. The hint grows up to it
  // and then stays there.
  InitProtocol full = make_overloaded(cfg);
  ASSERT_TRUE(std::holds_alternative<ChannelGrant>(full.handle({1, 200e6, kNoSdmBearing})));
  ASSERT_EQ(full.allocator().free_bandwidth_hz(), 0.0);
  double prev = 0.0;
  for (std::uint16_t streak = 0; streak < 40; ++streak) {
    const auto deny = full.handle(ChannelRequest{static_cast<std::uint16_t>(100 + streak), 10e6,
                                                 kNoSdmBearing});
    const auto* dn = std::get_if<ChannelDeny>(&deny);
    ASSERT_NE(dn, nullptr);
    if (streak < 32) {
      EXPECT_GT(dn->retry_after_s, prev) << streak;
      EXPECT_LT(dn->retry_after_s, 3.0) << streak;
    } else {
      EXPECT_EQ(dn->retry_after_s, 3.0) << streak;
    }
    prev = dn->retry_after_s;
  }
}

TEST(InitProtocolOverload, CompactionAdmitsFragmentedDemand) {
  // Four 50 MHz channels, the second released: 50 MHz mid-band hole plus
  // a 46 MHz usable tail. A 60 MHz demand fits neither gap but fits the
  // compacted band -> the AP slides everything down and grants full rate.
  InitConfig cfg;
  cfg.overload.enabled = true;
  cfg.overload.min_rate_bps = 10e6;
  InitProtocol p = make_overloaded(cfg);
  for (std::uint16_t id = 1; id <= 4; ++id) {
    const auto msg = p.handle(ChannelRequest{id, 40e6, kNoSdmBearing});
    ASSERT_NE(std::get_if<ChannelGrant>(&msg), nullptr);
  }
  ASSERT_TRUE(p.release(2));
  const auto msg = p.handle(ChannelRequest{5, 48e6, kNoSdmBearing});
  const auto* g = std::get_if<ChannelGrant>(&msg);
  ASSERT_NE(g, nullptr);
  EXPECT_NEAR(g->channel.bandwidth_hz, 60e6, 1.0);  // full rate, not demoted
  EXPECT_EQ(p.overload_stats().demotions, 0u);
  EXPECT_GE(p.overload_stats().compactions, 1u);
  EXPECT_EQ(p.overload_stats().invariant_violations, 0u);
  // Moved holders got queued re-tune grants with in-channel VCO voltages.
  const std::vector<ChannelGrant> retunes = p.take_retunes();
  ASSERT_FALSE(retunes.empty());
  rf::Vco vco;
  for (const ChannelGrant& rt : retunes) {
    EXPECT_EQ(p.holders().at(rt.node_id).grant.channel, rt.channel);
    EXPECT_GE(vco.frequency_hz(rt.vco_tune_v0), rt.channel.low_hz() - 1.0);
    EXPECT_LE(vco.frequency_hz(rt.vco_tune_v1), rt.channel.high_hz() + 1.0);
  }
  EXPECT_TRUE(p.take_retunes().empty());  // drained
}

TEST(InitProtocolOverload, SheddingReclaimsFromLowerPriorityThenPromotes) {
  InitConfig cfg;
  cfg.overload.enabled = true;
  cfg.overload.min_rate_bps = 20e6;  // floor channel: 25 MHz
  cfg.overload.shedding = true;
  InitProtocol p = make_overloaded(cfg);
  // Two priority-1 incumbents leave < 25 MHz free.
  p.handle(ChannelRequest{1, 100e6, kNoSdmBearing, 1});  // 125 MHz
  p.handle(ChannelRequest{2, 96e6, kNoSdmBearing, 1});   // 120 MHz
  ASSERT_LT(p.allocator().largest_gap_hz(), 25e6);
  // A priority-2 newcomer forces a shed of the cheapest victim.
  const auto msg = p.handle(ChannelRequest{3, 100e6, kNoSdmBearing, 2});
  const auto* g = std::get_if<ChannelGrant>(&msg);
  ASSERT_NE(g, nullptr);
  EXPECT_GE(p.overload_stats().shed_demotions, 1u);
  EXPECT_EQ(p.overload_stats().invariant_violations, 0u);
  // Nobody — shed incumbents included — sits below the floor.
  for (const auto& [id, holder] : p.holders()) {
    ASSERT_TRUE(p.granted_rate_bps(id).has_value());
    EXPECT_GE(*p.granted_rate_bps(id), cfg.overload.min_rate_bps - 1.0);
  }
  // Equal-priority requests never shed: a second priority-2 demand that
  // cannot fit is denied, not fed the first one's spectrum.
  const auto msg2 = p.handle(ChannelRequest{4, 100e6, kNoSdmBearing, 2});
  if (const auto* g2 = std::get_if<ChannelGrant>(&msg2)) {
    EXPECT_GE(g2->channel.bandwidth_hz * 0.8, cfg.overload.min_rate_bps - 1.0);
  }
  // When the band relaxes, promotion grows the shed grants back.
  ASSERT_TRUE(p.release(3));
  p.take_retunes();
  const std::vector<ChannelGrant> promoted = p.promote_demoted();
  EXPECT_FALSE(promoted.empty());
  EXPECT_GE(p.overload_stats().promotions, 1u);
  EXPECT_EQ(p.overload_stats().invariant_violations, 0u);
}

TEST(InitProtocol, DeniedRequestsLeaveNoHolderRecord) {
  // A deny leaves no state behind: 10k denied joiners under distinct ids,
  // against a full band, leave the holder table as it was. The overload
  // ladder's rungs (compaction, demotion) must not leak records either.
  for (const bool overload : {false, true}) {
    InitConfig cfg;
    cfg.overload.enabled = overload;
    cfg.overload.min_rate_bps = 4e6;
    InitProtocol p = make_overloaded(cfg);
    std::uint16_t id = 1;
    while (std::holds_alternative<ChannelGrant>(
        p.handle(ChannelRequest{id, 8e6, kNoSdmBearing, 2})))
      ++id;
    const std::size_t held = p.holders().size();
    ASSERT_GT(held, 0u);
    // A granted holder's record carries its request.
    const InitProtocol::Holder& first = p.holders().at(1);
    EXPECT_DOUBLE_EQ(first.bearing_rad, kNoSdmBearing);
    EXPECT_DOUBLE_EQ(first.requested_rate_bps, 8e6);
    EXPECT_EQ(first.priority, 2);
    for (int i = 0; i < 10000; ++i) {
      const auto msg = p.handle(ChannelRequest{++id, 8e6, kNoSdmBearing});
      ASSERT_TRUE(std::holds_alternative<ChannelDeny>(msg)) << "overload " << overload;
    }
    EXPECT_EQ(p.holders().size(), held) << "overload " << overload;
    EXPECT_EQ(p.allocator().num_allocations(), held);
  }
}

TEST(RejoinBackoff, NoJitterFollowsCappedDoubling) {
  RejoinBackoff bo(BackoffConfig{.base_s = 0.1, .factor = 2.0, .cap_s = 0.7,
                                 .jitter_frac = 0.0});
  Rng rng = Rng::stream(1, 0);
  const double expected[] = {0.1, 0.2, 0.4, 0.7, 0.7};  // capped
  int attempt = 0;
  for (const double want : expected) {
    EXPECT_EQ(bo.attempt(), attempt++);
    EXPECT_DOUBLE_EQ(bo.next_delay_s(rng), want);
  }
}

TEST(RejoinBackoff, JitterStaysInBandAndIsSeedDeterministic) {
  const BackoffConfig cfg{.base_s = 0.125, .factor = 2.0, .cap_s = 1.0,
                          .jitter_frac = 0.25};
  RejoinBackoff a(cfg), b(cfg);
  Rng rng_a = Rng::stream(9, 4);
  Rng rng_b = Rng::stream(9, 4);
  double nominal = cfg.base_s;
  for (int i = 0; i < 8; ++i) {
    const double da = a.next_delay_s(rng_a);
    EXPECT_GE(da, nominal * (1.0 - cfg.jitter_frac));
    EXPECT_LE(da, nominal * (1.0 + cfg.jitter_frac));
    // Same config + same stream = same schedule: the determinism the
    // fault lane's bit-identical contract leans on.
    EXPECT_EQ(da, b.next_delay_s(rng_b));
    nominal = std::min(nominal * cfg.factor, cfg.cap_s);
  }
}

TEST(RejoinBackoff, ResetRestartsTheSchedule) {
  RejoinBackoff bo(BackoffConfig{.base_s = 0.1, .factor = 2.0, .cap_s = 2.0,
                                 .jitter_frac = 0.0});
  Rng rng = Rng::stream(2, 0);
  bo.next_delay_s(rng);
  bo.next_delay_s(rng);
  EXPECT_EQ(bo.attempt(), 2);
  bo.reset();  // a successful re-grant forgives the history
  EXPECT_EQ(bo.attempt(), 0);
  EXPECT_DOUBLE_EQ(bo.next_delay_s(rng), 0.1);
}

TEST(RejoinBackoff, DenyHintFloorsTheDelay) {
  RejoinBackoff bo(BackoffConfig{.base_s = 0.1, .factor = 2.0, .cap_s = 2.0,
                                 .jitter_frac = 0.0});
  Rng rng(1);
  // First attempt would be 0.1 s; a 0.9 s AP hint overrides it.
  EXPECT_DOUBLE_EQ(bo.next_delay_s(rng, 0.9), 0.9);
  // Once the schedule exceeds the hint the schedule wins (0.2 -> 0.4...).
  EXPECT_DOUBLE_EQ(bo.next_delay_s(rng, 0.15), 0.2);
  // No hint: plain schedule (and the default argument keeps legacy
  // call sites draw-for-draw identical).
  EXPECT_DOUBLE_EQ(bo.next_delay_s(rng), 0.4);
}

TEST(RejoinBackoff, BadConfigThrows) {
  EXPECT_THROW(RejoinBackoff(BackoffConfig{.base_s = 0.0}), std::invalid_argument);
  EXPECT_THROW(RejoinBackoff(BackoffConfig{.factor = 0.9}), std::invalid_argument);
  EXPECT_THROW(RejoinBackoff(BackoffConfig{.base_s = 1.0, .cap_s = 0.5}),
               std::invalid_argument);
  EXPECT_THROW(RejoinBackoff(BackoffConfig{.jitter_frac = 1.0}), std::invalid_argument);
  // NaN fails every check too.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RejoinBackoff(BackoffConfig{.base_s = kNaN}), std::invalid_argument);
  EXPECT_THROW(RejoinBackoff(BackoffConfig{.factor = kNaN}), std::invalid_argument);
  EXPECT_THROW(RejoinBackoff(BackoffConfig{.cap_s = kNaN}), std::invalid_argument);
  EXPECT_THROW(RejoinBackoff(BackoffConfig{.jitter_frac = kNaN}), std::invalid_argument);
}

}  // namespace
}  // namespace mmx::mac
