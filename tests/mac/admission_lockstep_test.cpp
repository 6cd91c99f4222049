// Lockstep equivalence: the production admission path (FdmAllocator +
// InitProtocol) against the frozen pre-refactor copy in
// tests/reference/ref_admission.*. Admission is a pure function of the
// request sequence, so both must agree after every operation of a long
// random sequence: the reply, every holder's grant, the re-tune queue,
// the overload stats, the allocator's map and its gap and headroom
// queries. A rewrite of either data structure passes only if it
// reproduces the oracle exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/mac/init_protocol.hpp"
#include "ref_admission.hpp"

namespace mmx::mac {
namespace {

bool same_grant(const ChannelGrant& a, const ChannelGrant& b) {
  return a.node_id == b.node_id && a.channel == b.channel && a.sdm_harmonic == b.sdm_harmonic &&
         a.vco_tune_v0 == b.vco_tune_v0 && a.vco_tune_v1 == b.vco_tune_v1;
}

bool same_grants(const std::vector<ChannelGrant>& a, const std::vector<ChannelGrant>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_grant(a[i], b[i])) return false;
  return true;
}

/// Bit-for-bit: the memoized gap view must not round differently.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_reply(const SideChannelMessage& a, const SideChannelMessage& b) {
  if (a.index() != b.index()) return false;
  if (const auto* ga = std::get_if<ChannelGrant>(&a))
    return same_grant(*ga, std::get<ChannelGrant>(b));
  const auto& da = std::get<ChannelDeny>(a);
  const auto& db = std::get<ChannelDeny>(b);
  return da.node_id == db.node_id && da.retry_after_s == db.retry_after_s;
}

// kNarrowVco: overload off, and the node VCO stops 50 MHz short of the
// band top, so some FDM gaps are untunable and those requests are denied
// without trying SDM.
enum class Mode { kPlain, kOverload, kNarrowVco };

InitConfig config_for(Mode mode) {
  InitConfig cfg;
  if (mode == Mode::kOverload) {
    cfg.overload.enabled = true;
    cfg.overload.min_rate_bps = 4e6;  // 5 MHz floor channel
    cfg.overload.shedding = true;
  }
  return cfg;
}

/// One random step's input. Bearings mostly sit near a TMA harmonic's
/// steered direction so SDM groups form; the rest are arbitrary.
struct Step {
  int op = 0;
  std::uint16_t id = 0;
  double rate_bps = 0.0;
  double bearing_rad = 0.0;
  std::uint8_t priority = 1;
};

constexpr int kPoolIds = 200;

Step draw_step(Rng& rng, const std::vector<HarmonicSlot>& slots) {
  Step s;
  const double roll = rng.uniform(0.0, 1.0);
  s.op = roll < 0.50 ? 0 : roll < 0.75 ? 1 : roll < 0.88 ? 2 : roll < 0.94 ? 3 : 4;
  s.id = static_cast<std::uint16_t>(rng.uniform_int(0, kPoolIds - 1));
  // Log-uniform 1-60 Mbps: 1.25-75 MHz channels in a 250 MHz band.
  s.rate_bps = std::exp(rng.uniform(std::log(1e6), std::log(60e6)));
  if (rng.uniform(0.0, 1.0) < 0.8) {
    const auto& slot =
        slots[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(slots.size()) - 1))];
    s.bearing_rad = slot.angle_rad + rng.uniform(-0.08, 0.08);
  } else {
    s.bearing_rad = rng.uniform(-1.5, 1.5);
  }
  s.priority = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
  return s;
}

/// After one operation on both: the re-tune queues (drained; their size
/// is added to `retunes`), every holder's grant, the operated node's
/// rate, the overload stats, and the allocator's map and queries.
void expect_same_state(InitProtocol& prod, refmac::InitProtocol& ref, std::uint16_t node_id,
                       const std::string& where, std::size_t& retunes) {
  const std::vector<ChannelGrant> rt = prod.take_retunes();
  ASSERT_TRUE(same_grants(rt, ref.take_retunes())) << where;
  retunes += rt.size();

  ASSERT_EQ(prod.holders().size(), ref.grants().size()) << where;
  auto r = ref.grants().begin();
  for (const auto& [id, holder] : prod.holders()) {
    ASSERT_EQ(id, r->first) << where;
    ASSERT_TRUE(same_grant(holder.grant, r->second)) << where << " holder " << id;
    ++r;
  }
  ASSERT_EQ(prod.granted_rate_bps(node_id), ref.granted_rate_bps(node_id)) << where;
  // The reference's invariant check used a 1e-6 Hz slack, below one
  // ulp at 24 GHz, so it counts compact()'s rounding as violations.
  // Production must count none; every other stat must match.
  OverloadStats ref_stats = ref.overload_stats();
  ref_stats.invariant_violations = 0;
  ASSERT_EQ(prod.overload_stats(), ref_stats) << where;
  const FdmAllocator& pa = prod.allocator();
  const refmac::FdmAllocator& ra = ref.allocator();
  ASSERT_EQ(pa.allocations(), ra.allocations()) << where;
  ASSERT_TRUE(same_bits(pa.largest_gap_hz(), ra.largest_gap_hz())) << where;
  ASSERT_TRUE(same_bits(pa.fragmentation(), ra.fragmentation())) << where;
  ASSERT_TRUE(same_bits(pa.compacted_headroom_hz(), ra.compacted_headroom_hz())) << where;
  ASSERT_TRUE(same_bits(pa.free_bandwidth_hz(), ra.free_bandwidth_hz())) << where;
  ASSERT_EQ(pa.invariant_violations(), 0u) << where;
}

void run_lockstep(Mode mode, std::uint64_t seed, int steps) {
  const InitConfig cfg = config_for(mode);
  rf::VcoSpec vco;
  if (mode == Mode::kNarrowVco) vco.f_max_hz = kIsmHighHz - 50e6;
  InitProtocol prod(FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco(vco), cfg);
  refmac::InitProtocol ref(refmac::FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco(vco),
                           cfg);
  const std::vector<HarmonicSlot> slots = default_sdm_slots();
  Rng rng(seed);
  std::size_t grants = 0;
  std::size_t sdm_grants = 0;
  std::size_t untunable_denies = 0;  // denied although an FDM gap fit
  std::size_t retunes = 0;
  for (int step = 0; step < steps; ++step) {
    const Step s = draw_step(rng, slots);
    const std::string where = "step " + std::to_string(step) + " op " + std::to_string(s.op) +
                              " id " + std::to_string(s.id);
    switch (s.op) {
      case 0: {  // handle
        const ChannelRequest req{s.id, s.rate_bps, s.bearing_rad, s.priority};
        const double bw = required_bandwidth_hz(s.rate_bps);
        const bool gap_fits =
            !prod.holders().contains(s.id) && prod.allocator().largest_gap_hz() >= bw;
        const SideChannelMessage a = prod.handle(req);
        ASSERT_TRUE(same_reply(a, ref.handle(req))) << where;
        untunable_denies += gap_fits && std::holds_alternative<ChannelDeny>(a) ? 1 : 0;
        if (const auto* g = std::get_if<ChannelGrant>(&a)) {
          ++grants;
          const auto shares = std::count_if(
              prod.holders().begin(), prod.holders().end(),
              [&](const auto& kv) { return kv.second.grant.channel == g->channel; });
          sdm_grants += shares > 1 ? 1 : 0;
        }
        break;
      }
      case 1:  // release
        ASSERT_EQ(prod.release(s.id), ref.release(s.id)) << where;
        break;
      case 2:  // modify_rate
        ASSERT_TRUE(same_reply(prod.modify_rate(s.id, s.rate_bps),
                               ref.modify_rate(s.id, s.rate_bps)))
            << where;
        break;
      case 3:  // promote_demoted
        ASSERT_TRUE(same_grants(prod.promote_demoted(), ref.promote_demoted())) << where;
        break;
      default:  // compact_spectrum
        ASSERT_EQ(prod.compact_spectrum(), ref.compact_spectrum()) << where;
        break;
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_state(prod, ref, s.id, where, retunes));
  }
  // The sequence must actually reach the interesting paths.
  EXPECT_GT(grants, 1000u);
  if (mode == Mode::kNarrowVco) {
    // Once the tunable part fills, first fit lands above the VCO range
    // and the deny comes before SDM is tried.
    EXPECT_GT(untunable_denies, 0u);
  } else {
    EXPECT_EQ(untunable_denies, 0u);
    EXPECT_GT(sdm_grants, 100u);
  }
  if (mode == Mode::kOverload) {
    EXPECT_GT(retunes, 0u);
    EXPECT_GT(prod.overload_stats().demotions, 0u);
    EXPECT_GT(prod.overload_stats().shed_demotions, 0u);
    EXPECT_GT(prod.overload_stats().promotions, 0u);
    EXPECT_GT(prod.overload_stats().hinted_denies, 0u);
  }
}

TEST(AdmissionLockstep, HundredThousandOpsOverloadOff) {
  run_lockstep(Mode::kPlain, 0x10c5, 100000);
}

TEST(AdmissionLockstep, HundredThousandOpsOverloadOn) {
  run_lockstep(Mode::kOverload, 0x0e71, 100000);
}

TEST(AdmissionLockstep, UntunableGapsDenyLikeTheReference) {
  run_lockstep(Mode::kNarrowVco, 0x7c0, 20000);
}

TEST(AdmissionLockstep, OrphanedGroupChannelRegrantedLikeTheReference) {
  // With overload off, an SDM owner's release frees the group's spectrum
  // while the group lives on, and first fit can hand exactly that channel
  // value to a newcomer (docs/ROBUSTNESS.md, "Known gap"). The newcomer
  // then counts as shared until the orphaned group empties. Random
  // sequences almost never repeat a channel value, so this walks the case
  // step by step against the reference.
  const InitConfig cfg = config_for(Mode::kPlain);
  InitProtocol prod(FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{}, cfg);
  refmac::InitProtocol ref(refmac::FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{}, cfg);
  const double east = std::asin(0.25);   // harmonic +2
  const double west = std::asin(-0.375);  // harmonic -3, far enough to share
  std::size_t retunes = 0;
  int step = 0;
  const auto join = [&](std::uint16_t id, double rate_bps, double bearing_rad) {
    const ChannelRequest req{id, rate_bps, bearing_rad, 1};
    const SideChannelMessage a = prod.handle(req);
    ASSERT_TRUE(same_reply(a, ref.handle(req))) << "join " << id;
    ASSERT_NO_FATAL_FAILURE(
        expect_same_state(prod, ref, id, "step " + std::to_string(step++), retunes));
  };
  const auto leave = [&](std::uint16_t id) {
    ASSERT_EQ(prod.release(id), ref.release(id)) << "leave " << id;
    ASSERT_NO_FATAL_FAILURE(
        expect_same_state(prod, ref, id, "step " + std::to_string(step++), retunes));
  };
  // Nine 25 MHz owners fill the band; a westward newcomer converts owner 1.
  for (std::uint16_t id = 1; id <= 9; ++id) ASSERT_NO_FATAL_FAILURE(join(id, 20e6, east));
  ASSERT_NO_FATAL_FAILURE(join(20, 20e6, west));
  const ChannelAllocation orphaned = prod.holders().at(1).grant.channel;
  // Owner 1 leaves: the group {20} keeps a channel the allocator freed,
  // and node 0 is granted that very channel value by first fit.
  ASSERT_NO_FATAL_FAILURE(leave(1));
  ASSERT_NO_FATAL_FAILURE(join(0, 20e6, east));
  ASSERT_EQ(prod.holders().at(0).grant.channel, orphaned);
  // Node 0 has the lowest id but its channel counts as shared, so the
  // next conversion takes owner 2.
  ASSERT_NO_FATAL_FAILURE(join(22, 20e6, west));
  ASSERT_EQ(prod.holders().at(2).grant.channel, prod.holders().at(22).grant.channel);
  // The orphaned group empties; node 0's channel is convertible again.
  ASSERT_NO_FATAL_FAILURE(leave(20));
  ASSERT_NO_FATAL_FAILURE(join(23, 20e6, west));
  ASSERT_EQ(prod.holders().at(0).grant.channel, prod.holders().at(23).grant.channel);
  // Orphan group {22} re-forms through a failed modify_rate, and its
  // channel value is granted again (to node 24).
  ASSERT_NO_FATAL_FAILURE(leave(2));
  ASSERT_TRUE(same_reply(prod.modify_rate(22, 400e6), ref.modify_rate(22, 400e6)));
  ASSERT_NO_FATAL_FAILURE(expect_same_state(prod, ref, 22, "modify 22", retunes));
  ASSERT_NO_FATAL_FAILURE(join(24, 20e6, east));
  ASSERT_EQ(prod.holders().at(24).grant.channel, prod.holders().at(22).grant.channel);
  ASSERT_NO_FATAL_FAILURE(join(25, 20e6, west));
  // Compaction moves owners together with every group on their channel.
  ASSERT_NO_FATAL_FAILURE(leave(5));
  ASSERT_EQ(prod.compact_spectrum(), ref.compact_spectrum());
  ASSERT_NO_FATAL_FAILURE(expect_same_state(prod, ref, 0, "compact", retunes));
  EXPECT_GT(retunes, 0u);
  for (const std::uint16_t id : {26, 27, 28}) ASSERT_NO_FATAL_FAILURE(join(id, 20e6, west));
  for (const std::uint16_t id : {0, 22, 23, 24, 25}) ASSERT_NO_FATAL_FAILURE(leave(id));
  ASSERT_NO_FATAL_FAILURE(join(29, 20e6, west));
}

TEST(AdmissionLockstep, UnreachableBearingDeniedBeforeTheGroupScan) {
  // A bearing outside every harmonic's window can take no slot on any
  // channel, so try_sdm denies it without looking at the open groups,
  // and the reply is the one the reference's full scan reaches.
  const InitConfig cfg = config_for(Mode::kPlain);
  InitProtocol prod(FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{}, cfg);
  refmac::InitProtocol ref(refmac::FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{}, cfg);
  const double east = std::asin(0.25);   // harmonic +2
  const double west = std::asin(-0.375);  // harmonic -3
  std::size_t retunes = 0;
  const auto join = [&](std::uint16_t id, double bearing_rad) {
    const ChannelRequest req{id, 20e6, bearing_rad, 1};
    const SideChannelMessage a = prod.handle(req);
    ASSERT_TRUE(same_reply(a, ref.handle(req))) << "join " << id;
    ASSERT_NO_FATAL_FAILURE(expect_same_state(prod, ref, id, "join", retunes));
  };
  // Nine owners fill the band, and a westward newcomer opens a group.
  for (std::uint16_t id = 1; id <= 9; ++id) ASSERT_NO_FATAL_FAILURE(join(id, east));
  ASSERT_NO_FATAL_FAILURE(join(20, west));
  ASSERT_EQ(prod.holders().at(1).grant.channel, prod.holders().at(20).grant.channel);

  // The nine windows (+/-0.07 rad around sin(theta) = 0.125 m, |m| <= 4)
  // overlap into one span that ends near +/-0.59 rad.
  const InitProtocol::Work before = prod.work();
  ASSERT_NO_FATAL_FAILURE(join(30, 1.0));
  EXPECT_FALSE(prod.holders().contains(30));
  EXPECT_EQ(prod.work().sdm_requests, before.sdm_requests + 1);
  EXPECT_EQ(prod.work().sdm_groups_scanned, before.sdm_groups_scanned);
  // A reachable bearing still scans the open group.
  ASSERT_NO_FATAL_FAILURE(join(31, 0.0));
  EXPECT_GT(prod.work().sdm_groups_scanned, before.sdm_groups_scanned);
}

TEST(AdmissionLockstep, CompactionRetunesOrphanedMembersInIdOrder) {
  // With overload off, an SDM owner's release leaves its group's members
  // on spectrum the allocator freed, and first fit grants that channel
  // value again. Compaction then moves the new owner and the orphaned
  // members together: the re-tune visits exactly those holders, in id
  // order, and queues what the reference's walk over every holder does.
  const InitConfig cfg = config_for(Mode::kPlain);
  InitProtocol prod(FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{}, cfg);
  refmac::InitProtocol ref(refmac::FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{}, cfg);
  const double east = std::asin(0.5);   // harmonic +4
  const double west = std::asin(-0.5);  // harmonic -4
  std::size_t retunes = 0;
  int step = 0;
  const auto join = [&](std::uint16_t id, double bearing_rad) {
    const ChannelRequest req{id, 20e6, bearing_rad, 1};
    const SideChannelMessage a = prod.handle(req);
    ASSERT_TRUE(same_reply(a, ref.handle(req))) << "join " << id;
    ASSERT_NO_FATAL_FAILURE(
        expect_same_state(prod, ref, id, "step " + std::to_string(step++), retunes));
  };
  const auto leave = [&](std::uint16_t id) {
    ASSERT_EQ(prod.release(id), ref.release(id)) << "leave " << id;
    ASSERT_NO_FATAL_FAILURE(
        expect_same_state(prod, ref, id, "step " + std::to_string(step++), retunes));
  };
  // Owner 1 (the band's lowest channel) faces west, so the westward
  // newcomer converts owner 2 and a third bearing joins that group.
  ASSERT_NO_FATAL_FAILURE(join(1, west));
  for (std::uint16_t id = 2; id <= 9; ++id) ASSERT_NO_FATAL_FAILURE(join(id, east));
  ASSERT_NO_FATAL_FAILURE(join(20, west));
  ASSERT_NO_FATAL_FAILURE(join(21, 0.0));
  const ChannelAllocation shared = prod.holders().at(2).grant.channel;
  ASSERT_EQ(prod.holders().at(20).grant.channel, shared);
  ASSERT_EQ(prod.holders().at(21).grant.channel, shared);
  // Owner 2 leaves; node 0 is granted the orphaned channel's value.
  ASSERT_NO_FATAL_FAILURE(leave(2));
  ASSERT_NO_FATAL_FAILURE(join(0, east));
  ASSERT_EQ(prod.holders().at(0).grant.channel, shared);
  // Owner 1 leaves, so compaction slides every channel down.
  ASSERT_NO_FATAL_FAILURE(leave(1));
  const std::uint64_t visits = prod.work().retune_visits;
  ASSERT_EQ(prod.compact_spectrum(), ref.compact_spectrum());
  const std::vector<ChannelGrant> rt = prod.take_retunes();
  ASSERT_TRUE(same_grants(rt, ref.take_retunes()));
  ASSERT_GE(rt.size(), 3u);
  const std::vector<std::uint16_t> moved_first{rt[0].node_id, rt[1].node_id, rt[2].node_id};
  EXPECT_EQ(moved_first, (std::vector<std::uint16_t>{0, 20, 21}));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rt[i].channel, prod.holders().at(rt[i].node_id).grant.channel);
    EXPECT_LT(rt[i].channel.center_hz, shared.center_hz);
  }
  EXPECT_EQ(rt[1].sdm_harmonic, -4);
  EXPECT_EQ(rt[2].sdm_harmonic, 0);
  // Only holders on a moved channel are visited: one re-tune per visit.
  EXPECT_EQ(prod.work().retune_visits - visits, rt.size());
  ASSERT_NO_FATAL_FAILURE(expect_same_state(prod, ref, 0, "compact", retunes));
}

}  // namespace
}  // namespace mmx::mac
