// Lockstep equivalence: the production admission path (FdmAllocator +
// InitProtocol) against the frozen pre-refactor copy in
// tests/reference/ref_admission.*. Admission is a pure function of the
// request sequence, so both must agree after every operation of a long
// random sequence: the reply, every holder's grant, the re-tune queue,
// the overload stats and the allocator's map. A rewrite of either
// data structure passes only if it reproduces the oracle exactly.
#include <gtest/gtest.h>

#include <algorithm>
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
    ASSERT_EQ(prod.granted_rate_bps(s.id), ref.granted_rate_bps(s.id)) << where;
    // The reference's invariant check used a 1e-6 Hz slack, below one
    // ulp at 24 GHz, so it counts compact()'s rounding as violations.
    // Production must count none; every other stat must match.
    OverloadStats ref_stats = ref.overload_stats();
    ref_stats.invariant_violations = 0;
    ASSERT_EQ(prod.overload_stats(), ref_stats) << where;
    ASSERT_EQ(prod.allocator().allocations(), ref.allocator().allocations()) << where;
    ASSERT_EQ(prod.allocator().invariant_violations(), 0u) << where;
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

}  // namespace
}  // namespace mmx::mac
