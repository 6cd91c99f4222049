#include "mmx/mac/allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"

namespace mmx::mac {
namespace {

FdmAllocator ism_band() { return FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6); }

TEST(RequiredBandwidth, ScalesWithRate) {
  // 10 Mbps HD video at 0.8 b/s/Hz -> 12.5 MHz.
  EXPECT_NEAR(required_bandwidth_hz(10e6), 12.5e6, 1.0);
  EXPECT_THROW(required_bandwidth_hz(0.0), std::invalid_argument);
  EXPECT_THROW(required_bandwidth_hz(1e6, 0.0), std::invalid_argument);
}

TEST(FdmAllocator, AllocatesWithinBand) {
  FdmAllocator a = ism_band();
  const auto ch = a.allocate(1, 25e6);
  ASSERT_TRUE(ch.has_value());
  EXPECT_GE(ch->low_hz(), kIsmLowHz);
  EXPECT_LE(ch->high_hz(), kIsmHighHz);
  EXPECT_DOUBLE_EQ(ch->bandwidth_hz, 25e6);
}

TEST(FdmAllocator, ChannelsDoNotOverlap) {
  FdmAllocator a = ism_band();
  std::vector<ChannelAllocation> chans;
  for (std::uint16_t id = 0; id < 8; ++id) {
    const auto ch = a.allocate(id, 25e6);
    ASSERT_TRUE(ch.has_value()) << id;
    chans.push_back(*ch);
  }
  for (std::size_t i = 0; i < chans.size(); ++i) {
    for (std::size_t j = i + 1; j < chans.size(); ++j) {
      const bool disjoint =
          chans[i].high_hz() <= chans[j].low_hz() || chans[j].high_hz() <= chans[i].low_hz();
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST(FdmAllocator, GuardBandsRespected) {
  FdmAllocator a(24.0e9, 24.25e9, 2e6);
  const auto c1 = a.allocate(1, 20e6);
  const auto c2 = a.allocate(2, 20e6);
  ASSERT_TRUE(c1 && c2);
  EXPECT_GE(c2->low_hz() - c1->high_hz(), 2e6 - 1e-6);
}

TEST(FdmAllocator, PaperCapacityTenNodesAt25MHz) {
  // §9.5: each node occupies 25 MHz; the 250 MHz ISM band fits ~9-10 such
  // nodes with guards.
  FdmAllocator a = ism_band();
  int fitted = 0;
  for (std::uint16_t id = 0; id < 20; ++id) {
    if (a.allocate(id, 25e6)) ++fitted;
  }
  EXPECT_GE(fitted, 9);
  EXPECT_LE(fitted, 10);
}

TEST(FdmAllocator, ExhaustionReturnsNullopt) {
  FdmAllocator a = ism_band();
  EXPECT_TRUE(a.allocate(1, 200e6).has_value());
  EXPECT_FALSE(a.allocate(2, 100e6).has_value());
}

TEST(FdmAllocator, ReleaseReclaimsSpectrum) {
  FdmAllocator a = ism_band();
  ASSERT_TRUE(a.allocate(1, 200e6));
  EXPECT_FALSE(a.allocate(2, 200e6));
  EXPECT_TRUE(a.release(1));
  EXPECT_TRUE(a.allocate(2, 200e6).has_value());
  EXPECT_FALSE(a.release(1));  // already gone
}

TEST(FdmAllocator, ReusesFreedGapFirstFit) {
  FdmAllocator a = ism_band();
  ASSERT_TRUE(a.allocate(1, 50e6));
  ASSERT_TRUE(a.allocate(2, 50e6));
  ASSERT_TRUE(a.allocate(3, 50e6));
  a.release(2);
  const auto ch = a.allocate(4, 40e6);
  ASSERT_TRUE(ch.has_value());
  // Must slot into the freed middle gap (first fit), not at the end.
  EXPECT_LT(ch->low_hz(), a.lookup(3)->low_hz());
}

TEST(FdmAllocator, LookupAndAccounting) {
  FdmAllocator a = ism_band();
  EXPECT_FALSE(a.lookup(1).has_value());
  a.allocate(1, 30e6);
  EXPECT_TRUE(a.lookup(1).has_value());
  EXPECT_EQ(a.num_allocations(), 1u);
  EXPECT_NEAR(a.free_bandwidth_hz(), 220e6, 1.0);
}

TEST(FdmAllocator, LargestGapTracksFragmentation) {
  FdmAllocator a(0.0, 100.0, 0.0);
  a.allocate(1, 40.0);
  a.allocate(2, 40.0);
  a.release(1);
  EXPECT_NEAR(a.largest_gap_hz(), 40.0, 1e-9);
  // free_bandwidth says 60 but largest gap is only 40: fragmentation.
  EXPECT_NEAR(a.free_bandwidth_hz(), 60.0, 1e-9);
}

TEST(FdmAllocator, DoubleAllocateThrows) {
  FdmAllocator a = ism_band();
  a.allocate(1, 10e6);
  EXPECT_THROW(a.allocate(1, 10e6), std::invalid_argument);
}

TEST(FdmAllocator, BadArgsThrow) {
  EXPECT_THROW(FdmAllocator(10.0, 5.0), std::invalid_argument);
  EXPECT_THROW(FdmAllocator(0.0, 10.0, -1.0), std::invalid_argument);
  FdmAllocator a = ism_band();
  EXPECT_THROW(a.allocate(1, 0.0), std::invalid_argument);
  // NaN fails every check too.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FdmAllocator(kNaN, 10.0), std::invalid_argument);
  EXPECT_THROW(FdmAllocator(0.0, kNaN), std::invalid_argument);
  EXPECT_THROW(FdmAllocator(0.0, 10.0, kNaN), std::invalid_argument);
  EXPECT_THROW(a.allocate(1, kNaN), std::invalid_argument);
  EXPECT_THROW(required_bandwidth_hz(1e6, kNaN), std::invalid_argument);
}

TEST(FdmAllocator, RandomAllocReleaseStressNeverOverlaps) {
  // 2000 random allocate/release operations: at every step, allocations
  // must be disjoint, inside the band, and the books must balance.
  Rng rng(7);
  FdmAllocator a(kIsmLowHz, kIsmHighHz, 1e6);
  std::vector<std::uint16_t> held;
  std::uint16_t next_id = 0;
  for (int step = 0; step < 2000; ++step) {
    if (held.empty() || rng.chance(0.6)) {
      const double bw = rng.uniform(1e6, 60e6);
      const std::uint16_t id = next_id++;
      if (a.allocate(id, bw)) held.push_back(id);
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(held.size()) - 1));
      ASSERT_TRUE(a.release(held[pick]));
      held.erase(held.begin() + static_cast<long>(pick));
    }
    // Invariants.
    ASSERT_EQ(a.num_allocations(), held.size());
    double used = 0.0;
    std::vector<ChannelAllocation> chans;
    for (const auto& [id, ch] : a.allocations()) {
      ASSERT_GE(ch.low_hz(), kIsmLowHz - 1e-6);
      ASSERT_LE(ch.high_hz(), kIsmHighHz + 1e-6);
      used += ch.bandwidth_hz;
      chans.push_back(ch);
    }
    ASSERT_NEAR(a.free_bandwidth_hz(), kIsmBandwidthHz - used, 1.0);
    std::sort(chans.begin(), chans.end(),
              [](const auto& x, const auto& y) { return x.low_hz() < y.low_hz(); });
    for (std::size_t i = 1; i < chans.size(); ++i) {
      ASSERT_GE(chans[i].low_hz(), chans[i - 1].high_hz() - 1e-6);
    }
  }
}

// Full allocator-state audit, run after every mutation in the fuzz test:
// every channel in band, guards respected between neighbours, the books
// balanced, and the derived gauges (largest_gap, fragmentation,
// compacted_headroom) mutually consistent.
void ExpectAllocatorInvariants(const FdmAllocator& a) {
  const double band = a.band_high_hz() - a.band_low_hz();
  double used = 0.0;
  std::vector<ChannelAllocation> chans;
  for (const auto& [id, ch] : a.allocations()) {
    ASSERT_GT(ch.bandwidth_hz, 0.0);
    ASSERT_GE(ch.low_hz(), a.band_low_hz() - 1e-3);
    ASSERT_LE(ch.high_hz(), a.band_high_hz() + 1e-3);
    used += ch.bandwidth_hz;
    chans.push_back(ch);
  }
  std::sort(chans.begin(), chans.end(),
            [](const auto& x, const auto& y) { return x.low_hz() < y.low_hz(); });
  for (std::size_t i = 1; i < chans.size(); ++i) {
    ASSERT_GE(chans[i].low_hz(), chans[i - 1].high_hz() + a.guard_hz() - 1e-3)
        << "guard violated between neighbours " << i - 1 << " and " << i;
  }
  ASSERT_NEAR(a.free_bandwidth_hz(), band - used, 1.0);
  const double frag = a.fragmentation();
  ASSERT_GE(frag, 0.0);
  ASSERT_LE(frag, 1.0);
  if (chans.empty()) {
    ASSERT_NEAR(a.largest_gap_hz(), band, 1e-3);
    ASSERT_DOUBLE_EQ(frag, 0.0);
  }
  ASSERT_LE(a.largest_gap_hz(), a.free_bandwidth_hz() + 1e-3);
  // Compaction can only help: the coalesced top-of-band gap admits at
  // least as wide a channel as the widest usable gap right now.
  ASSERT_LE(a.largest_gap_hz(), a.compacted_headroom_hz() + 1e-3);
}

TEST(FdmAllocatorFuzz, HundredThousandOpsHoldInvariants) {
  // 100k random allocate/release/compact/restore/transfer operations with
  // the full invariant audit after every step, under both placement
  // policies. Catches free-list accounting drift, guard violations and
  // compact() corruption that targeted tests miss.
  Rng rng(0xa110c);
  FdmAllocator a(kIsmLowHz, kIsmHighHz, 1e6, AllocPolicy::kBestFit);
  std::vector<std::uint16_t> held;
  std::uint16_t next_id = 0;
  std::size_t compactions = 0;
  for (int step = 0; step < 100000; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (held.empty() || roll < 0.50) {
      const double bw = rng.uniform(0.5e6, 60e6);
      const std::uint16_t id = next_id++;
      const auto ch = a.allocate(id, bw);
      if (ch) {
        held.push_back(id);
        ASSERT_NEAR(ch->bandwidth_hz, bw, 1e-9);
      } else {
        // A refusal must be honest: no usable gap fits the demand.
        ASSERT_LT(a.largest_gap_hz(), bw);
      }
    } else if (roll < 0.80) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(held.size()) - 1));
      ASSERT_TRUE(a.release(held[pick]));
      held.erase(held.begin() + static_cast<long>(pick));
    } else if (roll < 0.88) {
      const std::vector<RetuneEvent> moved = a.compact();
      ++compactions;
      for (const RetuneEvent& ev : moved) {
        ASSERT_NEAR(ev.from.bandwidth_hz, ev.to.bandwidth_hz, 1e-9);
        ASSERT_LT(ev.to.center_hz, ev.from.center_hz);  // always down-band
        ASSERT_EQ(a.lookup(ev.node_id), ev.to);
      }
      // All free spectrum now sits in the single top-of-band gap.
      ASSERT_NEAR(a.largest_gap_hz(), a.compacted_headroom_hz(), 1e-3);
    } else if (roll < 0.94) {
      // Release + exact restore must round-trip (the modify_rate deny path).
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(held.size()) - 1));
      const ChannelAllocation ch = *a.lookup(held[pick]);
      ASSERT_TRUE(a.release(held[pick]));
      ASSERT_TRUE(a.restore(held[pick], ch));
      ASSERT_EQ(*a.lookup(held[pick]), ch);
    } else {
      // Ownership hand-off (SDM succession) keeps the spectrum in place.
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(held.size()) - 1));
      const ChannelAllocation ch = *a.lookup(held[pick]);
      const std::uint16_t heir = next_id++;
      ASSERT_TRUE(a.transfer(held[pick], heir));
      ASSERT_FALSE(a.lookup(held[pick]).has_value());
      ASSERT_EQ(*a.lookup(heir), ch);
      held[pick] = heir;
    }
    if (step == 50000) a.set_policy(AllocPolicy::kFirstFit);
    ASSERT_NO_FATAL_FAILURE(ExpectAllocatorInvariants(a));
    ASSERT_EQ(a.invariant_violations(), 0u) << "step " << step;
  }
  EXPECT_GT(compactions, 0u);
  EXPECT_GT(held.size(), 0u);
}

TEST(FdmAllocator, BestFitPicksTightestGap) {
  FdmAllocator a(0.0, 100.0, 0.0, AllocPolicy::kBestFit);
  ASSERT_TRUE(a.allocate(1, 10.0));   // [0,10]
  ASSERT_TRUE(a.allocate(2, 30.0));   // [10,40]
  ASSERT_TRUE(a.allocate(3, 12.0));   // [40,52]
  ASSERT_TRUE(a.allocate(4, 20.0));   // [52,72]
  a.release(2);                       // 30-wide hole at [10,40]; tail [72,100] is 28
  const auto ch = a.allocate(5, 18.0);
  ASSERT_TRUE(ch.has_value());
  // First-fit would take the 30-wide hole at [10,40]; best-fit takes the
  // tighter 28-wide tail.
  EXPECT_NEAR(ch->low_hz(), 72.0, 1e-9);
}

TEST(FdmAllocator, CompactSlidesDownBandAndCoalesces) {
  FdmAllocator a(0.0, 100.0, 2.0);
  ASSERT_TRUE(a.allocate(1, 10.0));
  ASSERT_TRUE(a.allocate(2, 10.0));
  ASSERT_TRUE(a.allocate(3, 10.0));
  ASSERT_TRUE(a.release(2));
  const auto moved = a.compact();
  ASSERT_EQ(moved.size(), 1u);  // only node 3 moves (1 already at the edge)
  EXPECT_EQ(moved[0].node_id, 3);
  EXPECT_NEAR(a.lookup(3)->low_hz(), 12.0, 1e-9);  // 10 + guard
  // One coalesced top gap: [22, 100] minus the guard for a newcomer.
  EXPECT_NEAR(a.largest_gap_hz(), 76.0, 1e-9);
  // Idempotent: a second pass moves nothing.
  EXPECT_TRUE(a.compact().empty());
}

TEST(FdmAllocator, FragmentationGauge) {
  FdmAllocator a(0.0, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);  // empty band
  a.allocate(1, 30.0);
  a.allocate(2, 30.0);
  a.allocate(3, 40.0);
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);  // full band
  a.release(2);
  // Free 30 in one hole, contiguous: no fragmentation.
  EXPECT_NEAR(a.fragmentation(), 0.0, 1e-12);
  a.release(1);
  // Free 60 in one hole [0,60]: still contiguous.
  EXPECT_NEAR(a.fragmentation(), 0.0, 1e-12);
  ASSERT_TRUE(a.allocate(4, 25.0));  // splits the hole: [25,60] remains
  EXPECT_NEAR(a.fragmentation(), 0.0, 1e-12);  // single gap again
  ASSERT_TRUE(a.allocate(5, 10.0));  // [25,35]; gap [35,60] = 25
  a.release(4);                      // gaps [0,25] and [35,60]: 50 free, widest 25
  EXPECT_NEAR(a.fragmentation(), 0.5, 1e-12);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every query on `a` against an allocator rebuilt from a.allocations()
/// through restore(): a memoized view that outlived a mutation shows up
/// as a mismatch. allocate() reads the view too, so it is probed on
/// copies of both.
void ExpectQueriesMatchRebuild(const FdmAllocator& a, const std::string& where) {
  FdmAllocator fresh(a.band_low_hz(), a.band_high_hz(), a.guard_hz(), a.policy());
  for (const auto& [id, ch] : a.allocations()) ASSERT_TRUE(fresh.restore(id, ch)) << where;
  EXPECT_TRUE(same_bits(a.largest_gap_hz(), fresh.largest_gap_hz())) << where;
  EXPECT_TRUE(same_bits(a.fragmentation(), fresh.fragmentation())) << where;
  EXPECT_TRUE(same_bits(a.compacted_headroom_hz(), fresh.compacted_headroom_hz())) << where;
  EXPECT_TRUE(same_bits(a.free_bandwidth_hz(), fresh.free_bandwidth_hz())) << where;
  EXPECT_EQ(a.invariant_violations(), fresh.invariant_violations()) << where;
  for (const auto& [id, ch] : a.allocations())
    EXPECT_TRUE(same_bits(a.largest_gap_after_release_hz(id),
                          fresh.largest_gap_after_release_hz(id)))
        << where << " id " << id;
  for (const double bw : {1e6, 20e6, 90e6}) {
    FdmAllocator probe = a;
    FdmAllocator probe_fresh = fresh;
    EXPECT_EQ(probe.allocate(60000, bw), probe_fresh.allocate(60000, bw)) << where;
  }
}

/// Reads every query, so the memoized view is built before the next
/// mutation has to drop it.
void WarmQueries(const FdmAllocator& a) {
  (void)a.largest_gap_hz();
  (void)a.fragmentation();
  (void)a.invariant_violations();
  (void)a.free_bandwidth_hz();
  (void)a.compacted_headroom_hz();
  if (!a.allocations().empty()) (void)a.largest_gap_after_release_hz(a.allocations().begin()->first);
}

TEST(FdmAllocator, EveryMutatorInvalidatesTheMemoizedView) {
  // Each mutator, succeeding and failing, follows a full set of queries
  // and is checked against a rebuild. Failed calls (an allocate with no
  // fitting gap, a refused restore or transfer, releasing a node that
  // holds nothing) must leave every answer as it was.
  Rng rng(0x3e30);
  for (const AllocPolicy policy : {AllocPolicy::kFirstFit, AllocPolicy::kBestFit}) {
    FdmAllocator a(kIsmLowHz, kIsmHighHz, 1e6, policy);
    std::uint16_t next_id = 0;
    std::optional<std::pair<std::uint16_t, ChannelAllocation>> released;
    for (int step = 0; step < 3000; ++step) {
      WarmQueries(a);
      const int op = rng.uniform_int(0, 9);
      std::string where = "policy " + std::to_string(static_cast<int>(policy)) + " step " +
                          std::to_string(step) + " op " + std::to_string(op);
      const auto pick_held = [&]() -> std::optional<std::uint16_t> {
        if (a.allocations().empty()) return std::nullopt;
        auto it = a.allocations().begin();
        std::advance(it, rng.uniform_int(0, static_cast<int>(a.allocations().size()) - 1));
        return it->first;
      };
      switch (op) {
        case 0:
        case 1:
        case 2:  // allocate; fails once the band is full
          (void)a.allocate(next_id++, rng.uniform(1e6, 40e6));
          break;
        case 3: {  // allocate wider than any gap: always refused
          const double too_wide = a.largest_gap_hz() + 1e6;
          ASSERT_FALSE(a.allocate(next_id++, too_wide).has_value()) << where;
          break;
        }
        case 4: {  // release; a node that holds nothing is refused
          if (const auto id = pick_held()) {
            released = {{*id, *a.lookup(*id)}};
            ASSERT_TRUE(a.release(*id)) << where;
          }
          ASSERT_FALSE(a.release(next_id)) << where;
          break;
        }
        case 5: {  // restore the last release, then a refused one
          if (released && !a.allocations().contains(released->first) &&
              a.restore(released->first, released->second)) {
            ASSERT_FALSE(a.restore(released->first, released->second)) << where;
          }
          if (const auto id = pick_held()) {  // overlaps its own channel
            ASSERT_FALSE(a.restore(next_id, *a.lookup(*id))) << where;
          }
          released.reset();
          break;
        }
        case 6: {  // transfer; refused from an empty holder or onto a holder
          ASSERT_FALSE(a.transfer(next_id, static_cast<std::uint16_t>(next_id + 1))) << where;
          if (const auto id = pick_held()) {
            if (const auto other = pick_held(); other && *other != *id) {
              ASSERT_FALSE(a.transfer(*id, *other)) << where;
            }
            // The occupied set is unchanged, so the kept view must read
            // as it did before the transfer.
            const double gap = a.largest_gap_hz();
            const double frag = a.fragmentation();
            ASSERT_TRUE(a.transfer(*id, next_id++)) << where;
            EXPECT_TRUE(same_bits(a.largest_gap_hz(), gap)) << where;
            EXPECT_TRUE(same_bits(a.fragmentation(), frag)) << where;
          }
          break;
        }
        case 7:
          (void)a.compact();
          break;
        default:  // queries only
          break;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectQueriesMatchRebuild(a, where));
    }
  }
}

TEST(FdmAllocator, LargestGapAfterReleaseMatchesReleaseThenQuery) {
  // The promotion precheck's answer must equal what release() followed
  // by largest_gap_hz() reads, bit for bit, on 10k random states: packed
  // by compact(), fragmented by churn, with and without guards.
  Rng rng(0x9ec4);
  int states = 0;
  while (states < 10000) {
    const double guard = rng.uniform_int(0, 2) * 0.5e6;
    FdmAllocator a(kIsmLowHz, kIsmHighHz, guard,
                   rng.uniform_int(0, 1) == 0 ? AllocPolicy::kFirstFit : AllocPolicy::kBestFit);
    std::uint16_t next_id = 0;
    for (int step = 0; step < 200 && states < 10000; ++step) {
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.6) {
        (void)a.allocate(next_id++, rng.uniform(0.5e6, 30e6));
      } else if (roll < 0.9) {
        if (!a.allocations().empty()) {
          auto it = a.allocations().begin();
          std::advance(it, rng.uniform_int(0, static_cast<int>(a.allocations().size()) - 1));
          a.release(it->first);
        }
      } else {
        (void)a.compact();
      }
      if (a.allocations().empty()) continue;
      auto it = a.allocations().begin();
      std::advance(it, rng.uniform_int(0, static_cast<int>(a.allocations().size()) - 1));
      const std::uint16_t id = it->first;
      const ChannelAllocation ch = it->second;
      const auto before = a.allocations();
      const double predicted = a.largest_gap_after_release_hz(id);
      ASSERT_TRUE(a.release(id));
      const double actual = a.largest_gap_hz();
      ASSERT_TRUE(a.restore(id, ch));
      ASSERT_TRUE(same_bits(predicted, actual))
          << "state " << states << ": " << predicted << " vs " << actual;
      ASSERT_EQ(a.allocations(), before);
      ++states;
    }
  }
}

class RateMixSweep : public ::testing::TestWithParam<double> {};

TEST_P(RateMixSweep, MixedRatesPack) {
  // Nodes with mixed rate demands (cameras + sensors) share the band.
  FdmAllocator a = ism_band();
  std::uint16_t id = 0;
  int granted = 0;
  for (int i = 0; i < 6; ++i) {
    if (a.allocate(id++, required_bandwidth_hz(GetParam()))) ++granted;
    if (a.allocate(id++, required_bandwidth_hz(1e6))) ++granted;  // sensor
  }
  EXPECT_GT(granted, 6);
}

INSTANTIATE_TEST_SUITE_P(Rates, RateMixSweep, ::testing::Values(8e6, 10e6, 20e6));

}  // namespace
}  // namespace mmx::mac
