// Cache coherence contract: memoized link state must be bit-identical to
// re-tracing, under every mutation the Room can express — and must NOT
// invalidate entries a mutation provably cannot affect.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mmx/channel/room.hpp"
#include "mmx/sim/link_cache.hpp"
#include "mmx/sim/network_sim.hpp"
#include "ref_ray_tracer.hpp"

namespace mmx::sim {
namespace {

// 10 x 6 room, AP at the centre. Node A's line of sight runs through
// (3.5, 3.75); node B sits near the AP with all five of its wall-only
// corridors (LoS + four first-order wall bounces) far from both blocker
// positions used below — verified by the hit assertions themselves.
constexpr Vec2 kApPos{5.0, 3.0};
constexpr Vec2 kNodeAPos{2.0, 4.5};
constexpr Vec2 kNodeBPos{5.5, 3.2};
constexpr Vec2 kOnLosA{3.5, 3.75};
constexpr Vec2 kFarCorner{2.0, 0.7};

struct Fixture {
  NetworkSimulator sim;
  std::uint16_t a;
  std::uint16_t b;

  explicit Fixture(SimConfig cfg = {})
      : sim(channel::Room(10.0, 6.0), channel::Pose{kApPos, 0.0}, cfg),
        a(*sim.add_node(channel::Pose{kNodeAPos, -0.5}, 1e6)),
        b(*sim.add_node(channel::Pose{kNodeBPos, 2.0}, 1e6)) {}
};

void expect_links_equal(const OtamLink& x, const OtamLink& y) {
  EXPECT_EQ(x.rx1_dbm, y.rx1_dbm);
  EXPECT_EQ(x.rx0_dbm, y.rx0_dbm);
  EXPECT_EQ(x.snr_db, y.snr_db);
  EXPECT_EQ(x.contrast_db, y.contrast_db);
  EXPECT_EQ(x.ask_ber, y.ask_ber);
  EXPECT_EQ(x.fsk_ber, y.fsk_ber);
  EXPECT_EQ(x.joint_ber, y.joint_ber);
}

TEST(RoomEpoch, BumpsOnEveryMutationButNotOnNoOps) {
  channel::Room room(10.0, 6.0);
  const std::uint64_t e0 = room.epoch();
  const std::size_t idx = room.add_blocker(channel::human_blocker(kOnLosA));
  EXPECT_GT(room.epoch(), e0);

  const std::uint64_t e1 = room.epoch();
  room.move_blocker(idx, kOnLosA);  // no-op move: same centre
  EXPECT_EQ(room.epoch(), e1);
  room.move_blocker(idx, kFarCorner);
  EXPECT_GT(room.epoch(), e1);

  const std::uint64_t e2 = room.epoch();
  room.add_reflector({{2.0, 2.0}, {4.0, 2.0}}, channel::metal());
  EXPECT_GT(room.epoch(), e2);

  const std::uint64_t e3 = room.epoch();
  room.clear_blockers();
  EXPECT_GT(room.epoch(), e3);
  const std::uint64_t e4 = room.epoch();
  room.clear_blockers();  // already empty: no-op
  EXPECT_EQ(room.epoch(), e4);
}

// The cached gains of `id` against the frozen reference tracer: one
// ref::RayTracer trace of the live room, the same beam accumulation.
void expect_gains_match_reference(const NetworkSimulator& sim, std::uint16_t id) {
  const channel::Pose& node = sim.node_pose(id);
  const auto paths =
      channel::ref::RayTracer(sim.room()).trace(node.position, sim.ap_pose().position);
  const SimConfig cfg;
  const channel::BeamGains ref = channel::compute_beam_gains(
      paths, node, antenna::MmxBeamPair(antenna::BeamPairSpec{.freq_hz = cfg.freq_hz}),
      sim.ap_pose(), antenna::Dipole(), cfg.freq_hz);
  const channel::BeamGains got = sim.gains(id);
  EXPECT_EQ(got.h0, ref.h0);
  EXPECT_EQ(got.h1, ref.h1);
  EXPECT_EQ(got.paths_used, ref.paths_used);
}

TEST(LinkCache, CachedLinkBitIdenticalToUncachedAcrossBlockerChurn) {
  Fixture f;
  const auto check = [&] {
    expect_links_equal(f.sim.link(f.a), f.sim.link_uncached(f.a));
    expect_links_equal(f.sim.link(f.b), f.sim.link_uncached(f.b));
    // End to end against the reference tracer, not just plan vs plan.
    expect_gains_match_reference(f.sim, f.a);
    expect_gains_match_reference(f.sim, f.b);
  };
  check();

  const std::size_t idx = f.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  check();

  f.sim.room().move_blocker(idx, kFarCorner);
  check();

  f.sim.room().clear_blockers();
  check();
}

TEST(LinkCache, BlockerOnOneLosInvalidatesExactlyThatNode) {
  Fixture f;
  const OtamLink a_before = f.sim.link(f.a);
  (void)f.sim.link(f.b);

  f.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  f.sim.reset_cache_stats();
  const OtamLink a_after = f.sim.link(f.a);
  const OtamLink b_after = f.sim.link(f.b);

  // A was recomputed (miss) and its link genuinely changed: a 28 dB body
  // on the LoS must cost receive power. B hit the warm cache.
  EXPECT_EQ(f.sim.cache_stats().misses, 1u);
  EXPECT_EQ(f.sim.cache_stats().hits, 1u);
  EXPECT_LT(a_after.rx1_dbm, a_before.rx1_dbm - 1.0);
  expect_links_equal(a_after, f.sim.link_uncached(f.a));
  expect_links_equal(b_after, f.sim.link_uncached(f.b));
}

TEST(LinkCache, BlockerMoveAwayRestoresAndRevalidatesUntouched) {
  Fixture f;
  const OtamLink a_clear = f.sim.link(f.a);
  const std::size_t idx = f.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);

  // Move the body off A's line of sight to a spot neither node's
  // corridors pass: A must be re-traced (and recover its clear-room
  // link bit-for-bit), B must stay warm.
  f.sim.room().move_blocker(idx, kFarCorner);
  f.sim.reset_cache_stats();
  const OtamLink a_after = f.sim.link(f.a);
  (void)f.sim.link(f.b);
  EXPECT_EQ(f.sim.cache_stats().misses, 1u);
  EXPECT_EQ(f.sim.cache_stats().hits, 1u);
  expect_links_equal(a_after, a_clear);
}

TEST(LinkCache, BlockerFarFromAllCorridorsInvalidatesNobody) {
  Fixture f;
  const std::size_t idx = f.sim.room().add_blocker(channel::human_blocker(kFarCorner));
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);

  // Nudge the far body by 10 cm: still clear of every corridor, so both
  // entries revalidate for free.
  f.sim.room().move_blocker(idx, Vec2{kFarCorner.x + 0.1, kFarCorner.y});
  f.sim.reset_cache_stats();
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);
  EXPECT_EQ(f.sim.cache_stats().hits, 2u);
  EXPECT_EQ(f.sim.cache_stats().misses, 0u);
  EXPECT_EQ(f.sim.cache_stats().revalidated, 2u);
}

TEST(LinkCache, SetNodePoseInvalidatesOnlyThatNode) {
  Fixture f;
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);

  f.sim.set_node_pose(f.a, channel::Pose{{2.5, 4.0}, -0.6});
  f.sim.reset_cache_stats();
  const OtamLink a_after = f.sim.link(f.a);
  (void)f.sim.link(f.b);
  EXPECT_EQ(f.sim.cache_stats().misses, 1u);
  EXPECT_EQ(f.sim.cache_stats().hits, 1u);
  expect_links_equal(a_after, f.sim.link_uncached(f.a));

  // Re-posing to the identical pose is a no-op: no invalidation.
  f.sim.reset_cache_stats();
  f.sim.set_node_pose(f.a, channel::Pose{{2.5, 4.0}, -0.6});
  (void)f.sim.link(f.a);
  EXPECT_EQ(f.sim.cache_stats().hits, 1u);
}

TEST(LinkCache, StructuralChangeDropsEveryEntry) {
  Fixture f;
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);

  f.sim.room().add_reflector({{1.0, 1.0}, {3.0, 1.0}}, channel::metal());
  f.sim.reset_cache_stats();
  expect_links_equal(f.sim.link(f.a), f.sim.link_uncached(f.a));
  expect_links_equal(f.sim.link(f.b), f.sim.link_uncached(f.b));
  EXPECT_EQ(f.sim.cache_stats().misses, 2u);
  EXPECT_EQ(f.sim.cache_stats().hits, 0u);
}

TEST(LinkCache, DisabledCacheStillBitIdentical) {
  SimConfig cfg;
  cfg.link_cache = false;
  Fixture off(cfg);
  Fixture on;
  off.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  on.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  expect_links_equal(off.sim.link(off.a), on.sim.link(on.a));
  expect_links_equal(off.sim.fixed_beam_link(off.b), on.sim.fixed_beam_link(on.b));
  EXPECT_EQ(off.sim.cache_stats().hits + off.sim.cache_stats().misses, 0u);
}

TEST(LinkCache, ParallelRefreshBitIdenticalToSerial) {
  Fixture serial;
  Fixture parallel;
  // Dirty everything: a blocker lands on A's LoS, then both sims refresh
  // their whole population — one on a single worker, one on four.
  serial.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  parallel.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  const std::size_t n1 = serial.sim.refresh_cache(1);
  const std::size_t n4 = parallel.sim.refresh_cache(4);
  EXPECT_EQ(n1, n4);
  EXPECT_EQ(n1, 2u);
  expect_links_equal(serial.sim.link(serial.a), parallel.sim.link(parallel.a));
  expect_links_equal(serial.sim.link(serial.b), parallel.sim.link(parallel.b));
  // Refreshed entries count as refills and the subsequent reads as hits.
  EXPECT_EQ(parallel.sim.cache_stats().refills, 2u);
  EXPECT_EQ(parallel.sim.cache_stats().hits, 2u);
}

TEST(LinkCache, RefreshMakesSubsequentQueriesHits) {
  Fixture f;
  EXPECT_EQ(f.sim.refresh_cache(2), 2u);  // cold fill
  f.sim.reset_cache_stats();
  (void)f.sim.link(f.a);
  (void)f.sim.gains(f.b);
  EXPECT_EQ(f.sim.cache_stats().hits, 2u);
  EXPECT_EQ(f.sim.cache_stats().misses, 0u);
  EXPECT_EQ(f.sim.refresh_cache(2), 0u);  // everything already valid
}

TEST(LinkCache, RemovedNodeDropsItsEntry) {
  Fixture f;
  (void)f.sim.link(f.a);
  f.sim.remove_node(f.a);
  EXPECT_THROW((void)f.sim.link(f.a), std::out_of_range);
  // B is unaffected.
  f.sim.reset_cache_stats();
  (void)f.sim.link(f.b);
  EXPECT_EQ(f.sim.cache_stats().misses, 1u);  // B was never queried before
}

}  // namespace
}  // namespace mmx::sim
