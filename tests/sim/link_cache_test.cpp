// Cache coherence contract: memoized link state must be bit-identical to
// re-tracing, under every mutation the Room can express — and must NOT
// invalidate entries a mutation provably cannot affect.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <stdexcept>
#include <vector>

#include "mmx/channel/room.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/rng.hpp"
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

  // 200 more nodes make four 64-node blocks, which four workers split.
  // Each refresh's cache statistics must match the serial one's, and its
  // leg counts those of a third simulator that fills the same entries one
  // lazy miss at a time, so no block's counts may be lost or doubled.
  Fixture lazy;
  lazy.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  std::vector<std::uint16_t> ids{lazy.a, lazy.b};
  for (const std::uint16_t id : ids) (void)lazy.sim.link(id);
  for (int i = 0; i < 200; ++i) {
    const channel::Pose pose{{0.25 + 0.5 * (i % 20), 0.3 + 0.6 * (i / 20)}, 0.1 * i};
    serial.sim.add_tracked_node(pose);
    parallel.sim.add_tracked_node(pose);
    ids.push_back(lazy.sim.add_tracked_node(pose));
  }
  for (Fixture* f : {&serial, &parallel, &lazy}) f->sim.reset_cache_stats();
  const auto expect_same_counts = [&](std::size_t refilled) {
    const LinkCacheStats& s1 = serial.sim.cache_stats();
    const LinkCacheStats& s4 = parallel.sim.cache_stats();
    for (const std::uint16_t id : ids) (void)lazy.sim.link(id);
    const LinkCacheStats& sl = lazy.sim.cache_stats();
    EXPECT_EQ(s1.refills, refilled);
    EXPECT_EQ(s4.refills, s1.refills);
    EXPECT_EQ(s4.repriced, s1.repriced);
    EXPECT_EQ(s4.legs_priced, s1.legs_priced);
    EXPECT_EQ(s4.legs_reused, s1.legs_reused);
    EXPECT_EQ(sl.legs_priced, s1.legs_priced);
    EXPECT_EQ(sl.legs_reused, s1.legs_reused);
  };
  // A cold fill of the new nodes prices every leg...
  EXPECT_EQ(serial.sim.refresh_cache(1), 200u);
  EXPECT_EQ(parallel.sim.refresh_cache(4), 200u);
  expect_same_counts(200);
  EXPECT_GT(serial.sim.cache_stats().legs_priced, 200u);
  // ...and a blocker move reprices the entries it touched.
  for (Fixture* f : {&serial, &parallel, &lazy}) {
    f->sim.room().move_blocker(0, kFarCorner);
    f->sim.reset_cache_stats();
  }
  const std::size_t moved = serial.sim.refresh_cache(1);
  EXPECT_EQ(parallel.sim.refresh_cache(4), moved);
  expect_same_counts(moved);
  EXPECT_GT(serial.sim.cache_stats().repriced, 0u);
  EXPECT_GT(serial.sim.cache_stats().legs_reused, 0u);
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

// --- Property tests: random rooms under random blocker churn -------------

Vec2 random_point(Rng& rng, double w, double h) {
  return {rng.uniform(0.05, w - 0.05), rng.uniform(0.05, h - 0.05)};
}

// A random room with reflectors and partitions whose transmission losses
// (drywall 7 dB .. metal 60 dB) put non-zero per-leg terms on many paths
// and push some of them against the 60 dB cull.
channel::Room random_room(Rng& rng, double& w, double& h) {
  w = rng.uniform(4.0, 14.0);
  h = rng.uniform(3.0, 10.0);
  channel::Room room(w, h);
  const int reflectors = rng.uniform_int(0, 2);
  for (int r = 0; r < reflectors; ++r) {
    const Vec2 a = random_point(rng, w, h);
    const Vec2 d = unit_vector(rng.uniform(0.0, 6.283)) * rng.uniform(0.3, 2.5);
    room.add_reflector({a, a + d}, rng.chance(0.5) ? channel::metal() : channel::wood_furniture());
  }
  const int partitions = rng.uniform_int(1, 3);
  for (int r = 0; r < partitions; ++r) {
    const Vec2 a = random_point(rng, w, h);
    const Vec2 d = unit_vector(rng.uniform(0.0, 6.283)) * rng.uniform(0.5, 4.0);
    const int m = rng.uniform_int(0, 3);
    room.add_partition({a, a + d}, m == 0   ? channel::drywall()
                                   : m == 1 ? channel::glass()
                                   : m == 2 ? channel::concrete()
                                            : channel::metal());
  }
  return room;
}

// Loss per blocker: mostly human-like, sometimes heavy enough that one
// crossing alone pushes a path past the 60 dB cull.
channel::Blocker random_blocker(Rng& rng, Vec2 center) {
  return {center, rng.uniform(0.1, 0.6), rng.chance(0.3) ? rng.uniform(35.0, 70.0)
                                                         : rng.uniform(5.0, 30.0)};
}

// A point on one of the blocker-free paths node -> ap: a disc parked
// there crosses that path's leg.
Vec2 point_on_a_leg(Rng& rng, const channel::Room& room, Vec2 node, Vec2 ap) {
  const channel::RoomPlan plan(room);
  channel::PathList ws;
  channel::ImageTable images;
  plan.build_images(ap, 1, images);
  std::array<std::uint32_t, 2> offs{};
  const auto paths = plan.trace_batch_into(ap, {&node, 1}, images, ws, offs, 60.0, 1);
  if (paths.empty()) return node;
  const channel::Path& p =
      paths[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(paths.size()) - 1))];
  if (p.kind == channel::PathKind::kLineOfSight) return node + (ap - node) * rng.uniform(0.1, 0.9);
  return rng.chance(0.5) ? node + (p.via - node) * rng.uniform(0.1, 0.9)
                         : p.via + (ap - p.via) * rng.uniform(0.1, 0.9);
}

void expect_gains_equal(const channel::BeamGains& x, const channel::BeamGains& y) {
  EXPECT_EQ(x.h0, y.h0);
  EXPECT_EQ(x.h1, y.h1);
  EXPECT_EQ(x.paths_used, y.paths_used);
}

// One blocker mutation: add (free or parked on a node's leg), move (free
// or onto a leg), clear, or change one blocker's loss (clear + re-add,
// the only way a Room expresses it).
void mutate_blockers(Rng& rng, channel::Room& room, double w, double h, Vec2 node, Vec2 ap) {
  const std::size_t n = room.blockers().size();
  const int op = n == 0 ? 0 : rng.uniform_int(0, 9);
  const Vec2 spot = rng.chance(0.5) ? point_on_a_leg(rng, room, node, ap) : random_point(rng, w, h);
  if (op <= 2) {
    room.add_blocker(random_blocker(rng, spot));
  } else if (op <= 7) {
    room.move_blocker(static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)), spot);
  } else if (op == 8) {
    room.clear_blockers();
  } else {
    std::vector<channel::Blocker> blockers = room.blockers();
    blockers[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1))].loss_db =
        rng.uniform(0.0, 70.0);
    room.clear_blockers();
    for (const channel::Blocker& b : blockers) room.add_blocker(b);
  }
}

// Cached gains and links equal the uncached ones bit for bit, refreshed
// on one worker and on four, under random blocker churn and node moves.
// Only a node move re-traces: every blocker-stale entry is repriced, so
// traced refills (refills - repriced) grow by exactly the moves.
TEST(LinkCacheProperty, RepricedLinksMatchUncachedAtOneAndFourThreads) {
  std::uint64_t repriced = 0;
  for (int c = 0; c < 8; ++c) {
    Rng rng = Rng::stream(0x11cac4eULL, static_cast<std::uint64_t>(c));
    double w = 0.0;
    double h = 0.0;
    const channel::Room room = random_room(rng, w, h);
    const channel::Pose ap{random_point(rng, w, h), rng.uniform(-3.0, 3.0)};
    NetworkSimulator one(room, ap);
    NetworkSimulator four(room, ap);
    std::vector<std::uint16_t> ids;
    for (int i = 0; i < 10; ++i) {
      const channel::Pose pose{random_point(rng, w, h), rng.uniform(-3.0, 3.0)};
      ids.push_back(one.add_tracked_node(pose));
      ASSERT_EQ(four.add_tracked_node(pose), ids.back());
    }
    const std::size_t blockers = static_cast<std::size_t>(rng.uniform_int(0, 10));
    for (std::size_t b = 0; b < blockers; ++b) {
      const channel::Blocker blocker = random_blocker(rng, random_point(rng, w, h));
      one.room().add_blocker(blocker);
      four.room().add_blocker(blocker);
    }
    ASSERT_EQ(one.refresh_cache(1), ids.size());
    ASSERT_EQ(four.refresh_cache(4), ids.size());
    std::uint64_t traced = one.cache_stats().refills - one.cache_stats().repriced;

    for (int step = 0; step < 30; ++step) {
      std::set<std::uint16_t> moved;
      if (rng.chance(0.2)) {
        const std::uint16_t id = ids[static_cast<std::size_t>(rng.uniform_int(0, 9))];
        const channel::Pose pose{random_point(rng, w, h), rng.uniform(-3.0, 3.0)};
        if (pose.position != ap.position) {
          one.set_node_pose(id, pose);
          four.set_node_pose(id, pose);
          moved.insert(id);
        }
      }
      const Vec2 node = one.node_pose(ids[static_cast<std::size_t>(rng.uniform_int(0, 9))]).position;
      Rng twin = rng;
      mutate_blockers(rng, one.room(), w, h, node, ap.position);
      mutate_blockers(twin, four.room(), w, h, node, ap.position);
      ASSERT_EQ(one.room().blockers().size(), four.room().blockers().size());

      ASSERT_EQ(one.refresh_cache(1), four.refresh_cache(4));
      traced += moved.size();
      EXPECT_EQ(one.cache_stats().refills - one.cache_stats().repriced, traced);
      EXPECT_EQ(four.cache_stats().refills - four.cache_stats().repriced, traced);
      for (const std::uint16_t id : ids) {
        expect_gains_equal(one.gains(id), one.gains_uncached(id));
        expect_gains_equal(four.gains(id), one.gains(id));
        expect_links_equal(one.link(id), one.link_uncached(id));
        expect_links_equal(four.link(id), one.link(id));
      }
      // Every read after a refresh hits.
      EXPECT_EQ(one.cache_stats().misses, 0u);
      EXPECT_EQ(four.cache_stats().misses, 0u);
    }
    repriced += one.cache_stats().repriced;
  }
  EXPECT_GT(repriced, 0u);  // the churn above really reached the reprice path
}

// Remove one blocker from the middle of the list (clear + re-add the
// rest, the only way a Room expresses it): every later blocker shifts
// down one index.
void remove_one_blocker(Rng& rng, channel::Room& room) {
  std::vector<channel::Blocker> blockers = room.blockers();
  if (blockers.empty()) return;
  blockers.erase(blockers.begin() + rng.uniform_int(0, static_cast<int>(blockers.size()) - 1));
  room.clear_blockers();
  for (const channel::Blocker& b : blockers) room.add_blocker(b);
}

// Per-leg dirty bits across several blocker deltas between refreshes.
// Each delta is reconciled on its own (one node's lookup after it), so
// an entry a first delta left stale must still collect the legs a later
// delta touches; its refill then prices exactly those legs and keeps the
// rest. Moves, adds, removals that shift indices and loss-only changes
// all run. Cached gains and links equal uncached ones bit for bit, at one
// refresh thread and at four.
TEST(LinkCacheProperty, DirtyLegsAccumulateAcrossDeltasAtOneAndFourThreads) {
  std::uint64_t reused = 0;
  std::uint64_t repriced = 0;
  for (int c = 0; c < 8; ++c) {
    Rng rng = Rng::stream(0xd1e7ULL, static_cast<std::uint64_t>(c));
    double w = 0.0;
    double h = 0.0;
    const channel::Room room = random_room(rng, w, h);
    const channel::Pose ap{random_point(rng, w, h), rng.uniform(-3.0, 3.0)};
    NetworkSimulator one(room, ap);
    NetworkSimulator four(room, ap);
    std::vector<std::uint16_t> ids;
    for (int i = 0; i < 10; ++i) {
      const channel::Pose pose{random_point(rng, w, h), rng.uniform(-3.0, 3.0)};
      ids.push_back(one.add_tracked_node(pose));
      ASSERT_EQ(four.add_tracked_node(pose), ids.back());
    }
    for (int b = rng.uniform_int(2, 8); b > 0; --b) {
      const channel::Blocker blocker = random_blocker(rng, random_point(rng, w, h));
      one.room().add_blocker(blocker);
      four.room().add_blocker(blocker);
    }
    ASSERT_EQ(one.refresh_cache(1), ids.size());
    ASSERT_EQ(four.refresh_cache(4), ids.size());

    for (int step = 0; step < 30; ++step) {
      for (int delta = rng.uniform_int(1, 3); delta > 0; --delta) {
        const std::uint16_t probe = ids[static_cast<std::size_t>(rng.uniform_int(0, 9))];
        const bool remove = rng.chance(0.2);
        Rng twin = rng;
        if (remove) {
          remove_one_blocker(rng, one.room());
          remove_one_blocker(twin, four.room());
        } else {
          const Vec2 node = one.node_pose(probe).position;
          mutate_blockers(rng, one.room(), w, h, node, ap.position);
          mutate_blockers(twin, four.room(), w, h, node, ap.position);
        }
        ASSERT_EQ(one.room().blockers().size(), four.room().blockers().size());
        // Reconcile this delta alone; only `probe` is refilled.
        expect_gains_equal(one.gains(probe), one.gains_uncached(probe));
        expect_gains_equal(four.gains(probe), one.gains(probe));
      }
      ASSERT_EQ(one.refresh_cache(1), four.refresh_cache(4));
      for (const std::uint16_t id : ids) {
        expect_gains_equal(one.gains(id), one.gains_uncached(id));
        expect_gains_equal(four.gains(id), one.gains(id));
        expect_links_equal(one.link(id), one.link_uncached(id));
        expect_links_equal(four.link(id), one.link(id));
        expect_links_equal(one.fixed_beam_link(id),
                           LinkBudget().evaluate_fixed_beam(one.gains_uncached(id)));
      }
    }
    const LinkCacheStats& s1 = one.cache_stats();
    const LinkCacheStats& s4 = four.cache_stats();
    EXPECT_EQ(s1.legs_priced, s4.legs_priced);
    EXPECT_EQ(s1.legs_reused, s4.legs_reused);
    reused += s1.legs_reused;
    repriced += s1.repriced;
  }
  // Both halves of the reprice really ran: clean legs kept, stale entries
  // repriced rather than traced.
  EXPECT_GT(reused, 0u);
  EXPECT_GT(repriced, 0u);
}

// A standalone cache filled with each node's blocker-free legs: after
// every blocker mutation, reconcile()'s grid-indexed invalidation marks
// stale exactly the entries a brute-force test of every dirty disc
// against every leg finds, and counts them the same way. Node moves
// (erase + refill elsewhere) and the garbage they leave in the index run
// along.
TEST(LinkCacheProperty, GridInvalidationEqualsBruteForce) {
  for (int c = 0; c < 12; ++c) {
    Rng rng = Rng::stream(0x9a1dULL, static_cast<std::uint64_t>(c));
    double w = 0.0;
    double h = 0.0;
    channel::Room room = random_room(rng, w, h);
    const Vec2 ap = random_point(rng, w, h);
    const auto fill = [&](LinkCache::Entry& e) {
      const channel::RoomPlan plan(room);
      channel::PathList ws;
      channel::ImageTable images;
      plan.build_images(ap, 1, images);
      std::array<std::uint32_t, 2> offs{};
      const Vec2 node = e.pose.position;
      e.paths.clear();
      for (const channel::Path& p :
           plan.trace_batch_into(ap, {&node, 1}, images, ws, offs, 60.0, 1)) {
        LinkCache::PathRecord& r = e.paths.emplace_back();
        r.via = p.via;
        r.reflected = p.kind == channel::PathKind::kReflected;
      }
    };
    const auto legs_touch = [&](const LinkCache::Entry& e, const channel::Blocker& b) {
      for (const LinkCache::PathRecord& p : e.paths) {
        const bool hit = p.reflected ? segment_hits_disc(e.pose.position, p.via, b.center, b.radius) ||
                                           segment_hits_disc(p.via, ap, b.center, b.radius)
                                     : segment_hits_disc(e.pose.position, ap, b.center, b.radius);
        if (hit) return true;
      }
      return false;
    };

    LinkCache cache(ap);
    cache.reconcile(room);
    std::vector<channel::Pose> poses;
    for (std::uint16_t id = 0; id < 40; ++id) {
      poses.push_back({random_point(rng, w, h), rng.uniform(-3.0, 3.0)});
      cache.ensure(id, poses[id], [&](LinkCache::Entry& e, bool reprice) {
        EXPECT_FALSE(reprice);
        fill(e);
      });
    }

    for (int step = 0; step < 40; ++step) {
      // Move a few nodes: erase, then a traced fill at the new pose.
      for (int m = rng.uniform_int(0, 3); m > 0; --m) {
        const auto id = static_cast<std::uint16_t>(rng.uniform_int(0, 39));
        cache.erase(id);
        poses[id] = {random_point(rng, w, h), rng.uniform(-3.0, 3.0)};
        cache.ensure(id, poses[id], [&](LinkCache::Entry& e, bool reprice) {
          EXPECT_FALSE(reprice);
          fill(e);
        });
      }

      const std::vector<channel::Blocker> before = room.blockers();
      const Vec2 node = poses[static_cast<std::size_t>(rng.uniform_int(0, 39))].position;
      mutate_blockers(rng, room, w, h, node, ap);
      // The dirty discs: old and new of every changed blocker, plus every
      // added or removed one.
      std::vector<channel::Blocker> dirty;
      const auto& now = room.blockers();
      for (std::size_t i = 0; i < std::max(before.size(), now.size()); ++i) {
        const bool in_before = i < before.size();
        const bool in_now = i < now.size();
        if (in_before && in_now && before[i].center == now[i].center &&
            before[i].radius == now[i].radius && before[i].loss_db == now[i].loss_db)
          continue;
        if (in_before) dirty.push_back(before[i]);
        if (in_now) dirty.push_back(now[i]);
      }
      std::set<std::uint16_t> expected;
      for (std::uint16_t id = 0; id < 40; ++id) {
        LinkCache::Entry probe;
        probe.pose = poses[id];
        // Every entry is valid here, so its paths are the fill's.
        fill(probe);
        for (const channel::Blocker& b : dirty)
          if (legs_touch(probe, b)) expected.insert(id);
      }

      const LinkCacheStats s0 = cache.stats();
      (void)cache.take_pending();
      cache.reconcile(room);
      std::set<std::uint16_t> stale;
      for (std::uint16_t id = 0; id < 40; ++id)
        if (!cache.valid(id, poses[id])) stale.insert(id);
      EXPECT_EQ(stale, expected) << "case " << c << " step " << step;
      const std::vector<std::uint16_t> pending = cache.take_pending();
      EXPECT_EQ(std::set<std::uint16_t>(pending.begin(), pending.end()), expected);
      EXPECT_EQ(cache.stats().invalidated - s0.invalidated, expected.size());
      EXPECT_EQ(cache.stats().revalidated - s0.revalidated, 40 - expected.size());
      EXPECT_GE(cache.stats().corridor_tests - s0.corridor_tests, expected.size());

      // Stale entries keep their paths: the refill is a reprice.
      for (const std::uint16_t id : expected)
        cache.ensure(id, poses[id], [&](LinkCache::Entry&, bool reprice) { EXPECT_TRUE(reprice); });
    }
  }
}

}  // namespace
}  // namespace mmx::sim
