// Tracer physics: LoS and single-bounce geometry, blocker and reflector
// losses, excess-loss pruning — checked on RoomPlan, the production
// tracer. Its bit-identity with the frozen reference tracer is
// room_plan_test's job.
#include "mmx/channel/room_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "trace_paths.hpp"

namespace mmx::channel {
namespace {

using test::trace_paths;

// 6 x 4 room matching the paper's §9.2 testbed.
Room paper_room() { return Room(6.0, 4.0); }

const Path* find_los(const std::vector<Path>& paths) {
  for (const Path& p : paths)
    if (p.kind == PathKind::kLineOfSight) return &p;
  return nullptr;
}

TEST(RayTracer, LosPlusFourWallReflections) {
  Room room = paper_room();
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0});
  // LoS + one reflection per wall (all four walls visible in a rectangle).
  EXPECT_EQ(paths.size(), 5u);
  EXPECT_NE(find_los(paths), nullptr);
}

TEST(RayTracer, LosGeometry) {
  Room room = paper_room();
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0});
  const Path* los = find_los(paths);
  ASSERT_NE(los, nullptr);
  EXPECT_NEAR(los->length_m, 4.0, 1e-12);
  EXPECT_NEAR(los->departure_rad, 0.0, 1e-12);          // toward +x
  EXPECT_NEAR(std::abs(los->arrival_rad), kPi, 1e-12);  // energy comes from -x side
  EXPECT_EQ(los->excess_loss_db, 0.0);
  EXPECT_EQ(los->blocker_crossings, 0);
}

TEST(RayTracer, ReflectionGeometryMirrorLaw) {
  // tx and rx symmetric about x=3 at the same height: floor (y=0)
  // reflection point must be exactly at (3, 0) and obey equal angles.
  Room room = paper_room();
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0});
  const Path* floor = nullptr;
  for (const Path& p : paths) {
    if (p.kind == PathKind::kReflected && std::abs(p.via.y) < 1e-9) floor = &p;
  }
  ASSERT_NE(floor, nullptr);
  EXPECT_NEAR(floor->via.x, 3.0, 1e-9);
  // Path length: 2 * sqrt(2^2 + 2^2).
  EXPECT_NEAR(floor->length_m, 2.0 * std::hypot(2.0, 2.0), 1e-9);
  // Reflection loss of drywall.
  EXPECT_NEAR(floor->excess_loss_db, drywall().reflection_loss_db, 1e-12);
}

TEST(RayTracer, NLosWeakerThanLosWithinPaperBounds) {
  // §6.1: "NLoS paths typically experience 10-20 dB higher attenuation
  // than LoS".
  Room room = paper_room();
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0});
  const Path* los = find_los(paths);
  ASSERT_NE(los, nullptr);
  const double los_db = amp_to_db(std::abs(path_amplitude(*los, 24e9)));
  for (const Path& p : paths) {
    if (p.kind != PathKind::kReflected) continue;
    const double nlos_db = amp_to_db(std::abs(path_amplitude(p, 24e9)));
    EXPECT_GT(los_db - nlos_db, 8.0);
    EXPECT_LT(los_db - nlos_db, 25.0);
  }
}

TEST(RayTracer, BlockerAttenuatesLos) {
  Room room = paper_room();
  room.add_blocker(human_blocker({3.0, 2.0}));
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0});
  const Path* los = find_los(paths);
  ASSERT_NE(los, nullptr);
  EXPECT_EQ(los->blocker_crossings, 1);
  EXPECT_NEAR(los->excess_loss_db, human_blocker({0.0, 0.0}).loss_db, 1e-12);
}

TEST(RayTracer, BlockerMissesOffAxisPaths) {
  // A blocker on the LoS midline also sits on the side-wall bounce paths
  // (same height), but the floor/ceiling bounces route around it — those
  // are the NLoS detours OTAM's Beam 0 rides in Fig. 4(b).
  Room room = paper_room();
  room.add_blocker(human_blocker({3.0, 2.0}));
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0});
  for (const Path& p : paths) {
    if (p.kind != PathKind::kReflected) continue;
    const bool vertical_bounce = std::abs(p.via.y) < 1e-9 || std::abs(p.via.y - 4.0) < 1e-9;
    if (vertical_bounce) {
      EXPECT_EQ(p.blocker_crossings, 0);
    } else {
      EXPECT_EQ(p.blocker_crossings, 1);  // side-wall path re-crosses the midline
    }
  }
}

TEST(RayTracer, BlockedLosOrderingMatchesPaper) {
  // §6.1 ordering: LoS > NLoS > blocked-LoS. With a person on the LoS,
  // the strongest NLoS must beat the blocked LoS.
  Room room = paper_room();
  room.add_blocker(human_blocker({3.0, 2.0}));
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0});
  const Path* los = find_los(paths);
  ASSERT_NE(los, nullptr);
  const double blocked_los = amp_to_db(std::abs(path_amplitude(*los, 24e9)));
  double best_nlos = -1e9;
  for (const Path& p : paths) {
    if (p.kind != PathKind::kReflected) continue;
    best_nlos = std::max(best_nlos, amp_to_db(std::abs(path_amplitude(p, 24e9))));
  }
  EXPECT_GT(best_nlos, blocked_los);
}

TEST(RayTracer, MetalReflectorAddsStrongPath) {
  Room room = paper_room();
  room.add_reflector({{2.0, 3.5}, {4.0, 3.5}}, metal());
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0});
  EXPECT_EQ(paths.size(), 6u);  // LoS + 4 walls + metal sheet
  bool found_metal = false;
  for (const Path& p : paths) {
    if (p.kind == PathKind::kReflected && p.excess_loss_db == metal().reflection_loss_db)
      found_metal = true;
  }
  EXPECT_TRUE(found_metal);
}

TEST(RayTracer, ReflectorOutOfViewIgnored) {
  // A reflector whose segment the specular point misses contributes no path.
  Room room = paper_room();
  room.add_reflector({{0.2, 3.9}, {0.4, 3.9}}, metal());  // tiny, far corner
  const auto paths = trace_paths(room, {5.0, 0.5}, {5.5, 0.5});
  EXPECT_EQ(paths.size(), 5u);  // unchanged: LoS + 4 walls
}

TEST(RayTracer, MaxExcessLossDropsWeakPaths) {
  Room room = paper_room();
  const auto all = trace_paths(room, {1.0, 2.0}, {5.0, 2.0}, 60.0);
  // 5 dB is cheaper than drywall's 12 dB reflection loss.
  const auto tight = trace_paths(room, {1.0, 2.0}, {5.0, 2.0}, 5.0);
  EXPECT_GT(all.size(), tight.size());
  EXPECT_EQ(tight.size(), 1u);  // only LoS survives
}

TEST(RayTracer, CoincidentEndpointsThrow) {
  Room room = paper_room();
  const RoomPlan plan(room);
  PathList ws;
  EXPECT_THROW(plan.trace_into({1.0, 1.0}, {1.0, 1.0}, ws), std::invalid_argument);
}

TEST(RayTracer, PathAmplitudeDecaysWithLength) {
  Path a;
  a.length_m = 2.0;
  Path b;
  b.length_m = 8.0;
  EXPECT_GT(std::abs(path_amplitude(a, 24e9)),
            std::abs(path_amplitude(b, 24e9)));
}

class PlacementSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlacementSweep, TraceAlwaysFindsLosAndReflections) {
  // Random placements anywhere in the room must always produce the LoS
  // and 4 wall bounces (rectangle geometry guarantees visibility).
  Rng rng(GetParam());
  Room room = paper_room();
  // One plan and workspace for the whole sweep, as a production loop uses.
  const RoomPlan plan(room);
  PathList ws;
  for (int i = 0; i < 50; ++i) {
    const Vec2 tx{rng.uniform(0.2, 5.8), rng.uniform(0.2, 3.8)};
    const Vec2 rx{rng.uniform(0.2, 5.8), rng.uniform(0.2, 3.8)};
    if (distance(tx, rx) < 0.05) continue;
    ws.clear();
    const auto paths = plan.trace_into(tx, rx, ws);
    EXPECT_EQ(paths.size(), 5u) << "tx=(" << tx.x << "," << tx.y << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mmx::channel
