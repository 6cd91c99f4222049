// Second-order (double-bounce) reflection tests.
#include <gtest/gtest.h>

#include <cmath>

#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"
#include "trace_paths.hpp"

namespace mmx::channel {
namespace {

using test::trace_paths;

TEST(DoubleBounce, DefaultTraceHasNone) {
  Room room(6.0, 4.0);
  for (const Path& p : trace_paths(room, {1.0, 2.0}, {5.0, 2.0})) {
    EXPECT_NE(p.kind, PathKind::kDoubleReflected);
  }
}

TEST(DoubleBounce, TwoBounceTraceIsSuperset) {
  Room room(6.0, 4.0);
  const auto single = trace_paths(room, {1.0, 2.0}, {5.0, 2.0}, 60.0, 1);
  const auto both = trace_paths(room, {1.0, 2.0}, {5.0, 2.0}, 60.0, 2);
  EXPECT_GT(both.size(), single.size());
  // Every single-bounce path still present (same count of LoS+reflected).
  std::size_t non_double = 0;
  for (const Path& p : both) {
    if (p.kind != PathKind::kDoubleReflected) ++non_double;
  }
  EXPECT_EQ(non_double, single.size());
}

TEST(DoubleBounce, FloorCeilingZigZagGeometry) {
  // tx and rx at the same height y=2 in a 4 m tall room: the floor-then-
  // ceiling path reflects at y=0 then y=4; by symmetry of the unfolded
  // image (total vertical travel 2+4+2 = 8 m), horizontal crossings sit
  // at 1/4 and 3/4 of the x span when heights match.
  Room room(12.0, 4.0);
  const Vec2 tx{2.0, 2.0};
  const Vec2 rx{10.0, 2.0};
  const auto paths = trace_paths(room, tx, rx, 80.0, 2);
  const Path* zigzag = nullptr;
  for (const Path& p : paths) {
    if (p.kind != PathKind::kDoubleReflected) continue;
    if (std::abs(p.via.y) < 1e-9 && std::abs(p.via2.y - 4.0) < 1e-9) zigzag = &p;
  }
  ASSERT_NE(zigzag, nullptr);
  EXPECT_NEAR(zigzag->via.x, 4.0, 1e-9);
  EXPECT_NEAR(zigzag->via2.x, 8.0, 1e-9);
  // Unfolded length: sqrt(dx^2 + 8^2).
  EXPECT_NEAR(zigzag->length_m, std::hypot(8.0, 8.0), 1e-9);
  // Both drywall bounces.
  EXPECT_NEAR(zigzag->excess_loss_db, 2.0 * drywall().reflection_loss_db, 1e-12);
}

TEST(DoubleBounce, LongerAndWeakerThanSingle) {
  Room room(6.0, 4.0);
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0}, 80.0, 2);
  double max_single = 0.0;
  double min_double = 1e9;
  for (const Path& p : paths) {
    if (p.kind == PathKind::kReflected) max_single = std::max(max_single, p.length_m);
    if (p.kind == PathKind::kDoubleReflected) min_double = std::min(min_double, p.length_m);
  }
  EXPECT_GT(min_double, 4.0);  // longer than the LoS at least
  // Double bounces carry two reflection losses.
  for (const Path& p : paths) {
    if (p.kind == PathKind::kDoubleReflected) {
      EXPECT_GE(p.excess_loss_db, 2.0 * drywall().reflection_loss_db - 1e-9);
    }
  }
}

TEST(DoubleBounce, OrderedPairsGiveDistinctPaths) {
  // floor-then-ceiling and ceiling-then-floor are different zig-zags.
  Room room(12.0, 4.0);
  const auto paths = trace_paths(room, {2.0, 2.0}, {10.0, 2.0}, 80.0, 2);
  bool floor_first = false;
  bool ceiling_first = false;
  for (const Path& p : paths) {
    if (p.kind != PathKind::kDoubleReflected) continue;
    if (std::abs(p.via.y) < 1e-9 && std::abs(p.via2.y - 4.0) < 1e-9) floor_first = true;
    if (std::abs(p.via.y - 4.0) < 1e-9 && std::abs(p.via2.y) < 1e-9) ceiling_first = true;
  }
  EXPECT_TRUE(floor_first);
  EXPECT_TRUE(ceiling_first);
}

TEST(DoubleBounce, MaxExcessLossFilters) {
  Room room(6.0, 4.0);
  // Threshold below 2x drywall: no double bounce survives.
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0}, 20.0, 2);
  for (const Path& p : paths) EXPECT_NE(p.kind, PathKind::kDoubleReflected);
}

TEST(DoubleBounce, InvalidBounceCountThrows) {
  Room room(6.0, 4.0);
  EXPECT_THROW(trace_paths(room, {1.0, 2.0}, {5.0, 2.0}, 60.0, 0), std::invalid_argument);
  EXPECT_THROW(trace_paths(room, {1.0, 2.0}, {5.0, 2.0}, 60.0, 3), std::invalid_argument);
}

TEST(DoubleBounce, CornerReflectorRoundTrip) {
  // Two perpendicular metal walls act as a corner reflector: the double
  // bounce off the corner must exist and carry 2x metal loss.
  Room room(6.0, 4.0);
  room.add_reflector({{4.9, 1.0}, {5.9, 1.0}}, metal());   // horizontal lip
  room.add_reflector({{5.9, 1.0}, {5.9, 2.0}}, metal());   // vertical lip
  const auto paths = trace_paths(room, {3.9, 3.0}, {2.5, 2.8}, 80.0, 2);
  bool corner = false;
  for (const Path& p : paths) {
    if (p.kind == PathKind::kDoubleReflected &&
        std::abs(p.excess_loss_db - 2.0 * metal().reflection_loss_db) < 1e-9)
      corner = true;
  }
  EXPECT_TRUE(corner);
}

}  // namespace
}  // namespace mmx::channel
