// Channel reciprocity: swapping tx and rx must mirror every path
// (equal lengths and losses, departure/arrival angles exchanged) — a
// structural invariant of geometric propagation that any refactor of the
// tracer must preserve. TDD systems (and mmX's own AP->node side
// channel reasoning) rely on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mmx/channel/room_plan.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "trace_paths.hpp"

namespace mmx::channel {
namespace {

using test::trace_paths;

/// Sort keys so forward/backward path sets can be matched up. Symmetric
/// geometries can contain distinct paths with identical length and loss
/// (the floor and ceiling bounces of a centred link), so the tiebreaker
/// must be the angle that reciprocity maps onto itself: the forward
/// path's departure equals the backward path's arrival.
bool forward_less(const Path& a, const Path& b) {
  if (std::abs(a.length_m - b.length_m) > 1e-9) return a.length_m < b.length_m;
  if (std::abs(a.excess_loss_db - b.excess_loss_db) > 1e-9)
    return a.excess_loss_db < b.excess_loss_db;
  return a.departure_rad < b.departure_rad;
}

bool backward_less(const Path& a, const Path& b) {
  if (std::abs(a.length_m - b.length_m) > 1e-9) return a.length_m < b.length_m;
  if (std::abs(a.excess_loss_db - b.excess_loss_db) > 1e-9)
    return a.excess_loss_db < b.excess_loss_db;
  return a.arrival_rad < b.arrival_rad;
}

void expect_reciprocal(const std::vector<Path>& fwd, const std::vector<Path>& bwd) {
  ASSERT_EQ(fwd.size(), bwd.size());
  std::vector<Path> f = fwd;
  std::vector<Path> b = bwd;
  std::sort(f.begin(), f.end(), forward_less);
  std::sort(b.begin(), b.end(), backward_less);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f[i].length_m, b[i].length_m, 1e-9);
    EXPECT_NEAR(f[i].excess_loss_db, b[i].excess_loss_db, 1e-9);
    // Departure of the forward path equals arrival of the backward one.
    EXPECT_NEAR(wrap_angle(f[i].departure_rad - b[i].arrival_rad), 0.0, 1e-9);
    EXPECT_NEAR(wrap_angle(f[i].arrival_rad - b[i].departure_rad), 0.0, 1e-9);
  }
}

TEST(Reciprocity, EmptyRoom) {
  Room room(6.0, 4.0);
  expect_reciprocal(trace_paths(room, {1.0, 2.0}, {5.0, 2.5}),
                    trace_paths(room, {5.0, 2.5}, {1.0, 2.0}));
}

TEST(Reciprocity, WithBlockerAndFurniture) {
  Room room(6.0, 4.0);
  room.add_reflector({{2.0, 3.5}, {4.0, 3.5}}, metal());
  room.add_blocker(human_blocker({3.0, 2.0}));
  expect_reciprocal(trace_paths(room, {1.0, 1.5}, {5.0, 2.5}),
                    trace_paths(room, {5.0, 2.5}, {1.0, 1.5}));
}

TEST(Reciprocity, WithPartitions) {
  Room room(8.0, 4.0);
  room.add_partition({{4.0, 0.0}, {4.0, 2.9}}, drywall());
  expect_reciprocal(trace_paths(room, {1.0, 2.0}, {7.0, 2.0}),
                    trace_paths(room, {7.0, 2.0}, {1.0, 2.0}));
}

class ReciprocitySweep : public ::testing::TestWithParam<int> {};

TEST_P(ReciprocitySweep, RandomPlacements) {
  Rng rng(GetParam());
  Room room(6.0, 4.0);
  room.add_reflector({{0.5, 3.0}, {2.5, 3.0}}, glass());
  if (GetParam() % 2 == 0) room.add_blocker(human_blocker({3.0, 2.0}));
  for (int i = 0; i < 20; ++i) {
    const Vec2 a{rng.uniform(0.3, 5.7), rng.uniform(0.3, 3.7)};
    const Vec2 b{rng.uniform(0.3, 5.7), rng.uniform(0.3, 3.7)};
    if (distance(a, b) < 0.1) continue;
    expect_reciprocal(trace_paths(room, a, b), trace_paths(room, b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReciprocitySweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mmx::channel
