// Through-wall (partition) propagation tests — the multi-room smart-home
// scenario of §4.
#include <gtest/gtest.h>

#include <cmath>

#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"
#include "trace_paths.hpp"

namespace mmx::channel {
namespace {

using test::trace_paths;

const Path* find_los(const std::vector<Path>& paths) {
  for (const Path& p : paths)
    if (p.kind == PathKind::kLineOfSight) return &p;
  return nullptr;
}

TEST(Partition, DrywallAddsTransmissionLossToLos) {
  Room room(8.0, 4.0);
  room.add_partition({{4.0, 0.0}, {4.0, 4.0}}, drywall());
  const auto paths = trace_paths(room, {1.0, 2.0}, {7.0, 2.0});
  const Path* los = find_los(paths);
  ASSERT_NE(los, nullptr);
  EXPECT_NEAR(los->excess_loss_db, drywall().transmission_loss_db, 1e-9);
}

TEST(Partition, MetalPartitionEssentiallyKillsThrough) {
  Room room(8.0, 4.0);
  room.add_partition({{4.0, 0.0}, {4.0, 4.0}}, metal());
  const auto paths = trace_paths(room, {1.0, 2.0}, {7.0, 2.0});
  const Path* los = find_los(paths);
  // 60 dB through-metal exceeds the 60 dB excess-loss cull by default.
  if (los != nullptr) {
    EXPECT_GE(los->excess_loss_db, 59.0);
  }
}

TEST(Partition, ReflectorDoesNotShadow) {
  // Furniture (add_reflector) reflects but must not attenuate the LoS.
  Room room(8.0, 4.0);
  room.add_reflector({{4.0, 0.0}, {4.0, 4.0}}, metal());
  const auto paths = trace_paths(room, {1.0, 2.0}, {7.0, 2.0});
  const Path* los = find_los(paths);
  ASSERT_NE(los, nullptr);
  EXPECT_DOUBLE_EQ(los->excess_loss_db, 0.0);
}

TEST(Partition, OwnReflectionNotSelfShadowed) {
  // A bounce OFF the partition must not also pay its transmission loss.
  Room room(8.0, 4.0);
  room.add_partition({{4.0, 0.0}, {4.0, 4.0}}, drywall());
  // Both endpoints on the same (left) side: the partition reflection
  // exists and costs only the reflection loss.
  const auto paths = trace_paths(room, {1.0, 2.0}, {2.0, 1.0});
  bool found = false;
  for (const Path& p : paths) {
    if (p.kind == PathKind::kReflected && std::abs(p.via.x - 4.0) < 1e-9) {
      EXPECT_NEAR(p.excess_loss_db, drywall().reflection_loss_db, 1e-9);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Partition, DoorwayGapLetsRaysThrough) {
  // Partition with a doorway: the wall spans y in [0, 2.9] only; a
  // reflected path routing through the gap pays no transmission loss.
  Room room(8.0, 4.0);
  room.add_partition({{4.0, 0.0}, {4.0, 2.9}}, drywall());
  const auto paths = trace_paths(room, {1.0, 2.0}, {7.0, 2.0});
  // LoS at y=2 crosses the partition (below the doorway top? no — the
  // partition occupies y<=2.9 at x=4, so the LoS at y=2 crosses it).
  const Path* los = find_los(paths);
  ASSERT_NE(los, nullptr);
  EXPECT_GT(los->excess_loss_db, 0.0);
  // But the ceiling (y=4) bounce passes above the partition's extent
  // near the top: reflection point at y=4, legs cross x=4 at y ~3 — in
  // the doorway gap.
  bool clean_detour = false;
  for (const Path& p : paths) {
    if (p.kind != PathKind::kReflected) continue;
    if (std::abs(p.via.y - 4.0) < 1e-9 &&
        std::abs(p.excess_loss_db - drywall().reflection_loss_db) < 1e-9) {
      clean_detour = true;
    }
  }
  EXPECT_TRUE(clean_detour);
}

TEST(Partition, NextRoomLinkBudgetDegradedButAlive) {
  // End-to-end sanity: a bedroom node two drywall rooms from the AP loses
  // ~transmission loss of SNR relative to the same distance in the open.
  Room open_room(8.0, 4.0);
  Room multi_room(8.0, 4.0);
  multi_room.add_partition({{4.0, 0.0}, {4.0, 4.0}}, drywall());
  const auto open_paths = trace_paths(open_room, {1.0, 2.0}, {7.0, 2.0});
  const auto multi_paths = trace_paths(multi_room, {1.0, 2.0}, {7.0, 2.0});
  const double a_open = std::abs(path_amplitude(*find_los(open_paths), 24e9));
  const double a_multi = std::abs(path_amplitude(*find_los(multi_paths), 24e9));
  EXPECT_NEAR(amp_to_db(a_open / a_multi), drywall().transmission_loss_db, 0.5);
}

TEST(Partition, ZeroLengthThrows) {
  Room room(8.0, 4.0);
  EXPECT_THROW(room.add_partition({{1.0, 1.0}, {1.0, 1.0}}, drywall()),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmx::channel
