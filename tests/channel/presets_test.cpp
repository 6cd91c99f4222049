#include "mmx/channel/presets.hpp"

#include <gtest/gtest.h>

#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"
#include "trace_paths.hpp"

namespace mmx::channel {
namespace {

using test::trace_paths;

TEST(Presets, FurnishedLabGeometry) {
  Room lab = furnished_lab();
  EXPECT_DOUBLE_EQ(lab.width(), 4.0);
  EXPECT_DOUBLE_EQ(lab.height(), 6.0);
  // 4 boundary walls + 6 pieces of furniture.
  EXPECT_EQ(lab.walls().size(), 10u);
  // Furniture never blocks transmission (below the antenna plane).
  for (std::size_t w = 4; w < lab.walls().size(); ++w) {
    EXPECT_FALSE(lab.walls()[w].blocks_transmission);
  }
  EXPECT_TRUE(lab.contains(furnished_lab_ap().position));
}

TEST(Presets, FurnishedLabIsReflectorRich) {
  // Every node position must see strictly more paths than the bare room
  // would offer (LoS + 4 walls).
  Room lab = furnished_lab();
  const Pose ap = furnished_lab_ap();
  for (double y : {1.0, 2.5, 4.0}) {
    const auto paths = trace_paths(lab, {2.0, y}, ap.position);
    EXPECT_GT(paths.size(), 5u) << y;
  }
}

TEST(Presets, RangeHall) {
  Room hall = range_hall();
  EXPECT_DOUBLE_EQ(hall.width(), 22.0);
  EXPECT_TRUE(hall.contains(range_hall_ap().position));
  // 20 m of usable range fits inside.
  EXPECT_TRUE(hall.contains({range_hall_ap().position.x - 20.0, 4.0}));
}

TEST(Presets, ParkPersonKeepsClearOfAp) {
  Room lab = furnished_lab();
  const Vec2 node{2.0, 1.0};
  const Vec2 ap = furnished_lab_ap().position;
  const std::size_t id = park_person(lab, node, ap);
  const Vec2 person = lab.blockers()[id].center;
  // On the segment, at least ~0.9 m from the AP.
  EXPECT_GE(distance(person, ap), 0.9);
  EXPECT_NEAR(point_segment_distance(person, node, ap), 0.0, 1e-9);
}

TEST(Presets, ParkPersonShortLinkUsesMidpoint) {
  Room lab = furnished_lab();
  const Vec2 node{2.0, 5.0};  // 0.9 m from the AP
  const Vec2 ap = furnished_lab_ap().position;
  const std::size_t id = park_person(lab, node, ap);
  const Vec2 person = lab.blockers()[id].center;
  EXPECT_NEAR(distance(person, node), distance(node, ap) / 2.0, 1e-9);
}

}  // namespace
}  // namespace mmx::channel
