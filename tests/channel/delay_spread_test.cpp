#include <gtest/gtest.h>

#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"
#include "trace_paths.hpp"

namespace mmx::channel {
namespace {

using test::trace_paths;

TEST(DelaySpread, SinglePathIsZero) {
  Path p;
  p.length_m = 5.0;
  const std::vector<Path> one{p};
  EXPECT_DOUBLE_EQ(rms_delay_spread_s(one, 24e9), 0.0);
}

TEST(DelaySpread, TwoEqualPathsHalfSeparation) {
  // Two equal-power paths at delays t1, t2: rms spread = |t2-t1|/2.
  Path a;
  a.length_m = 3.0;
  Path b;
  b.length_m = 6.0;
  const std::vector<Path> two{a, b};
  const double dt = 3.0 / kSpeedOfLight;
  EXPECT_NEAR(rms_delay_spread_s(two, 24e9), dt / 2.0, dt * 0.35);
  // (the longer path is weaker, so spread is below the equal-power bound)
  EXPECT_LT(rms_delay_spread_s(two, 24e9), dt / 2.0);
}

TEST(DelaySpread, IndoorRoomIsNanoseconds) {
  // The flat-channel premise behind narrowband OTAM symbols: a 6x4 m
  // room's multipath spread is a handful of ns — tiny against the 100 ns
  // symbols of a 10 Mbps node.
  Room room(6.0, 4.0);
  const auto paths = trace_paths(room, {1.0, 2.0}, {5.0, 2.0});
  const double spread = rms_delay_spread_s(paths, 24e9);
  EXPECT_GT(spread, 0.1e-9);
  EXPECT_LT(spread, 10e-9);
}

TEST(DelaySpread, SuppressingDominantEarlyPathRaisesSpread) {
  // A strong early arrival pins the mean delay; attenuate it (blockage)
  // and the late reflection's weight grows the spread.
  Path early;
  early.length_m = 3.0;
  Path late;
  late.length_m = 9.0;
  late.excess_loss_db = 12.0;
  const std::vector<Path> clear{early, late};

  Path blocked_early = early;
  blocked_early.excess_loss_db = 28.0;
  const std::vector<Path> blocked{blocked_early, late};
  EXPECT_GT(rms_delay_spread_s(blocked, 24e9), rms_delay_spread_s(clear, 24e9));
}

TEST(DelaySpread, EmptyPathsThrow) {
  const std::vector<Path> none;
  EXPECT_THROW(rms_delay_spread_s(none, 24e9), std::invalid_argument);
}

}  // namespace
}  // namespace mmx::channel
