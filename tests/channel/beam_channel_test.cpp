// End-to-end per-beam channel gain tests — the physical core of OTAM.
#include "mmx/channel/beam_channel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mmx/channel/blockage.hpp"
#include "mmx/common/units.hpp"
#include "trace_paths.hpp"

namespace mmx::channel {
namespace {

struct Scene {
  Room room{6.0, 4.0};
  antenna::MmxBeamPair beams{};
  antenna::Dipole ap_antenna{};
  double freq = 24.125e9;
};

/// Gains of `node` through one trace of `room` as it is now.
BeamGains gains_in(const Room& room, const Scene& s, const Pose& node, const Pose& ap) {
  return compute_beam_gains(test::trace_paths(room, node.position, ap.position), node, s.beams,
                            ap, s.ap_antenna, s.freq);
}

TEST(BeamChannel, FacingNodeBeam1Dominates) {
  // Node at one end facing the AP: Beam 1 (broadside) rides the LoS,
  // Beam 0 has a null toward the AP — strong amplitude contrast (Fig. 4a).
  Scene s;
  const Pose node{{1.0, 2.0}, 0.0};             // facing +x
  const Pose ap{{5.0, 2.0}, kPi};               // facing back at the node
  const BeamGains g = gains_in(s.room, s, node, ap);
  EXPECT_GT(std::abs(g.h1), std::abs(g.h0));
  EXPECT_GT(g.contrast_db(), 6.0);
  EXPECT_EQ(g.paths_used, 5);
}

TEST(BeamChannel, BlockedLosInvertsContrast) {
  // Fig. 4b: with the LoS blocked, Beam 1's signal is crushed while
  // Beam 0 still reaches the AP off reflections — "all bits are
  // inverted" but contrast survives.
  Scene s;
  const Pose node{{1.0, 2.0}, 0.0};
  const Pose ap{{5.0, 2.0}, kPi};
  const BeamGains clear = gains_in(s.room, s, node, ap);

  park_blocker_on_los(s.room, node.position, ap.position);
  const BeamGains blocked = gains_in(s.room, s, node, ap);

  // Beam 1 loses a lot; Beam 0 barely changes.
  EXPECT_LT(std::abs(blocked.h1), std::abs(clear.h1) * 0.5);
  EXPECT_NEAR(std::abs(blocked.h0) / std::abs(clear.h0), 1.0, 0.3);
}

TEST(BeamChannel, OtamContrastSurvivesBlockage) {
  // The OTAM claim: with or without the person, |h1| != |h0| by a
  // decodable margin, *without* the node doing anything.
  Scene s;
  const Pose node{{1.0, 2.0}, 0.0};
  const Pose ap{{5.0, 2.0}, kPi};
  EXPECT_GT(gains_in(s.room, s, node, ap).contrast_db(), 3.0);
  park_blocker_on_los(s.room, node.position, ap.position);
  EXPECT_GT(gains_in(s.room, s, node, ap).contrast_db(), 3.0);
}

TEST(BeamChannel, RotatedNodeStillDelivers) {
  // Paper picks orientations in [-60, +60] degrees; the wide beam pair
  // plus reflections keep some energy flowing at the extremes.
  Scene s;
  const Pose ap{{5.0, 2.0}, kPi};
  for (double deg : {-60.0, -30.0, 0.0, 30.0, 60.0}) {
    const Pose node{{1.0, 2.0}, deg_to_rad(deg)};
    const BeamGains g = gains_in(s.room, s, node, ap);
    EXPECT_GT(std::max(std::abs(g.h0), std::abs(g.h1)), 0.0) << deg;
  }
}

TEST(BeamChannel, NodeAt30DegreesOffsetFavoursBeam0) {
  // Rotate the node so the AP sits on Beam 0's arm (30 degrees off
  // boresight): now Beam 0 should dominate — the "0" and "1" levels swap
  // exactly as OTAM's preamble-based polarity resolution expects.
  Scene s;
  const Pose node{{1.0, 2.0}, deg_to_rad(-30.0)};  // boresight now 30 deg off the AP bearing
  const Pose ap{{5.0, 2.0}, kPi};
  const BeamGains g = gains_in(s.room, s, node, ap);
  EXPECT_GT(std::abs(g.h0), std::abs(g.h1));
}

TEST(BeamChannel, ReciprocalDistanceScaling) {
  // Doubling the distance costs ~6 dB on the LoS-dominated gain.
  Scene s;
  Room big(20.0, 8.0);
  const Pose ap{{19.0, 4.0}, kPi};
  const Pose near_node{{ap.position.x - 4.0, 4.0}, 0.0};
  const Pose far_node{{ap.position.x - 8.0, 4.0}, 0.0};
  const double g_near = std::abs(gains_in(big, s, near_node, ap).h1);
  const double g_far = std::abs(gains_in(big, s, far_node, ap).h1);
  EXPECT_NEAR(amp_to_db(g_near / g_far), 6.0, 2.5);
}

TEST(BeamChannel, PatternGainMatchesBeamGainForSameArray) {
  // compute_pattern_gain with Beam 1's own array must equal h1.
  Scene s;
  const Pose node{{1.5, 1.5}, 0.3};
  const Pose ap{{5.0, 2.5}, kPi};
  const auto paths = test::trace_paths(s.room, node.position, ap.position);
  const BeamGains g = compute_beam_gains(paths, node, s.beams, ap, s.ap_antenna, s.freq);
  const auto h1 = compute_pattern_gain(paths, node, s.beams.beam(1), ap, s.ap_antenna, s.freq);
  EXPECT_NEAR(std::abs(h1 - g.h1), 0.0, 1e-15);
}

TEST(BeamChannel, ContrastDbOfZeroGainClamps) {
  BeamGains g{};
  g.h0 = {0.0, 0.0};
  g.h1 = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(g.contrast_db(), 200.0);
}

}  // namespace
}  // namespace mmx::channel
