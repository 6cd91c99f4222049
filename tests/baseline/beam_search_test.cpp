#include "mmx/baseline/beam_search.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mmx/baseline/fixed_beam.hpp"
#include "mmx/common/units.hpp"
#include "trace_paths.hpp"

namespace mmx::baseline {
namespace {

struct Scene {
  channel::Room room{6.0, 4.0};
  antenna::Dipole ap_antenna{};
  antenna::MmxBeamPair beams{};
  sim::LinkBudget budget{};
  rf::SpdtSwitch spdt{};
  channel::Pose node{{1.0, 2.0}, 0.0};
  channel::Pose ap{{5.0, 2.0}, kPi};
};

TEST(BeamSearch, CodebookSpansFieldOfView) {
  BeamSearchNode bs;
  EXPECT_NEAR(rad_to_deg(bs.beam_angle(0)), -60.0, 1e-9);
  EXPECT_NEAR(rad_to_deg(bs.beam_angle(bs.codebook_size() - 1)), 60.0, 1e-9);
  EXPECT_THROW(bs.beam_angle(99), std::out_of_range);
}

TEST(BeamSearch, ExhaustiveFindsLosBeam) {
  Scene s;
  const auto paths = test::trace_paths(s.room, s.node.position, s.ap.position);
  BeamSearchNode bs;
  const SearchOutcome out = bs.exhaustive_search(paths, s.node, s.ap, s.ap_antenna, s.budget);
  // AP dead ahead: winning beam should steer near 0 degrees.
  EXPECT_NEAR(rad_to_deg(bs.beam_angle(out.best_beam)), 0.0, 10.0);
  EXPECT_EQ(out.probes, bs.codebook_size());
  EXPECT_GT(out.best_snr_db, 15.0);
}

TEST(BeamSearch, SearchCostsScaleWithCodebook) {
  BeamSearchSpec spec;
  spec.codebook_size = 32;
  BeamSearchNode bs(spec);
  Scene s;
  const auto paths = test::trace_paths(s.room, s.node.position, s.ap.position);
  const SearchOutcome out = bs.exhaustive_search(paths, s.node, s.ap, s.ap_antenna, s.budget);
  EXPECT_EQ(out.probes, 32u);
  EXPECT_NEAR(out.search_time_s, 32 * 50e-6, 1e-9);
  EXPECT_NEAR(out.search_energy_j, 32 * 100e-6, 1e-12);
}

TEST(BeamSearch, SharperBeamBeatsOtamSnrWhenAligned) {
  // The honest trade-off: an 8-element phased array, once aligned, beats
  // the fixed 2-element pair on raw SNR...
  Scene s;
  const auto paths = test::trace_paths(s.room, s.node.position, s.ap.position);
  BeamSearchNode bs;
  const SearchOutcome search = bs.exhaustive_search(paths, s.node, s.ap, s.ap_antenna, s.budget);
  const ModeComparison modes = compare_modes(paths, s.node, s.beams, s.ap, s.ap_antenna,
                                             24.125e9, s.budget, s.spdt);
  EXPECT_GT(search.best_snr_db, modes.with_otam.snr_db);
}

TEST(BeamSearch, StaleBeamCollapsesAfterRotation) {
  // ...but motion invalidates the alignment: re-use yesterday's beam
  // after a 40-degree rotation and the link craters, while OTAM needs no
  // realignment (§6: "regular mobility ... means the beam must perform a
  // continuous search").
  Scene s;
  const auto paths = test::trace_paths(s.room, s.node.position, s.ap.position);
  BeamSearchNode bs;
  const SearchOutcome aligned = bs.exhaustive_search(paths, s.node, s.ap, s.ap_antenna, s.budget);

  channel::Pose rotated = s.node;
  rotated.orientation_rad += deg_to_rad(40.0);
  const auto stale_h =
      bs.beam_gain(aligned.best_beam, paths, rotated, s.ap, s.ap_antenna);
  const double stale_snr = s.budget.snr_db(stale_h);
  EXPECT_LT(stale_snr, aligned.best_snr_db - 10.0);

  const ModeComparison modes = compare_modes(paths, rotated, s.beams, s.ap, s.ap_antenna,
                                             24.125e9, s.budget, s.spdt);
  EXPECT_GT(modes.with_otam.snr_db, stale_snr);
}

TEST(BeamSearch, PhasedArrayPowerExceedsMmxNode) {
  // §6: phased array alone "consumes more than a watt" — on top of the
  // radio. The mmX node's entire budget is 1.1 W.
  BeamSearchNode bs;
  EXPECT_GT(bs.spec().phased_array_power_w, 1.0);
}

TEST(BeamSearch, BadSpecThrows) {
  BeamSearchSpec s;
  s.codebook_size = 1;
  EXPECT_THROW(BeamSearchNode{s}, std::invalid_argument);
  BeamSearchSpec s2;
  s2.probe_time_s = 0.0;
  EXPECT_THROW(BeamSearchNode{s2}, std::invalid_argument);
}

TEST(FixedBeam, ComparisonConsistentWithDirectEvaluation) {
  Scene s;
  const auto paths = test::trace_paths(s.room, s.node.position, s.ap.position);
  const ModeComparison modes = compare_modes(paths, s.node, s.beams, s.ap, s.ap_antenna,
                                             24.125e9, s.budget, s.spdt);
  // Facing the AP: both healthy, OTAM no worse on BER.
  EXPECT_GT(modes.without_otam.snr_db, 10.0);
  EXPECT_LE(modes.with_otam.joint_ber, modes.without_otam.joint_ber + 1e-12);
}

}  // namespace
}  // namespace mmx::baseline
