// Ablation: orthogonal vs non-orthogonal beam pair (§6.2, Fig. 5).
//
// The design question the paper answers with Fig. 5: if the two beams
// are not orthogonal, how often do the two OTAM levels collide (contrast
// too small to decode by ASK)? We compare the paper's pair against a
// deliberately non-orthogonal pair (both beams in phase, slightly
// different spacings) over random placements, with and without blockage.
//
// Parallel sweep: placements are drawn in one serial pass over the root
// Rng (the original loop's draw order, so the default `--trials 2000`
// reproduces the historical numbers bit-for-bit); the per-placement ray
// traces fan across the pool.
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "mmx/antenna/array.hpp"
#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/blockage.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/sim/sweep.hpp"

#include "harness.hpp"
#include "testbed.hpp"

using namespace mmx;

namespace {

/// Fading-averaged contrast between two transmit patterns (incoherent
/// path-power sums — the level a time-averaged measurement sees) over the
/// traced path set node.position -> ap.position.
double contrast_db(std::span<const channel::Path> paths, const channel::Pose& node,
                   const antenna::LinearArray& a0, const antenna::LinearArray& a1,
                   const channel::Pose& ap, const antenna::Element& ap_ant) {
  double p0 = 0.0;
  double p1 = 0.0;
  for (const auto& path : paths) {
    const double dep = wrap_angle(path.departure_rad - node.orientation_rad);
    const double arr = wrap_angle(path.arrival_rad - ap.orientation_rad);
    const double a = std::abs(channel::path_amplitude(path, 24.125e9)) * ap_ant.amplitude(arr);
    p0 += std::norm(a0.field(dep)) * a * a;
    p1 += std::norm(a1.field(dep)) * a * a;
  }
  if (p0 <= 0.0 || p1 <= 0.0) return 200.0;
  return std::abs(lin_to_db(p1 / p0));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_args(argc, argv, 2000, 5, "random node placements");
  const channel::Pose ap = bench::lab_ap_pose();
  const antenna::Dipole ap_ant;
  const double f = 24.125e9;
  const double lambda = wavelength(f);
  auto patch = std::make_shared<antenna::Patch>(6.0);
  const double a = 1.0 / std::sqrt(2.0);

  // Paper's orthogonal pair: in-phase + anti-phase at d = lambda.
  antenna::LinearArray orth1(patch, lambda, {{a, 0.0}, {a, 0.0}}, f);
  antenna::LinearArray orth0(patch, lambda, {{a, 0.0}, {-a, 0.0}}, f);
  // Non-orthogonal strawman (Fig. 5a): two similar in-phase beams with
  // slightly different spacings — both peak broadside.
  antenna::LinearArray non1(patch, lambda, {{a, 0.0}, {a, 0.0}}, f);
  antenna::LinearArray non0(patch, 0.8 * lambda, {{a, 0.0}, {a, 0.0}}, f);

  const std::size_t trials = opt.sweep.trials;
  const double kAmbiguous_db = 1.5;  // below ~1.5 dB of contrast ASK is unreliable

  // Serial pre-pass in the original loop's draw order: position, blocked
  // coin, orientation offset per trial.
  struct Placement {
    Vec2 pos;
    bool blocked;
    double orientation_rad;
  };
  Rng rng(opt.sweep.seed);
  std::vector<Placement> placements(trials);
  for (Placement& p : placements) {
    p.pos = Vec2{rng.uniform(0.5, 3.5), rng.uniform(0.3, 4.8)};
    p.blocked = rng.chance(0.5);
    const double toward_ap = (ap.position - p.pos).angle();
    p.orientation_rad = toward_ap + deg_to_rad(rng.uniform(-60.0, 60.0));
  }

  struct Ambiguity {
    int orth;
    int non;
  };
  sim::SweepRunner runner(opt.sweep);
  const auto sweep = runner.run([&](std::size_t i, Rng&) {
    const Placement& p = placements[i];
    channel::Room room = bench::furnished_lab();
    if (p.blocked) bench::park_person(room, p.pos, ap.position);
    // Both beam pairs see the same channel: one trace serves both.
    const channel::RoomPlan plan(room);
    channel::PathList ws;
    const auto paths = plan.trace_into(p.pos, ap.position, ws);
    const channel::Pose node{p.pos, p.orientation_rad};
    return Ambiguity{contrast_db(paths, node, orth0, orth1, ap, ap_ant) < kAmbiguous_db ? 1 : 0,
                     contrast_db(paths, node, non0, non1, ap, ap_ant) < kAmbiguous_db ? 1 : 0};
  });
  int ambiguous_orth = 0;
  int ambiguous_non = 0;
  for (const Ambiguity& a : sweep.trials) {
    ambiguous_orth += a.orth;
    ambiguous_non += a.non;
  }

  std::puts("=== Ablation: orthogonal vs non-orthogonal beam patterns (Fig. 5) ===");
  std::puts("paper: orthogonality 'reduces the probability of getting similar losses'");
  std::printf("ambiguity threshold: contrast < %.0f dB over %zu random placements\n\n",
              kAmbiguous_db, trials);
  std::printf("  non-orthogonal pair ambiguous: %5.1f%%\n",
              100.0 * ambiguous_non / static_cast<double>(trials));
  std::printf("  orthogonal pair ambiguous:     %5.1f%%   (paper: <10%% residual, absorbed by FSK)\n",
              100.0 * ambiguous_orth / static_cast<double>(trials));

  bench::report_timing(sweep);
  bench::JsonReport report("ablation_orthogonality", opt);
  report.record(sweep);
  report.add_scalar("ambiguous_frac_orthogonal",
                    static_cast<double>(ambiguous_orth) / static_cast<double>(trials));
  report.add_scalar("ambiguous_frac_non_orthogonal",
                    static_cast<double>(ambiguous_non) / static_cast<double>(trials));
  return report.write() ? 0 : 1;
}
