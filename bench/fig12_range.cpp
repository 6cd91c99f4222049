// Figure 12: SNR versus node-AP distance, two orientations.
//
// Paper: in a long corridor-like space out to 20 m. Scenario 1: node
// facing the AP (LoS on Beam 1's boresight). Scenario 2: node not facing
// the AP. Even at 18 m: >= 15 dB facing, and still ~9 dB not facing.
//
// Parallel sweep: the distance axis fans across the pool. `--trials N`
// sets the number of sample points over [1, 20] m; the default 20 keeps
// the historical 1 m grid (and byte-identical output).
#include <cmath>
#include <cstdio>
#include <vector>

#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"
#include "mmx/sim/link_budget.hpp"
#include "mmx/sim/sweep.hpp"

#include "harness.hpp"

using namespace mmx;

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_args(argc, argv, 20, 12, "distance sample points over [1, 20] m");
  // A 22 x 8 m hall; AP at one end.
  const channel::Room hall(22.0, 8.0);
  const channel::RoomPlan plan(hall);
  const channel::Pose ap{{21.0, 4.0}, kPi};
  const antenna::MmxBeamPair beams;
  const antenna::Dipole ap_antenna;
  const sim::LinkBudget budget;
  const rf::SpdtSwitch spdt;

  const std::size_t points = opt.sweep.trials;
  const double step_m = points > 1 ? 19.0 / static_cast<double>(points - 1) : 0.0;
  const auto distance_m = [&](std::size_t i) { return 1.0 + step_m * static_cast<double>(i); };

  struct RangeSnr {
    double facing_db;
    double away_db;
  };
  sim::SweepRunner runner(opt.sweep);
  const auto sweep = runner.map(points, [&](std::size_t i, Rng&) {
    const double d = distance_m(i);
    const channel::Pose facing{{21.0 - d, 4.0}, 0.0};
    // "Not facing": rotated 45 degrees, so only one arm of Beam 0 points
    // roughly at the AP (paper's description of scenario 2).
    const channel::Pose away{{21.0 - d, 4.0}, deg_to_rad(45.0)};
    // Both orientations share a position, so one trace serves both.
    channel::PathList ws;
    const auto paths = plan.trace_into(facing.position, ap.position, ws);
    const auto g_face =
        channel::compute_beam_gains(paths, facing, beams, ap, ap_antenna, 24.125e9);
    const auto g_away = channel::compute_beam_gains(paths, away, beams, ap, ap_antenna, 24.125e9);
    return RangeSnr{budget.evaluate_otam(g_face, spdt).snr_db,
                    budget.evaluate_otam(g_away, spdt).snr_db};
  });

  std::puts("=== Figure 12: SNR vs distance (scenario 1: facing; 2: not facing) ===");
  std::puts("paper: at 18 m scenario 1 >= 15 dB, scenario 2 still ~9 dB\n");
  std::puts("  distance [m]   SNR facing [dB]   SNR not facing [dB]");

  std::size_t idx18 = 0;
  std::vector<double> facing_db(points);
  std::vector<double> away_db(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double d = distance_m(i);
    facing_db[i] = sweep.trials[i].facing_db;
    away_db[i] = sweep.trials[i].away_db;
    std::printf("  %12.0f   %15.1f   %19.1f\n", d, facing_db[i], away_db[i]);
    if (std::fabs(d - 18.0) < std::fabs(distance_m(idx18) - 18.0)) idx18 = i;
  }

  std::puts("\n--- summary (paper -> measured) ---");
  std::printf("scenario 1 at 18 m: >= 15 dB -> %.1f dB\n", facing_db[idx18]);
  std::printf("scenario 2 at 18 m:  ~ 9 dB  -> %.1f dB\n", away_db[idx18]);

  bench::report_timing(sweep);
  bench::JsonReport report("fig12_range", opt);
  report.record(sweep);
  report.add_metric("snr_facing_db", facing_db);
  report.add_metric("snr_not_facing_db", away_db);
  report.add_scalar("snr_facing_at_18m_db", facing_db[idx18]);
  report.add_scalar("snr_not_facing_at_18m_db", away_db[idx18]);
  return report.write() ? 0 : 1;
}
