// Figure 10: SNR heat map over the lab, without vs with OTAM.
//
// Paper setup (§9.2): a ~3 x 6 m measurement area with the AP at the
// middle of the short wall; node at random locations with orientation in
// [-60, +60] degrees; one person parked on the LoS the whole time; the
// lab has "standard furniture such as desks, chairs, computers and
// closets" — i.e. strong reflectors everywhere. Without OTAM many spots
// fall below 5 dB; with OTAM "SNRs of more than 11 dB in almost all
// locations".
//
// Parallel sweep: grid cells fan across the pool; orientations are drawn
// in one serial pass in the original row-major order, so the default
// `--trials 1` (orientation samples per cell) reproduces the historical
// figure bit-for-bit at any thread count.
#include <cstdio>
#include <vector>

#include "mmx/baseline/fixed_beam.hpp"
#include "mmx/channel/blockage.hpp"
#include "mmx/channel/presets.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/sim/stats.hpp"
#include "mmx/sim/sweep.hpp"

#include "harness.hpp"

using namespace mmx;

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_args(argc, argv, 1, 42, "random orientation samples per grid cell");
  const channel::Pose ap = channel::furnished_lab_ap();

  const antenna::MmxBeamPair beams;
  const antenna::Dipole ap_antenna;
  const sim::LinkBudget budget;
  const rf::SpdtSwitch spdt;

  const std::size_t nx = 7;   // x: 0.5..3.5 m (0.5 m grid)
  const std::size_t ny = 10;  // y: 0.25..4.75 m
  const std::size_t samples = opt.sweep.trials;
  sim::Grid with_otam(nx, ny);
  sim::Grid without_otam(nx, ny);

  // One serial pass in row-major order — the original loop's draw order.
  Rng rng(opt.sweep.seed);
  std::vector<double> orientations(nx * ny * samples);
  for (std::size_t cell = 0; cell < nx * ny; ++cell) {
    const std::size_t ix = cell % nx;
    const std::size_t iy = cell / nx;
    const Vec2 pos{0.5 + 0.5 * static_cast<double>(ix), 0.25 + 0.5 * static_cast<double>(iy)};
    const double toward_ap = (ap.position - pos).angle();
    for (std::size_t j = 0; j < samples; ++j) {
      // Node roughly faces the AP, +/-60 degrees as in the paper.
      orientations[cell * samples + j] = toward_ap + deg_to_rad(rng.uniform(-60.0, 60.0));
    }
  }

  struct CellSnr {
    double with_otam;
    double without_otam;
  };
  sim::SweepRunner runner(opt.sweep);
  const auto sweep = runner.map(nx * ny, [&](std::size_t cell, Rng&) {
    const std::size_t ix = cell % nx;
    const std::size_t iy = cell / nx;
    const Vec2 pos{0.5 + 0.5 * static_cast<double>(ix), 0.25 + 0.5 * static_cast<double>(iy)};
    // Fresh room per location: one person parked on this cell's LoS.
    channel::Room room = channel::furnished_lab();
    channel::park_person(room, pos, ap.position);
    // Orientation samples share the cell's position: one trace serves all.
    const channel::RoomPlan plan(room);
    channel::PathList ws;
    const auto paths = plan.trace_into(pos, ap.position, ws);
    CellSnr acc{0.0, 0.0};
    for (std::size_t j = 0; j < samples; ++j) {
      const channel::Pose node{pos, orientations[cell * samples + j]};
      const auto modes = baseline::compare_modes_avg(paths, node, beams, ap, ap_antenna,
                                                     24.125e9, budget, spdt);
      acc.with_otam += modes.with_otam.snr_db;
      acc.without_otam += modes.without_otam.snr_db;
    }
    const double n = static_cast<double>(samples);
    return CellSnr{acc.with_otam / n, acc.without_otam / n};
  });
  for (std::size_t cell = 0; cell < nx * ny; ++cell) {
    with_otam.at(cell % nx, cell / nx) = sweep.trials[cell].with_otam;
    without_otam.at(cell % nx, cell / nx) = sweep.trials[cell].without_otam;
  }

  const auto print_grid = [&](const char* label, const sim::Grid& g) {
    std::printf("--- %s (SNR [dB] per location; AP at x=2.0, y=5.9) ---\n", label);
    std::printf("   y\\x ");
    for (std::size_t ix = 0; ix < nx; ++ix) std::printf("%6.2f", 0.5 + 0.5 * ix);
    std::printf("\n");
    for (std::size_t iy = 0; iy < ny; ++iy) {
      std::printf("  %4.2f ", 0.25 + 0.5 * iy);
      for (std::size_t ix = 0; ix < nx; ++ix) std::printf("%6.1f", g.at(ix, iy));
      std::printf("\n");
    }
  };

  std::puts("=== Figure 10: room SNR map, without vs with OTAM ===");
  std::puts("paper: w/o OTAM many locations < 5 dB; w/ OTAM > 11 dB almost everywhere\n");
  print_grid("(a) without OTAM: fixed Beam 1, ASK at the node", without_otam);
  std::puts("");
  print_grid("(b) with OTAM: modulation over the air", with_otam);

  std::puts("\n--- summary (paper -> measured) ---");
  std::printf("w/o OTAM, locations below 5 dB:  'many'       -> %4.1f%%\n",
              100.0 * (1.0 - without_otam.fraction_at_least(5.0)));
  std::printf("w/  OTAM, locations below 5 dB:  'none'       -> %4.1f%%\n",
              100.0 * (1.0 - with_otam.fraction_at_least(5.0)));
  std::printf("w/  OTAM, locations >= 11 dB:    'almost all' -> %4.1f%%\n",
              100.0 * with_otam.fraction_at_least(11.0));
  std::printf("w/  OTAM, worst location:                     -> %5.1f dB\n",
              with_otam.min_value());
  std::printf("w/  OTAM, best location:         <= ~30 dB    -> %5.1f dB\n",
              with_otam.max_value());

  bench::report_timing(sweep);
  bench::JsonReport report("fig10_snr_map", opt);
  report.record(sweep);
  report.add_metric("snr_with_otam_db", with_otam.values());
  report.add_metric("snr_without_otam_db", without_otam.values());
  report.add_scalar("with_otam_frac_ge_11db", with_otam.fraction_at_least(11.0));
  report.add_scalar("without_otam_frac_lt_5db", 1.0 - without_otam.fraction_at_least(5.0));
  return report.write() ? 0 : 1;
}
