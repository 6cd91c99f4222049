// Figure 11: CDF of BER, without vs with OTAM.
//
// Paper method (§9.3): measure SNR at 30 random placements in the same
// furnished testbed as Fig. 10, convert to BER via standard ASK tables.
// Results: w/o OTAM median 1e-5 and 90th percentile 0.3; w/ OTAM median
// 1e-12 and 90th percentile 1e-3.
//
// Parallel sweep: placements are drawn in one serial pass over the root
// Rng — the exact draw order of the original serial loop, so the default
// `--trials 30` reproduces the historical figure bit-for-bit — and the
// per-placement ray trace + mode comparison fans across the workers.
//
// `--pairs K` then times K interleaved serial/parallel runs of the same
// trials in this process (the order alternates from pair to pair) and
// writes the median serial/parallel wall ratio as `speedup_parallel`,
// with the pair count and the smallest and largest ratio. Every run of
// a pair must reproduce the figure's trials bit for bit, else the bench
// exits 1: that is the determinism check that results do not depend on
// the thread count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mmx/baseline/fixed_beam.hpp"
#include "mmx/channel/blockage.hpp"
#include "mmx/channel/presets.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/phy/ber.hpp"
#include "mmx/sim/stats.hpp"
#include "mmx/sim/sweep.hpp"

#include "harness.hpp"

using namespace mmx;

int main(int argc, char** argv) {
  std::string pairs_arg = "0";
  const bench::Options opt =
      bench::parse_args(argc, argv, 30, 11, "random node placements",
                        {{"--pairs", "K   time K interleaved serial/parallel runs (default 0)",
                          &pairs_arg}});
  char* end = nullptr;
  const unsigned long pairs = std::strtoul(pairs_arg.c_str(), &end, 10);
  if (end == pairs_arg.c_str() || *end != '\0') {
    std::fprintf(stderr, "fig11_ber_cdf: --pairs expects a count, got '%s'\n", pairs_arg.c_str());
    return 2;
  }
  const channel::Pose ap = channel::furnished_lab_ap();
  const antenna::MmxBeamPair beams;
  const antenna::Dipole ap_antenna;
  const sim::LinkBudget budget;
  const rf::SpdtSwitch spdt;

  struct Placement {
    Vec2 pos;
    double orientation_rad;
  };
  Rng rng(opt.sweep.seed);
  std::vector<Placement> placements(opt.sweep.trials);
  for (Placement& p : placements) {
    p.pos = Vec2{rng.uniform(0.5, 3.5), rng.uniform(0.3, 4.8)};
    const double toward_ap = (ap.position - p.pos).angle();
    p.orientation_rad = toward_ap + deg_to_rad(rng.uniform(-60.0, 60.0));
  }

  struct TrialBer {
    double with_otam;
    double without_otam;
    bool operator==(const TrialBer&) const = default;
  };
  const auto trial = [&](std::size_t i, Rng&) {
    const Placement& p = placements[i];
    channel::Room room = channel::furnished_lab();
    channel::park_person(room, p.pos, ap.position);
    const channel::RoomPlan plan(room);
    channel::PathList ws;
    const channel::Pose node{p.pos, p.orientation_rad};
    const auto modes = baseline::compare_modes_avg(plan.trace_into(p.pos, ap.position, ws), node,
                                                   beams, ap, ap_antenna, 24.125e9, budget, spdt);
    return TrialBer{std::max(phy::kBerFloor, modes.with_otam.joint_ber),
                    std::max(phy::kBerFloor, modes.without_otam.joint_ber)};
  };
  sim::SweepRunner runner(opt.sweep);
  const auto sweep = runner.run(trial);

  std::vector<double> ber_with;
  std::vector<double> ber_without;
  ber_with.reserve(sweep.trials.size());
  ber_without.reserve(sweep.trials.size());
  for (const TrialBer& t : sweep.trials) {
    ber_with.push_back(t.with_otam);
    ber_without.push_back(t.without_otam);
  }

  std::printf("=== Figure 11: BER CDF, without vs with OTAM (%zu placements) ===\n",
              opt.sweep.trials);
  std::puts("paper: w/o OTAM median 1e-5, 90th pct 0.3 | w/ OTAM median 1e-12, 90th pct 1e-3\n");
  std::puts("  BER threshold   CDF w/o OTAM   CDF w/ OTAM");
  for (double exp10 = -15.0; exp10 <= 0.0; exp10 += 1.0) {
    const double x = std::pow(10.0, exp10);
    std::printf("  %13.0e   %12.2f   %11.2f\n", x, sim::ecdf(ber_without, x),
                sim::ecdf(ber_with, x));
  }

  std::puts("\n--- summary (paper -> measured) ---");
  std::printf("w/o OTAM median BER: 1e-5  -> %.1e\n", sim::median(ber_without));
  std::printf("w/o OTAM 90th pct:   0.3   -> %.1e\n", sim::percentile(ber_without, 90.0));
  std::printf("w/  OTAM median BER: 1e-12 -> %.1e\n", sim::median(ber_with));
  std::printf("w/  OTAM 90th pct:   1e-3  -> %.1e\n", sim::percentile(ber_with, 90.0));

  bench::report_timing(sweep);
  bench::JsonReport report("fig11_ber_cdf", opt);
  report.record(sweep);
  report.add_metric("ber_with_otam", ber_with);
  report.add_metric("ber_without_otam", ber_without);

  if (pairs > 0) {
    sim::SweepRunner serial({opt.sweep.trials, 1, opt.sweep.seed});
    std::vector<double> ratios;
    for (unsigned long k = 0; k < pairs; ++k) {
      const bool serial_first = k % 2 == 0;
      const auto first = (serial_first ? serial : runner).run(trial);
      const auto second = (serial_first ? runner : serial).run(trial);
      if (first.trials != sweep.trials || second.trials != sweep.trials) {
        std::fprintf(stderr, "fig11_ber_cdf: pair %lu diverged from the figure's trials\n", k);
        return 1;
      }
      const double serial_s = serial_first ? first.wall_s : second.wall_s;
      const double parallel_s = serial_first ? second.wall_s : first.wall_s;
      ratios.push_back(parallel_s > 0.0 ? serial_s / parallel_s : 0.0);
    }
    const double median = sim::median(ratios);
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    std::fprintf(stderr, "[pairs] %lu serial/parallel pairs at %zu threads: speedup median %.2fx"
                 " (min %.2fx, max %.2fx)\n",
                 pairs, runner.threads(), median, *lo, *hi);
    report.add_scalar("speedup_parallel", median);
    report.add_scalar("speedup_parallel_pairs", static_cast<double>(pairs));
    report.add_scalar("speedup_parallel_min", *lo);
    report.add_scalar("speedup_parallel_max", *hi);
  }
  return report.write() ? 0 : 1;
}
