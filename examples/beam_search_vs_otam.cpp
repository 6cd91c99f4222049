// OTAM vs phased-array beam search on a moving node.
//
// A node pans back and forth (a camera on a swivel mount, or a wearable).
// The phased-array baseline must re-search whenever its beam goes stale;
// mmX never searches. We integrate delivered airtime and search overhead
// over a 60-second pan and print the ledger the paper's §6 argues from.
#include <cstdio>

#include "mmx/baseline/beam_search.hpp"
#include "mmx/baseline/fixed_beam.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"

int main() {
  using namespace mmx;

  channel::Room room(6.0, 4.0);
  const channel::Pose ap{{5.0, 2.0}, kPi};
  antenna::MmxBeamPair beams;
  antenna::Dipole ap_antenna;
  sim::LinkBudget budget;
  rf::SpdtSwitch spdt;
  baseline::BeamSearchNode searcher;

  const Vec2 node_pos{1.0, 2.0};
  // The node only swivels, so one trace of the fixed room serves the pan.
  const channel::RoomPlan plan(room);
  channel::PathList ws;
  const auto paths = plan.trace_into(node_pos, ap.position, ws);
  const double kPanRate = deg_to_rad(20.0);  // deg/s swivel
  const double kSnrFloor = 10.0;             // link considered usable above this
  const double dt = 0.05;

  double otam_up = 0.0;
  double search_up = 0.0;
  double search_overhead_s = 0.0;
  double search_energy_j = 0.0;
  int searches = 0;

  std::size_t current_beam = 0;
  bool have_beam = false;

  for (double t = 0.0; t < 60.0; t += dt) {
    // Triangular pan across [-60, +60] degrees.
    const double phase = std::fmod(t * kPanRate, 4.0 * deg_to_rad(60.0));
    const double swing = deg_to_rad(60.0);
    const double orient = (phase < 2.0 * swing) ? -swing + phase : 3.0 * swing - phase;
    const channel::Pose node{node_pos, orient};

    // mmX: no alignment state at all.
    const auto modes = baseline::compare_modes(paths, node, beams, ap, ap_antenna, 24.125e9,
                                               budget, spdt);
    if (modes.with_otam.snr_db >= kSnrFloor) otam_up += dt;

    // Phased array: re-search when the current beam drops below the floor.
    double snr = -300.0;
    if (have_beam) {
      snr = budget.snr_db(searcher.beam_gain(current_beam, paths, node, ap, ap_antenna));
    }
    double step_overhead = 0.0;
    if (snr < kSnrFloor) {
      const auto result = searcher.exhaustive_search(paths, node, ap, ap_antenna, budget);
      current_beam = result.best_beam;
      have_beam = true;
      ++searches;
      step_overhead = result.search_time_s;
      search_overhead_s += result.search_time_s;
      search_energy_j += result.search_energy_j;
      snr = result.best_snr_db;
    }
    if (snr >= kSnrFloor) search_up += dt - step_overhead;
  }

  std::puts("=== 60 s of a panning node: OTAM vs exhaustive beam search ===\n");
  std::printf("  OTAM usable airtime:           %5.1f s / 60 s (no alignment ever)\n", otam_up);
  std::printf("  beam-search usable airtime:    %5.1f s / 60 s\n", std::min(search_up, 60.0));
  std::printf("  re-searches triggered:         %5d\n", searches);
  std::printf("  cumulative search latency:     %5.1f ms\n", search_overhead_s * 1e3);
  std::printf("  cumulative search energy:      %5.1f mJ\n", search_energy_j * 1e3);
  std::printf("  phased-array standing power:   %5.1f W (mmX node total: 1.1 W)\n",
              searcher.spec().phased_array_power_w);
  std::puts("\nthe search baseline holds a link too — but pays a watt-class array,");
  std::puts("feedback energy, and realignment latency that mmX simply does not have.");
  return 0;
}
