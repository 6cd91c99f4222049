// Ablation: OTAM vs conventional exhaustive beam search (§6 motivation).
//
// A phased-array node wins on aligned SNR, but must re-search on every
// orientation/blockage change — paying latency and energy mmX never
// spends. This bench quantifies that trade across a rotation sweep.
#include <cstdio>

#include "mmx/baseline/beam_search.hpp"
#include "mmx/baseline/fixed_beam.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"

using namespace mmx;

int main() {
  channel::Room room(6.0, 4.0);
  const channel::Pose ap{{5.0, 2.0}, kPi};
  antenna::MmxBeamPair beams;
  antenna::Dipole ap_antenna;
  sim::LinkBudget budget;
  rf::SpdtSwitch spdt;
  baseline::BeamSearchNode bs;

  std::puts("=== Ablation: OTAM vs exhaustive beam search under rotation ===");
  std::puts("the phased array was aligned once at 0 deg, then the node rotates;");
  std::puts("'stale' = keep yesterday's beam, 're-search' = pay the search again\n");

  const channel::Pose start{{1.0, 2.0}, 0.0};
  // The node only rotates, so one trace of the fixed room serves the sweep.
  const channel::RoomPlan plan(room);
  channel::PathList ws;
  const auto paths = plan.trace_into(start.position, ap.position, ws);
  const auto aligned = bs.exhaustive_search(paths, start, ap, ap_antenna, budget);

  std::puts("  rot [deg]   OTAM SNR   stale-beam SNR   re-searched SNR");
  for (double deg = 0.0; deg <= 60.01; deg += 10.0) {
    channel::Pose rotated = start;
    rotated.orientation_rad = deg_to_rad(deg);
    const auto modes = baseline::compare_modes(paths, rotated, beams, ap, ap_antenna,
                                               24.125e9, budget, spdt);
    const auto stale_h = bs.beam_gain(aligned.best_beam, paths, rotated, ap, ap_antenna);
    const auto fresh = bs.exhaustive_search(paths, rotated, ap, ap_antenna, budget);
    std::printf("  %9.0f   %8.1f   %14.1f   %15.1f\n", deg, modes.with_otam.snr_db,
                budget.snr_db(stale_h), fresh.best_snr_db);
  }

  std::puts("\n--- per-realignment costs (beam search only; OTAM pays zero) ---");
  std::printf("probes per search:      %zu\n", aligned.probes);
  std::printf("search latency:         %.1f us\n", aligned.search_time_s * 1e6);
  std::printf("search energy:          %.1f uJ\n", aligned.search_energy_j * 1e6);
  std::printf("phased-array power:     %.1f W (vs the whole mmX node at 1.1 W)\n",
              bs.spec().phased_array_power_w);
  // A node rotating once per second re-searches continuously:
  const double duty_energy = aligned.search_energy_j;  // per event
  std::printf("at 1 realignment/s:     %.1f uJ/s extra + %0.1f W array overhead\n",
              duty_energy * 1e6, bs.spec().phased_array_power_w);
  return 0;
}
