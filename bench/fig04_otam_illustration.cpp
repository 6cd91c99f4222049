// Figure 4: the OTAM mechanism, end to end, in both of the paper's
// illustrative scenarios.
//
// (a) clear LoS: Beam 1's signal dominates -> '1' arrives bright;
// (b) LoS blocked: Beam 0's reflection dominates -> every bit arrives
//     inverted, and the known preamble flips them back.
#include <cstdio>

#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/blockage.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/phy/pipeline.hpp"
#include "mmx/phy/preamble.hpp"

using namespace mmx;
using namespace mmx::phy;

namespace {

void run_scenario(const char* label, bool blocked, Rng& rng) {
  channel::Room room(6.0, 4.0);
  const channel::Pose node{{1.0, 2.0}, 0.0};
  const channel::Pose ap{{5.0, 2.0}, kPi};
  if (blocked) channel::park_blocker_on_los(room, node.position, ap.position);
  const channel::RoomPlan plan(room);
  channel::PathList ws;
  antenna::MmxBeamPair beams;
  antenna::Dipole ap_antenna;
  const auto g = channel::compute_beam_gains(plan.trace_into(node.position, ap.position, ws),
                                             node, beams, ap, ap_antenna, 24.125e9);

  rf::SpdtSwitch sw;
  PhyConfig cfg;
  cfg.symbol_rate_hz = 1e6;
  cfg.samples_per_symbol = 16;
  cfg.fsk_freq0_hz = -2e6;
  cfg.fsk_freq1_hz = 2e6;

  const Bits& preamble = default_preamble();
  Bits bits = preamble;
  for (int b : {1, 0, 1}) bits.push_back(b);  // the paper's "101" example

  FramePipeline& pipe = thread_pipeline(cfg);
  pipe.synthesize_otam(bits, {g.h0, g.h1}, sw);
  pipe.add_noise_snr(25.0, rng);
  const JointDecision& d = pipe.demodulate_joint(preamble);

  std::printf("--- %s ---\n", label);
  std::printf("  |h1| (Beam 1 path): %6.1f dB   |h0| (Beam 0 path): %6.1f dB\n",
              amp_to_db(std::abs(g.h1)), amp_to_db(std::abs(g.h0)));
  std::printf("  level for '1' %s level for '0'  ->  polarity %s\n",
              std::abs(g.h1) > std::abs(g.h0) ? ">" : "<",
              d.ask_inverted ? "INVERTED (preamble corrects it)" : "normal");
  std::printf("  transmitted 101 -> decoded %d%d%d\n\n",
              d.bits[preamble.size()], d.bits[preamble.size() + 1],
              d.bits[preamble.size() + 2]);
}

}  // namespace

int main() {
  std::puts("=== Figure 4: Over-The-Air Modulation, both scenarios ===");
  std::puts("the node only ever transmits a pure carrier, switched between beams\n");
  Rng rng(4);
  run_scenario("(a) line of sight clear: Beam 1 rides the direct path", false, rng);
  run_scenario("(b) line of sight blocked: Beam 0 rides the reflection", true, rng);
  std::puts("in both cases the AP sees ASK it can decode — no beam search, no");
  std::puts("feedback, no phased array. That is the paper's central trick.");
  return 0;
}
