// PHY <- channel integration: frames travel from a node in a ray-traced
// room to the AP through real beam patterns, OTAM, sync, and CRC.
#include <gtest/gtest.h>

#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/blockage.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/dsp/noise.hpp"
#include "mmx/phy/frame.hpp"
#include "mmx/phy/joint.hpp"
#include "mmx/phy/otam.hpp"
#include "mmx/phy/preamble.hpp"
#include "trace_paths.hpp"

namespace mmx::phy {
namespace {

struct TestLink {
  channel::Room room{6.0, 4.0};
  antenna::MmxBeamPair beams{};
  antenna::Dipole ap_antenna{};
  channel::Pose node{{1.0, 2.0}, 0.0};
  channel::Pose ap{{5.0, 2.0}, kPi};
  PhyConfig cfg;

  TestLink() {
    cfg.symbol_rate_hz = 1e6;
    cfg.samples_per_symbol = 16;
    cfg.fsk_freq0_hz = -2e6;
    cfg.fsk_freq1_hz = 2e6;
  }

  OtamChannel gains() const {
    const auto paths = test::trace_paths(room, node.position, ap.position);
    const auto g = channel::compute_beam_gains(paths, node, beams, ap, ap_antenna, 24.125e9);
    return {g.h0, g.h1};
  }
};

std::optional<Frame> send_and_receive(const TestLink& link, const Frame& frame, Rng& rng,
                                      double snr_db) {
  rf::SpdtSwitch sw;
  const Bits bits = encode_frame(frame, default_preamble());
  const OtamChannel ch = link.gains();
  // Normalize TX amplitude so the received SNR is controlled exactly.
  auto rx = otam_synthesize(bits, link.cfg, ch, sw, 1.0);
  const double sig_power = dsp::mean_power(rx);
  // Real captures run past the frame end; pad a couple of symbols of dead
  // air so a late sync estimate cannot truncate the last symbol.
  rx.resize(rx.size() + 2 * link.cfg.samples_per_symbol, dsp::Complex{});
  dsp::add_awgn(rx, sig_power / db_to_lin(snr_db), rng);

  const auto sync = find_preamble(rx, link.cfg, default_preamble(), 64, 0.5);
  if (!sync) return std::nullopt;
  const std::span<const dsp::Complex> aligned(rx.data() + sync->sample_offset,
                                              rx.size() - sync->sample_offset);
  const JointDecision d = joint_demodulate(aligned, link.cfg, default_preamble());
  const Bits body(d.bits.begin() + static_cast<long>(default_preamble().size()), d.bits.end());
  return decode_frame(body);
}

TEST(EndToEnd, FrameThroughClearRoom) {
  Rng rng(1);
  TestLink link;
  Frame f;
  f.node_id = 3;
  f.seq = 77;
  f.payload = {10, 20, 30, 40, 50};
  const auto rx = send_and_receive(link, f, rng, 20.0);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, f);
}

TEST(EndToEnd, FrameThroughBlockedLos) {
  // The headline OTAM scenario: a person parked on the LoS for the whole
  // experiment; bits invert but the frame still decodes.
  Rng rng(2);
  TestLink link;
  channel::park_blocker_on_los(link.room, link.node.position, link.ap.position);
  Frame f;
  f.node_id = 9;
  f.payload.assign(32, 0x5A);
  const auto rx = send_and_receive(link, f, rng, 20.0);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, f);
}

TEST(EndToEnd, RandomOrientationsDecode) {
  // §9.2: orientations drawn in [-60, 60] degrees; OTAM keeps the link
  // alive across the node's 120-degree field of view.
  Rng rng(3);
  TestLink link;
  Frame f;
  f.payload = {1, 2, 3};
  for (double deg : {-60.0, -45.0, -15.0, 0.0, 25.0, 60.0}) {
    link.node.orientation_rad = deg_to_rad(deg);
    const auto rx = send_and_receive(link, f, rng, 22.0);
    ASSERT_TRUE(rx.has_value()) << "orientation " << deg;
    EXPECT_EQ(*rx, f) << "orientation " << deg;
  }
}

TEST(EndToEnd, LowSnrDropsFrameGracefully) {
  Rng rng(4);
  TestLink link;
  Frame f;
  f.payload.assign(64, 0xFF);
  // At -10 dB the CRC (or sync) must reject, not mis-deliver.
  const auto rx = send_and_receive(link, f, rng, -10.0);
  if (rx.has_value()) {
    EXPECT_EQ(*rx, f);  // astronomically unlikely, but if it decodes it must be right
  }
  SUCCEED();
}

TEST(EndToEnd, CorruptedFrameNeverMisdelivers) {
  // 100 noisy trials at marginal SNR: every accepted frame must be exact
  // (CRC-16 guards the payload).
  Rng rng(5);
  TestLink link;
  Frame f;
  f.node_id = 12;
  f.payload = {0xAA, 0xBB, 0xCC};
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    const auto rx = send_and_receive(link, f, rng, 8.0);
    if (rx.has_value()) {
      EXPECT_EQ(*rx, f);
      ++delivered;
    }
  }
  // At 8 dB most frames should still make it (contrast is strong here).
  EXPECT_GT(delivered, 0);
}

}  // namespace
}  // namespace mmx::phy
