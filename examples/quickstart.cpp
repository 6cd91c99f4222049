// Quickstart: one mmX node streaming to an AP across a room.
//
// Demonstrates the three verbs of the public API — join (side-channel
// initialization), send (sample-level OTAM frame transport), measure
// (link budget) — plus the OTAM headline: park a person on the line of
// sight and the frame still arrives.
#include <cstdio>
#include <vector>

#include "mmx/channel/blockage.hpp"
#include "mmx/common/units.hpp"
#include "mmx/core/network.hpp"

int main() {
  using namespace mmx;

  // A 6 x 4 m room with the AP on one wall.
  core::Network net(channel::Room(6.0, 4.0), channel::Pose{{5.5, 2.0}, kPi});

  // A camera joins, asking for 10 Mbps (HD video, paper §1).
  const auto cam = net.join({{1.0, 2.0}, 0.0}, 10_Mbps);
  if (!cam) {
    std::puts("AP denied the rate request");
    return 1;
  }
  const core::Node node = net.node(*cam);
  std::printf("camera joined: node %u, channel %.1f MHz wide at %.4f GHz, %.0f Mbps\n",
              node.id(), node.grant().channel.bandwidth_hz / 1e6,
              node.grant().channel.center_hz / 1e9, node.bit_rate_bps() / 1e6);
  std::printf("device power %.2f W -> %.1f nJ/bit\n", node.power_w(),
              node.energy_per_bit_j() * 1e9);

  // Send a frame with a clear line of sight.
  const std::vector<std::uint8_t> payload(256, 0x42);
  core::SendReport r = net.send(*cam, payload);
  std::printf("\nclear LoS:   delivered=%s  SNR=%.1f dB  contrast=%.1f dB  inverted=%s\n",
              r.delivered ? "yes" : "NO", r.snr_db, r.contrast_db, r.inverted ? "yes" : "no");

  // A person walks in and stands right on the line of sight...
  channel::park_blocker_on_los(net.room(), {1.0, 2.0}, {5.5, 2.0});
  r = net.send(*cam, payload);
  std::printf("blocked LoS: delivered=%s  SNR=%.1f dB  contrast=%.1f dB  inverted=%s\n",
              r.delivered ? "yes" : "NO", r.snr_db, r.contrast_db, r.inverted ? "yes" : "no");
  std::puts("\n(OTAM keeps the link: the bits invert when Beam 0's reflection");
  std::puts(" outruns the blocked Beam 1, and the preamble flips them back.)");
  return 0;
}
