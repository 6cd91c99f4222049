// Autonomous car: eight surround cameras feeding the in-vehicle AP
// (paper §1: "autonomous cars will be equipped with at least 8 cameras
// for a 360-degree surrounding coverage").
//
// The cabin is a tight 4.5 x 1.9 m metal box — a brutal multipath cavity
// that would wreck beam-searching radios on every pothole, and exactly
// where OTAM's search-free operation pays off. All eight cameras stream
// simultaneously; we report the per-camera link budget and the SINR when
// everyone talks at once.
#include <cstdio>
#include <vector>

#include "mmx/common/units.hpp"
#include "mmx/core/network.hpp"
#include "mmx/sim/network_sim.hpp"

int main() {
  using namespace mmx;

  // Cabin interior: metal everywhere (doors/roof rails reflect at ~2 dB).
  channel::Room cabin(4.5, 1.9, channel::metal());
  const channel::Pose ap{{2.25, 0.95}, 0.0};  // roof console, centre

  core::Network net(cabin, ap);

  struct Camera {
    const char* name;
    channel::Pose pose;
    std::uint16_t id = 0;
  };
  std::vector<Camera> cams = {
      {"front-wide", {{4.35, 0.95}, kPi}},
      {"front-left", {{4.2, 0.15}, deg_to_rad(150.0)}},
      {"front-right", {{4.2, 1.75}, deg_to_rad(-150.0)}},
      {"left-repeater", {{2.3, 0.1}, deg_to_rad(90.0)}},
      {"right-repeater", {{2.3, 1.8}, deg_to_rad(-90.0)}},
      {"rear-left", {{0.35, 0.2}, deg_to_rad(30.0)}},
      {"rear-right", {{0.35, 1.7}, deg_to_rad(-30.0)}},
      {"rear-center", {{0.15, 0.95}, 0.0}},
  };

  std::puts("=== in-vehicle mmX network: 8 cameras -> roof AP ===\n");
  std::puts("  camera          rate    channel       SNR     joint BER   delivered");
  const std::vector<std::uint8_t> frame_chunk(256, 0x3C);
  for (Camera& c : cams) {
    const auto id = net.join(c.pose, 10_Mbps);
    if (!id) {
      std::printf("  %-14s JOIN DENIED\n", c.name);
      continue;
    }
    c.id = *id;
    const auto link = net.measure(c.id);
    const auto report = net.send(c.id, frame_chunk);
    std::printf("  %-14s %3.0f Mbps  %6.1f MHz  %5.1f dB  %9.1e   %s\n", c.name,
                net.node(c.id).bit_rate_bps() / 1e6,
                net.node(c.id).grant().channel.bandwidth_hz / 1e6, link.snr_db,
                link.joint_ber, report.delivered ? "yes" : "NO");
  }

  // Aggregate spectrum and power accounting.
  double total_rate = 0.0;
  double total_power = 0.0;
  for (const Camera& c : cams) {
    if (c.id == 0) continue;
    total_rate += net.node(c.id).bit_rate_bps();
    total_power += net.node(c.id).power_w();
  }
  std::printf("\naggregate camera uplink: %.0f Mbps, radio power %.1f W total\n",
              total_rate / 1e6, total_power);
  std::printf("spectrum used: %.0f of %.0f MHz\n",
              (kIsmBandwidthHz - net.sim().init().allocator().free_bandwidth_hz()) / 1e6,
              kIsmBandwidthHz / 1e6);
  std::puts("\n(no beam search, no phased arrays: each camera is a VCO, a switch");
  std::puts(" and two printed antenna arrays riding the cabin's reflections)");
  return 0;
}
