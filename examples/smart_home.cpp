// Smart home: security cameras and sensors streaming to a home hub while
// people walk around (the paper's §1/§4 motivating deployment).
//
// Six HD cameras (8-10 Mbps each) and four low-rate sensors join one AP.
// A crowd of three residents walks the room; we deliver frames for ten
// seconds of wall-clock time (decimated to one probe per 100 ms per
// device) and report per-device delivery and the blockage events OTAM
// rode through.
#include <cstdio>
#include <vector>

#include "mmx/channel/blockage.hpp"
#include "mmx/common/units.hpp"
#include "mmx/core/network.hpp"
#include "mmx/sim/traffic.hpp"

int main() {
  using namespace mmx;
  Rng rng(2026);

  core::Network net(channel::Room(8.0, 5.0), channel::Pose{{7.6, 2.5}, kPi});

  struct Device {
    const char* name;
    channel::Pose pose;
    double rate;
    std::uint16_t id = 0;
    int sent = 0;
    int delivered = 0;
    int inverted = 0;
  };
  std::vector<Device> devices = {
      {"door-cam", {{0.4, 0.4}, deg_to_rad(35.0)}, 10_Mbps},
      {"patio-cam", {{0.4, 4.6}, deg_to_rad(-35.0)}, 10_Mbps},
      {"hall-cam", {{3.0, 0.4}, deg_to_rad(55.0)}, 8_Mbps},
      {"kitchen-cam", {{3.0, 4.6}, deg_to_rad(-55.0)}, 8_Mbps},
      {"garage-cam", {{5.5, 0.6}, deg_to_rad(60.0)}, 8_Mbps},
      {"nursery-cam", {{5.5, 4.4}, deg_to_rad(-60.0)}, 10_Mbps},
      {"thermostat", {{2.0, 2.5}, 0.0}, 1_Mbps},
      {"smoke-sensor", {{4.0, 2.6}, 0.0}, 1_Mbps},
      {"door-lock", {{0.6, 2.4}, 0.0}, 1_Mbps},
      {"air-quality", {{6.5, 2.4}, 0.0}, 1_Mbps},
  };

  for (Device& d : devices) {
    const auto id = net.join(d.pose, d.rate);
    if (!id) {
      std::printf("%s: JOIN DENIED\n", d.name);
      return 1;
    }
    d.id = *id;
  }
  std::printf("%zu devices joined; spectrum in use: %.0f MHz of %.0f MHz\n\n",
              devices.size(),
              (kIsmBandwidthHz - net.sim().init().allocator().free_bandwidth_hz()) / 1e6,
              kIsmBandwidthHz / 1e6);

  // Three residents wander the room at walking pace.
  channel::WalkingCrowd crowd(net.room(), 3, 1.4, rng);

  const std::vector<std::uint8_t> video_chunk(512, 0xAA);
  const std::vector<std::uint8_t> sensor_report(16, 0x01);
  const double dt = 0.1;  // probe cadence
  for (double t = 0.0; t < 10.0; t += dt) {
    crowd.update(dt, rng);
    for (Device& d : devices) {
      const bool is_camera = d.rate > 2_Mbps;
      const auto r = net.send(d.id, is_camera ? video_chunk : sensor_report);
      ++d.sent;
      d.delivered += r.delivered;
      d.inverted += r.inverted;
    }
  }

  std::puts("  device         rate     frames  delivered  blockage-inversions");
  for (const Device& d : devices) {
    std::printf("  %-12s %4.0f Mbps  %6d  %8.1f%%  %19d\n", d.name, d.rate / 1e6, d.sent,
                100.0 * d.delivered / d.sent, d.inverted);
  }

  double worst = 100.0;
  for (const Device& d : devices) worst = std::min(worst, 100.0 * d.delivered / d.sent);
  std::printf("\nworst device delivery over 10 s with 3 people walking: %.1f%%\n", worst);
  return 0;
}
