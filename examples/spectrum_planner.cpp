// Spectrum planner: watch the AP's initialization protocol pack the
// 250 MHz ISM band (paper §7) — FDM by rate demand, then SDM groups over
// TMA harmonics when the band runs out.
#include <cstdio>
#include <vector>

#include "mmx/common/units.hpp"
#include "mmx/mac/init_protocol.hpp"

int main() {
  using namespace mmx;

  mac::InitProtocol ap(mac::FdmAllocator(kIsmLowHz, kIsmHighHz, 1e6), rf::Vco{});

  struct Ask {
    const char* what;
    double rate;
    double bearing_deg;
  };
  // A day in the life of a busy deployment: big video feeds first, then
  // more cameras than the band can hold, then sensors squeezed between.
  const std::vector<Ask> asks = {
      {"4K camera", 60e6, 0.0},    {"4K camera", 60e6, 25.0},  {"4K camera", 60e6, -25.0},
      {"HD camera", 10e6, 10.0},   {"HD camera", 10e6, -10.0}, {"HD camera", 10e6, 30.0},
      {"HD camera (SDM)", 60e6, 14.0}, {"HD camera (SDM)", 60e6, -14.0},
      {"sensor", 1e6, 5.0},        {"sensor", 1e6, -5.0},      {"sensor", 1e6, 20.0},
  };

  std::puts("=== mmX spectrum planner: 250 MHz ISM band at 24 GHz ===\n");
  std::puts("  id  request            rate     decision    channel [GHz]        BW      harmonic");
  std::uint16_t id = 1;
  for (const Ask& a : asks) {
    const auto reply = ap.handle(mac::ChannelRequest{id, a.rate, deg_to_rad(a.bearing_deg)});
    if (const auto* g = std::get_if<mac::ChannelGrant>(&reply)) {
      std::printf("  %2u  %-16s %4.0f Mbps   GRANT     %.4f-%.4f  %5.1f MHz   %+d\n", id,
                  a.what, a.rate / 1e6, g->channel.low_hz() / 1e9, g->channel.high_hz() / 1e9,
                  g->channel.bandwidth_hz / 1e6, g->sdm_harmonic);
    } else {
      std::printf("  %2u  %-16s %4.0f Mbps   DENY      (no spectrum / no separable harmonic)\n",
                  id, a.what, a.rate / 1e6);
    }
    ++id;
  }

  std::printf("\nband utilisation: %.0f of %.0f MHz allocated, largest free gap %.1f MHz\n",
              (kIsmBandwidthHz - ap.allocator().free_bandwidth_hz()) / 1e6,
              kIsmBandwidthHz / 1e6, ap.allocator().largest_gap_hz() / 1e6);
  std::printf("grants outstanding: %zu\n", ap.holders().size());

  // Tear one camera down and show the gap being reused.
  ap.release(1);
  const auto reuse = ap.handle(mac::ChannelRequest{99, 40e6, 45.0 * kPi / 180.0});
  if (const auto* g = std::get_if<mac::ChannelGrant>(&reuse)) {
    std::printf("\nafter releasing node 1, a 40 Mbps joiner reuses the gap at %.4f GHz\n",
                g->channel.center_hz / 1e9);
  }
  return 0;
}
