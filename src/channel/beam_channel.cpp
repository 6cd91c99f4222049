#include "mmx/channel/beam_channel.hpp"

#include <cmath>

#include "mmx/common/units.hpp"

namespace mmx::channel {

double BeamGains::contrast_db() const {
  const double a0 = std::abs(h0);
  const double a1 = std::abs(h1);
  if (a0 <= 0.0 || a1 <= 0.0) return 200.0;
  return std::abs(amp_to_db(a1 / a0));
}

BeamGains compute_beam_gains(std::span<const Path> paths, const Pose& node,
                             const antenna::MmxBeamPair& beams, const Pose& ap,
                             const antenna::Element& ap_antenna, double freq_hz) {
  BeamGains g{};
  for (const Path& p : paths) {
    // Angles in each device's own frame.
    const double dep = wrap_angle(p.departure_rad - node.orientation_rad);
    const double arr = wrap_angle(p.arrival_rad - ap.orientation_rad);
    const double rx_amp = ap_antenna.amplitude(arr);
    const std::complex<double> a = path_amplitude(p, freq_hz) * rx_amp;
    g.h0 += beams.field(0, dep) * a;
    g.h1 += beams.field(1, dep) * a;
    ++g.paths_used;
  }
  return g;
}

BeamGains compute_beam_gains_avg(std::span<const Path> paths, const Pose& node,
                                 const antenna::MmxBeamPair& beams, const Pose& ap,
                                 const antenna::Element& ap_antenna, double freq_hz) {
  double p0 = 0.0;
  double p1 = 0.0;
  int used = 0;
  for (const Path& p : paths) {
    const double dep = wrap_angle(p.departure_rad - node.orientation_rad);
    const double arr = wrap_angle(p.arrival_rad - ap.orientation_rad);
    const double rx_amp = ap_antenna.amplitude(arr);
    const double a = std::abs(path_amplitude(p, freq_hz)) * rx_amp;
    p0 += std::norm(beams.field(0, dep)) * a * a;
    p1 += std::norm(beams.field(1, dep)) * a * a;
    ++used;
  }
  BeamGains g{};
  g.h0 = std::sqrt(p0);
  g.h1 = std::sqrt(p1);
  g.paths_used = used;
  return g;
}

std::complex<double> compute_pattern_gain(std::span<const Path> paths, const Pose& tx,
                                          const antenna::LinearArray& tx_array, const Pose& rx,
                                          const antenna::Element& rx_antenna, double freq_hz) {
  std::complex<double> h{0.0, 0.0};
  for (const Path& p : paths) {
    const double dep = wrap_angle(p.departure_rad - tx.orientation_rad);
    const double arr = wrap_angle(p.arrival_rad - rx.orientation_rad);
    h += tx_array.field(dep) * rx_antenna.amplitude(arr) * path_amplitude(p, freq_hz);
  }
  return h;
}

}  // namespace mmx::channel
