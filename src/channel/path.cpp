#include "mmx/channel/path.hpp"

#include <cmath>
#include <stdexcept>

#include "mmx/channel/propagation.hpp"
#include "mmx/common/units.hpp"

namespace mmx::channel {

std::complex<double> path_amplitude(const Path& path, double freq_hz) {
  return path_gain(path.length_m, freq_hz, path.excess_loss_db);
}

double rms_delay_spread_s(std::span<const Path> paths, double freq_hz) {
  if (paths.empty()) throw std::invalid_argument("rms_delay_spread_s: no paths");
  double p_sum = 0.0;
  double t_mean = 0.0;
  for (const Path& p : paths) {
    const double w = std::norm(path_amplitude(p, freq_hz));
    p_sum += w;
    t_mean += w * (p.length_m / kSpeedOfLight);
  }
  if (p_sum <= 0.0) return 0.0;
  t_mean /= p_sum;
  double var = 0.0;
  for (const Path& p : paths) {
    const double w = std::norm(path_amplitude(p, freq_hz));
    const double dt = p.length_m / kSpeedOfLight - t_mean;
    var += w * dt * dt;
  }
  return std::sqrt(var / p_sum);
}

}  // namespace mmx::channel
