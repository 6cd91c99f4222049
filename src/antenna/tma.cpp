#include "mmx/antenna/tma.hpp"
#include <algorithm>
#include <limits>

#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"

namespace mmx::antenna {
namespace {

void validate_spec(const TmaSpec& spec) {
  if (spec.num_elements == 0) throw std::invalid_argument("Tma: need at least one element");
  if (spec.spacing_wavelengths <= 0.0) throw std::invalid_argument("Tma: spacing must be > 0");
  if (spec.freq_hz <= 0.0) throw std::invalid_argument("Tma: frequency must be > 0");
  if (spec.switch_rate_hz <= 0.0) throw std::invalid_argument("Tma: switch rate must be > 0");
}

}  // namespace

TimeModulatedArray::TimeModulatedArray(TmaSpec spec, std::vector<SwitchWindow> windows)
    : spec_(spec), windows_(std::move(windows)) {
  validate_spec(spec_);
  if (windows_.size() != spec_.num_elements)
    throw std::invalid_argument("Tma: one switch window per element required");
  for (const SwitchWindow& w : windows_) {
    if (w.on < 0.0 || w.on >= 1.0) throw std::invalid_argument("Tma: window.on must be in [0,1)");
    if (w.tau <= 0.0 || w.tau > 1.0) throw std::invalid_argument("Tma: window.tau must be in (0,1]");
  }
}

TimeModulatedArray TimeModulatedArray::progressive(TmaSpec spec, double delay_frac, double tau) {
  validate_spec(spec);
  if (delay_frac < 0.0 || delay_frac >= 1.0)
    throw std::invalid_argument("Tma: delay_frac must be in [0,1)");
  std::vector<SwitchWindow> windows(spec.num_elements);
  for (std::size_t n = 0; n < spec.num_elements; ++n) {
    windows[n] = {std::fmod(static_cast<double>(n) * delay_frac, 1.0), tau};
  }
  TimeModulatedArray tma(spec, std::move(windows));
  tma.delay_frac_ = delay_frac;
  return tma;
}

TimeModulatedArray ap_tma() { return TimeModulatedArray::progressive(TmaSpec{}, 0.0625, 0.45); }

TimeModulatedArray TimeModulatedArray::tapered(TmaSpec spec, double delay_frac,
                                               const std::vector<double>& taus) {
  validate_spec(spec);
  if (delay_frac < 0.0 || delay_frac >= 1.0)
    throw std::invalid_argument("Tma: delay_frac must be in [0,1)");
  if (taus.size() != spec.num_elements)
    throw std::invalid_argument("Tma: one duty cycle per element required");
  std::vector<SwitchWindow> windows(spec.num_elements);
  for (std::size_t n = 0; n < spec.num_elements; ++n) {
    if (taus[n] <= 0.0 || taus[n] > 1.0)
      throw std::invalid_argument("Tma: duty cycles must be in (0,1]");
    // Centre each window on the progressive delay so the harmonic-m
    // phase progression (and hence the steering) matches the uniform
    // design.
    const double centre = static_cast<double>(n) * delay_frac;
    windows[n] = {std::fmod(centre - taus[n] / 2.0 + 2.0, 1.0), taus[n]};
  }
  TimeModulatedArray tma(spec, std::move(windows));
  tma.delay_frac_ = delay_frac;
  return tma;
}

std::complex<double> TimeModulatedArray::coefficient(int m, std::size_t element) const {
  if (element >= windows_.size()) throw std::out_of_range("Tma: element index");
  const SwitchWindow& w = windows_[element];
  if (m == 0) return {w.tau, 0.0};
  // a_mn = integral over the on-window of e^{-j 2 pi m u} du
  //      = (e^{-j 2 pi m on} - e^{-j 2 pi m (on+tau)}) / (j 2 pi m).
  const double a1 = -kTwoPi * static_cast<double>(m) * w.on;
  const double a2 = -kTwoPi * static_cast<double>(m) * (w.on + w.tau);
  const std::complex<double> num =
      std::complex<double>{std::cos(a1), std::sin(a1)} -
      std::complex<double>{std::cos(a2), std::sin(a2)};
  return num / std::complex<double>{0.0, kTwoPi * static_cast<double>(m)};
}

std::complex<double> TimeModulatedArray::harmonic_pattern(int m, double theta) const {
  const double psi = kTwoPi * spec_.spacing_wavelengths * std::sin(theta);
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t n = 0; n < windows_.size(); ++n) {
    const double ph = psi * static_cast<double>(n);
    acc += coefficient(m, n) * std::complex<double>{std::cos(ph), std::sin(ph)};
  }
  return acc;
}

double TimeModulatedArray::harmonic_power(int m, double theta) const {
  const double nn = static_cast<double>(windows_.size());
  return std::norm(harmonic_pattern(m, theta)) / (nn * nn);
}

double TimeModulatedArray::steered_angle(int m) const {
  if (delay_frac_ == 0.0 && m != 0)
    throw std::logic_error("Tma: steered_angle requires a progressive design");
  const double s = static_cast<double>(m) * delay_frac_ / spec_.spacing_wavelengths;
  if (std::abs(s) > 1.0) throw std::out_of_range("Tma: harmonic steers outside real angles");
  return std::asin(s);
}

dsp::Cvec TimeModulatedArray::simulate(std::span<const double> arrival_thetas,
                                       double sample_rate_hz, std::size_t n) const {
  if (sample_rate_hz <= 0.0) throw std::invalid_argument("Tma: sample rate must be > 0");
  dsp::Cvec out(n, dsp::Complex{});
  const double psi_base = kTwoPi * spec_.spacing_wavelengths;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / sample_rate_hz;
    const double frac = std::fmod(t * spec_.switch_rate_hz, 1.0);
    for (const double theta : arrival_thetas) {
      const double psi = psi_base * std::sin(theta);
      for (std::size_t e = 0; e < windows_.size(); ++e) {
        const SwitchWindow& w = windows_[e];
        // On-window test with wraparound.
        const double end = w.on + w.tau;
        const bool on = (end <= 1.0) ? (frac >= w.on && frac < end)
                                     : (frac >= w.on || frac < end - 1.0);
        if (!on) continue;
        const double ph = psi * static_cast<double>(e);
        out[i] += dsp::Complex{std::cos(ph), std::sin(ph)};
      }
    }
  }
  return out;
}

double TimeModulatedArray::demux_sir_db(std::span<const double> arrival_thetas,
                                        std::span<const int> harmonics) const {
  if (arrival_thetas.size() != harmonics.size() || arrival_thetas.empty())
    throw std::invalid_argument("Tma: one harmonic per source required");
  double worst = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < arrival_thetas.size(); ++i) {
    const double wanted = harmonic_power(harmonics[i], arrival_thetas[i]);
    double interference = 0.0;
    for (std::size_t j = 0; j < arrival_thetas.size(); ++j) {
      if (j == i) continue;
      interference += harmonic_power(harmonics[i], arrival_thetas[j]);
    }
    if (wanted <= 0.0) return -200.0;
    const double sir =
        (interference <= 0.0) ? 200.0 : lin_to_db(wanted / interference);
    worst = std::min(worst, sir);
  }
  return worst;
}

}  // namespace mmx::antenna
