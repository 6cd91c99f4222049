#include "mmx/dsp/goertzel.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"

namespace mmx::dsp {
namespace {

// Renormalize the rotator every this many samples: |rot| picks up at
// most ~eps of relative error per multiply, so between renorms the
// amplitude drift stays below ~1024 * 1.1e-16 ≈ 1.2e-13 — far inside
// the 1e-9 equivalence tolerance (see docs/DSP_FASTPATH.md).
constexpr std::size_t kRenormInterval = 1024;

Complex unit_phasor(double angle_rad) {
  return Complex{std::cos(angle_rad), std::sin(angle_rad)};  // mmx-analyze: allow(trig-per-sample) -- setup: one phasor per block/bin, not per sample
}

/// One pass over `x` accumulating M rotator-correlation bins at once.
template <std::size_t M>
void measure_bins(std::span<const Complex> x, const Complex* steps, double* powers) {
  std::array<Complex, M> rot;
  std::array<Complex, M> acc;
  rot.fill(Complex{1.0, 0.0});
  acc.fill(Complex{0.0, 0.0});
  std::size_t until_renorm = kRenormInterval;
  for (const Complex& s : x) {
    for (std::size_t i = 0; i < M; ++i) {
      acc[i] += cmul(s, rot[i]);
      rot[i] = cmul(rot[i], steps[i]);
    }
    if (--until_renorm == 0) {
      for (std::size_t i = 0; i < M; ++i) rot[i] /= std::abs(rot[i]);
      until_renorm = kRenormInterval;
    }
  }
  const double n = static_cast<double>(x.size());
  for (std::size_t i = 0; i < M; ++i)
    powers[i] = x.empty() ? 0.0 : std::norm(acc[i]) / (n * n);
}

}  // namespace

Complex goertzel(std::span<const Complex> x, double freq_hz, double sample_rate_hz) {
  if (sample_rate_hz <= 0.0) throw std::invalid_argument("goertzel: sample rate must be > 0");
  // Direct correlation form: X(f) = sum x[n] e^{-j w n}. For complex input
  // this is both simpler and numerically safer than the classic recursive
  // real-input Goertzel, with identical O(N) cost. The phasor advances by
  // one complex multiply per sample (no per-sample transcendentals).
  const double w = kTwoPi * freq_hz / sample_rate_hz;
  const Complex step = unit_phasor(-w);
  Complex acc{0.0, 0.0};
  Complex rot{1.0, 0.0};
  std::size_t until_renorm = kRenormInterval;
  for (const Complex& s : x) {
    acc += cmul(s, rot);
    rot = cmul(rot, step);
    if (--until_renorm == 0) {
      rot /= std::abs(rot);
      until_renorm = kRenormInterval;
    }
  }
  return acc;
}

double goertzel_power(std::span<const Complex> x, double freq_hz, double sample_rate_hz) {
  if (x.empty()) return 0.0;
  const Complex c = goertzel(x, freq_hz, sample_rate_hz);
  const double n = static_cast<double>(x.size());
  return std::norm(c) / (n * n);
}

GoertzelBin::GoertzelBin(double freq_hz, double sample_rate_hz)
    : until_renorm_(kRenormInterval) {
  if (sample_rate_hz <= 0.0) throw std::invalid_argument("GoertzelBin: sample rate must be > 0");
  step_ = unit_phasor(-kTwoPi * freq_hz / sample_rate_hz);
}

void GoertzelBin::push(Complex x) {
  acc_ += cmul(x, rot_);
  rot_ = cmul(rot_, step_);
  if (--until_renorm_ == 0) {
    rot_ /= std::abs(rot_);
    until_renorm_ = kRenormInterval;
  }
  ++n_;
}

Complex GoertzelBin::coefficient() const { return acc_; }

double GoertzelBin::power() const {
  if (n_ == 0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::norm(acc_) / (n * n);
}

void GoertzelBin::reset() {
  acc_ = Complex{0.0, 0.0};
  rot_ = Complex{1.0, 0.0};
  until_renorm_ = kRenormInterval;
  n_ = 0;
}

GoertzelBank::GoertzelBank(std::span<const double> freqs_hz, double sample_rate_hz) {
  if (sample_rate_hz <= 0.0) throw std::invalid_argument("GoertzelBank: sample rate must be > 0");
  if (freqs_hz.empty()) throw std::invalid_argument("GoertzelBank: need at least one bin");
  steps_.reserve(freqs_hz.size());
  for (double f : freqs_hz) steps_.push_back(unit_phasor(-kTwoPi * f / sample_rate_hz));
}

GoertzelBank::GoertzelBank(std::initializer_list<double> freqs_hz, double sample_rate_hz)
    : GoertzelBank(std::span<const double>(freqs_hz.begin(), freqs_hz.size()),
                   sample_rate_hz) {}

void GoertzelBank::measure(std::span<const Complex> x, std::span<double> powers) const {
  if (powers.size() < steps_.size())
    throw std::invalid_argument("GoertzelBank::measure: powers span too small");
  // Bins swept in groups so each group is a single pass over the block;
  // the two-bin group is the FSK discriminator's hot shape.
  std::size_t base = 0;
  while (base < steps_.size()) {
    const std::size_t m = steps_.size() - base;
    if (m >= 4) {
      measure_bins<4>(x, steps_.data() + base, powers.data() + base);
      base += 4;
    } else if (m == 3) {
      measure_bins<3>(x, steps_.data() + base, powers.data() + base);
      base += 3;
    } else if (m == 2) {
      measure_bins<2>(x, steps_.data() + base, powers.data() + base);
      base += 2;
    } else {
      measure_bins<1>(x, steps_.data() + base, powers.data() + base);
      base += 1;
    }
  }
}

}  // namespace mmx::dsp
