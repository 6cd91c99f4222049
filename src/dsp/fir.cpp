#include "mmx/dsp/fir.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"

namespace mmx::dsp {
namespace {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

void validate_design(double sample_rate_hz, std::size_t taps) {
  if (sample_rate_hz <= 0.0) throw std::invalid_argument("FIR design: sample rate must be > 0");
  if (taps < 3 || taps % 2 == 0)
    throw std::invalid_argument("FIR design: taps must be odd and >= 3");
}

}  // namespace

Rvec design_lowpass(double sample_rate_hz, double cutoff_hz, std::size_t taps, WindowKind window) {
  validate_design(sample_rate_hz, taps);
  if (cutoff_hz <= 0.0 || cutoff_hz >= sample_rate_hz / 2.0)
    throw std::invalid_argument("design_lowpass: cutoff must be in (0, fs/2)");
  const double fc = cutoff_hz / sample_rate_hz;  // normalized (cycles/sample)
  const Rvec w = make_window(window, taps);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  Rvec h(taps);
  double gain = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    h[i] = 2.0 * fc * sinc(2.0 * fc * t) * w[i];
    gain += h[i];
  }
  // Normalize DC gain to exactly 1.
  for (double& v : h) v /= gain;
  return h;
}

Rvec design_bandpass(double sample_rate_hz, double low_hz, double high_hz, std::size_t taps,
                     WindowKind window) {
  validate_design(sample_rate_hz, taps);
  if (!(0.0 < low_hz && low_hz < high_hz && high_hz < sample_rate_hz / 2.0))
    throw std::invalid_argument("design_bandpass: need 0 < low < high < fs/2");
  // Band-pass = difference of two low-pass prototypes, then normalize the
  // response at the band centre to unity.
  const double f1 = low_hz / sample_rate_hz;
  const double f2 = high_hz / sample_rate_hz;
  const Rvec w = make_window(window, taps);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  Rvec h(taps);
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    h[i] = (2.0 * f2 * sinc(2.0 * f2 * t) - 2.0 * f1 * sinc(2.0 * f1 * t)) * w[i];
  }
  // Normalize at centre frequency.
  const double fc = 0.5 * (low_hz + high_hz);
  Complex resp{0.0, 0.0};
  for (std::size_t i = 0; i < taps; ++i) {
    const double ph = -kTwoPi * fc / sample_rate_hz * static_cast<double>(i);
    resp += h[i] * Complex{std::cos(ph), std::sin(ph)};  // mmx-analyze: allow(trig-per-sample) -- per-tap design-time evaluation, not a sample loop
  }
  const double mag = std::abs(resp);
  if (mag > 0.0)
    for (double& v : h) v /= mag;
  return h;
}

FirFilter::FirFilter(Rvec taps) : taps_(std::move(taps)), delay_(taps_.size(), Complex{}) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter: empty taps");
}

Complex FirFilter::process(Complex x) {
  delay_[head_] = x;
  Complex acc{0.0, 0.0};
  std::size_t idx = head_;
  for (const double t : taps_) {
    acc += t * delay_[idx];
    idx = (idx == 0) ? delay_.size() - 1 : idx - 1;
  }
  head_ = (head_ + 1) % delay_.size();
  return acc;
}

Cvec FirFilter::process(std::span<const Complex> x) {
  Cvec out(x.size());
  process_into(x, out, DspWorkspace::tls());
  return out;
}

void FirFilter::process_into(std::span<const Complex> x, std::span<Complex> out,
                             DspWorkspace& ws) {
  if (out.size() != x.size())
    throw std::invalid_argument("FirFilter::process_into: size mismatch");
  const std::size_t taps = taps_.size();
  const std::size_t hist = taps - 1;
  // Lay [history | block] out contiguously so the inner sum is a straight
  // dot product — no per-tap ring modulo. Tap order matches the
  // single-sample path exactly, so outputs are bit-identical to it.
  auto scratch = ws.cvec(hist + x.size());
  Cvec& scr = *scratch;
  for (std::size_t i = 0; i < hist; ++i) scr[i] = delay_[(head_ + 1 + i) % taps];
  std::copy(x.begin(), x.end(), scr.begin() + hist);
  const double* tp = taps_.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Complex* newest = scr.data() + hist + i;
    Complex acc{0.0, 0.0};
    for (std::size_t k = 0; k < taps; ++k) acc += tp[k] * *(newest - k);
    out[i] = acc;
  }
  // Re-seed the ring with the last `hist` inputs (newest at slot hist-1,
  // next write at head_ = taps-1) — the layout the sample path expects.
  for (std::size_t i = 0; i < hist; ++i) delay_[i] = scr[x.size() + i];
  head_ = taps - 1;
}

void FirFilter::reset() {
  std::fill(delay_.begin(), delay_.end(), Complex{});
  head_ = 0;
}

Complex FirFilter::frequency_response(double freq_hz, double sample_rate_hz) const {
  Complex acc{0.0, 0.0};
  for (std::size_t i = 0; i < taps_.size(); ++i) {
    const double ph = -kTwoPi * freq_hz / sample_rate_hz * static_cast<double>(i);
    acc += taps_[i] * Complex{std::cos(ph), std::sin(ph)};  // mmx-analyze: allow(trig-per-sample) -- per-tap analysis helper, not a sample loop
  }
  return acc;
}

MovingAverage::MovingAverage(std::size_t len) : buf_(len, 0.0) {
  if (len == 0) throw std::invalid_argument("MovingAverage: length must be > 0");
}

double MovingAverage::process(double x) {
  sum_ -= buf_[head_];
  buf_[head_] = x;
  sum_ += x;
  head_ = (head_ + 1) % buf_.size();
  if (filled_ < buf_.size()) ++filled_;
  return sum_ / static_cast<double>(filled_);
}

void MovingAverage::reset() {
  std::fill(buf_.begin(), buf_.end(), 0.0);
  head_ = 0;
  filled_ = 0;
  sum_ = 0.0;
}

}  // namespace mmx::dsp
