#include "mmx/dsp/resample.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "mmx/common/units.hpp"
#include "mmx/dsp/fir.hpp"

namespace mmx::dsp {
namespace {

/// Windowed-sinc prototypes are pure functions of (normalized cutoff,
/// taps), yet decimate/upsample/resample_rational used to re-run the
/// design on every call. Cache the built filter per thread and just
/// reset its delay line — repeat conversions at the same factor cost no
/// design work and no allocation.
FirFilter& cached_lowpass(double cutoff_norm, std::size_t taps) {
  thread_local std::map<std::pair<double, std::size_t>, FirFilter> cache;
  const auto key = std::make_pair(cutoff_norm, taps);
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache.emplace(key, FirFilter(design_lowpass(1.0, cutoff_norm, taps))).first;
  it->second.reset();
  return it->second;
}

}  // namespace

Cvec decimate(std::span<const Complex> x, std::size_t factor, std::size_t taps) {
  if (factor == 0) throw std::invalid_argument("decimate: factor must be > 0");
  if (factor == 1) return Cvec(x.begin(), x.end());
  // Anti-alias at 0.45 of the post-decimation Nyquist, in normalized units
  // of the *input* rate: cutoff = 0.45 / (2*factor) cycles/sample.
  FirFilter& lp = cached_lowpass(0.45 / (2.0 * static_cast<double>(factor)), taps);
  Cvec out;
  out.reserve(x.size() / factor + 1);
  std::size_t phase = 0;
  for (const Complex& s : x) {
    const Complex y = lp.process(s);
    if (phase == 0) out.push_back(y);
    phase = (phase + 1) % factor;
  }
  return out;
}

Cvec upsample(std::span<const Complex> x, std::size_t factor, std::size_t taps) {
  if (factor == 0) throw std::invalid_argument("upsample: factor must be > 0");
  if (factor == 1) return Cvec(x.begin(), x.end());
  FirFilter& lp = cached_lowpass(0.45 / (2.0 * static_cast<double>(factor)), taps);
  Cvec out;
  out.reserve(x.size() * factor);
  const double gain = static_cast<double>(factor);  // restore amplitude after zero-stuffing
  for (const Complex& s : x) {
    out.push_back(lp.process(s * gain));
    for (std::size_t k = 1; k < factor; ++k) out.push_back(lp.process(Complex{}));
  }
  return out;
}

Cvec resample_rational(std::span<const Complex> x, std::size_t up, std::size_t down,
                       std::size_t taps) {
  if (up == 0 || down == 0)
    throw std::invalid_argument("resample_rational: factors must be > 0");
  if (up == down) return Cvec(x.begin(), x.end());
  // Polyphase-equivalent direct form: one low-pass at the high
  // (intermediate) rate, cut at 0.45x the narrower of the two Nyquists.
  const double cutoff = 0.45 / static_cast<double>(std::max(up, down));
  FirFilter& lp = cached_lowpass(cutoff, taps);
  const double gain = static_cast<double>(up);
  Cvec out;
  out.reserve(x.size() * up / down + 1);
  std::size_t phase = 0;
  for (const Complex& s : x) {
    for (std::size_t k = 0; k < up; ++k) {
      const Complex y = lp.process(k == 0 ? s * gain : Complex{});
      if (phase == 0) out.push_back(y);
      phase = (phase + 1) % down;
    }
  }
  return out;
}

Cvec frequency_shift(std::span<const Complex> x, double offset_hz, double sample_rate_hz) {
  if (sample_rate_hz <= 0.0) throw std::invalid_argument("frequency_shift: sample rate must be > 0");
  Cvec out(x.size());
  // Rotator form of out[i] = x[i] * e^{j w i}: one complex multiply per
  // sample, with the phasor resynced from the tracked phase periodically
  // so drift stays bounded (same scheme as Nco — docs/DSP_FASTPATH.md).
  constexpr std::size_t kResyncInterval = 256;
  const double step = wrap_angle(kTwoPi * offset_hz / sample_rate_hz);
  double phase = 0.0;
  Complex rot{1.0, 0.0};
  const Complex inc{std::cos(step), std::sin(step)};  // mmx-analyze: allow(trig-per-sample) -- setup before the loop
  std::size_t until_resync = kResyncInterval;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = cmul(x[i], rot);
    rot = cmul(rot, inc);
    phase += step;
    if (phase > kPi) phase -= kTwoPi;
    if (phase <= -kPi) phase += kTwoPi;
    if (--until_resync == 0) {
      rot = Complex{std::cos(phase), std::sin(phase)};  // mmx-analyze: allow(trig-per-sample) -- drift resync, amortized over 256 samples
      until_resync = kResyncInterval;
    }
  }
  return out;
}

}  // namespace mmx::dsp
