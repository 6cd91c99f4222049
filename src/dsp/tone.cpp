#include "mmx/dsp/tone.hpp"

#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"

namespace mmx::dsp {
namespace {

Complex unit_phasor(double angle_rad) {
  return Complex{std::cos(angle_rad), std::sin(angle_rad)};  // mmx-analyze: allow(trig-per-sample) -- setup/resync: amortized over kResyncInterval samples
}

}  // namespace

Nco::Nco(double sample_rate_hz, double freq_hz) : sample_rate_hz_(sample_rate_hz) {
  if (sample_rate_hz <= 0.0) throw std::invalid_argument("Nco: sample rate must be > 0");
  tune(freq_hz);
}

void Nco::tune(double freq_hz) {
  if (std::abs(freq_hz) > sample_rate_hz_ / 2.0)
    throw std::invalid_argument("Nco: frequency exceeds Nyquist");
  freq_hz_ = freq_hz;
  step_ = kTwoPi * freq_hz / sample_rate_hz_;
  step_phasor_ = unit_phasor(step_);
  resync();  // a retune is a natural (and free-ish) drift reset point
}

void Nco::set_frequency(double freq_hz) {
  if (freq_hz == freq_hz_) return;  // repeated symbols retune for free
  tune(freq_hz);
}

void Nco::set_phase(double rad) {
  phase_ = rad;
  resync();
}

void Nco::resync() {
  phasor_ = unit_phasor(phase_);
  until_resync_ = kResyncInterval;
}

Cvec Nco::generate(std::size_t n) {
  Cvec out(n);  // mmx-analyze: allow(hot-path-alloc) -- allocating convenience wrapper; the zero-alloc fast path is generate_into
  generate_into(out);
  return out;
}

void Nco::generate_into(std::span<Complex> out) {
  // Batched form of repeated next(): state lives in locals for runs that
  // stop exactly at the resync boundaries, so the inner loop carries no
  // out-of-line call and the compiler keeps everything in registers.
  // The per-sample operation sequence is identical to next(), so the
  // output is bit-identical to calling next() out.size() times.
  std::size_t i = 0;
  const std::size_t n = out.size();
  while (i < n) {
    const std::size_t run = n - i < until_resync_ ? n - i : until_resync_;
    Complex ph = phasor_;
    double phase = phase_;
    const Complex stp = step_phasor_;
    const double step = step_;
    for (const std::size_t end = i + run; i < end; ++i) {
      out[i] = ph;
      ph = cmul(ph, stp);
      phase = wrap_step(phase + step);
    }
    phasor_ = ph;
    phase_ = phase;
    until_resync_ -= run;
    if (until_resync_ == 0) resync();
  }
}

void Nco::modulate_into(std::span<Complex> out, Complex gain) {
  // Same batched structure as generate_into, with each sample scaled by
  // `gain` — the shape the OTAM synthesizer runs once per symbol.
  std::size_t i = 0;
  const std::size_t n = out.size();
  while (i < n) {
    const std::size_t run = n - i < until_resync_ ? n - i : until_resync_;
    Complex ph = phasor_;
    double phase = phase_;
    const Complex stp = step_phasor_;
    const double step = step_;
    for (const std::size_t end = i + run; i < end; ++i) {
      out[i] = cmul(gain, ph);
      ph = cmul(ph, stp);
      phase = wrap_step(phase + step);
    }
    phasor_ = ph;
    phase_ = phase;
    until_resync_ -= run;
    if (until_resync_ == 0) resync();
  }
}

Cvec tone(double sample_rate_hz, double freq_hz, std::size_t n, double phase0) {
  Nco nco(sample_rate_hz, freq_hz);
  nco.set_phase(phase0);
  return nco.generate(n);
}

Cvec chirp(double sample_rate_hz, double f0_hz, double f1_hz, std::size_t n) {
  if (sample_rate_hz <= 0.0) throw std::invalid_argument("chirp: sample rate must be > 0");
  Cvec out(n);
  if (n == 0) return out;
  // Double rotator: `rot` carries e^{j phase_i}, `inc` carries the
  // per-sample advance e^{j w_i}; the sweep multiplies `inc` by the fixed
  // e^{j dw}. Phase and instantaneous step are still tracked additively,
  // and both phasors resync from them on the same cadence as Nco.
  constexpr std::size_t kResyncInterval = 256;
  const double df = (f1_hz - f0_hz) / static_cast<double>(n);
  const double dw = kTwoPi * df / sample_rate_hz;
  double phase = 0.0;
  Complex rot{1.0, 0.0};
  Complex inc = unit_phasor(kTwoPi * f0_hz / sample_rate_hz);
  const Complex dinc = unit_phasor(dw);
  std::size_t until_resync = kResyncInterval;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = rot;
    rot = cmul(rot, inc);
    inc = cmul(inc, dinc);
    // The tracked phase recomputes the instantaneous frequency in closed
    // form each sample (exactly like the trig reference, so the two stay
    // within a rounding random walk); accumulating the step incrementally
    // instead would drift quadratically in n.
    const double f = f0_hz + df * static_cast<double>(i);
    const double w = kTwoPi * f / sample_rate_hz;
    phase = (std::abs(w) <= kPi) ? wrap_step(phase + w) : wrap_angle(phase + w);
    if (--until_resync == 0) {
      rot = unit_phasor(phase);
      inc = unit_phasor(kTwoPi * (f0_hz + df * static_cast<double>(i + 1)) / sample_rate_hz);
      until_resync = kResyncInterval;
    }
  }
  return out;
}

}  // namespace mmx::dsp
