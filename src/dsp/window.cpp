#include "mmx/dsp/window.hpp"

#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"

namespace mmx::dsp {

Rvec make_window(WindowKind kind, std::size_t n) {
  Rvec w(n, 1.0);
  if (n <= 1) return w;
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / denom;  // 0..1
    switch (kind) {
      case WindowKind::kRect:
        w[i] = 1.0;
        break;
      case WindowKind::kHann:
        w[i] = 0.5 - 0.5 * std::cos(kTwoPi * t);  // mmx-analyze: allow(trig-per-sample) -- window design: one-time per-tap table construction
        break;
      case WindowKind::kHamming:
        w[i] = 0.54 - 0.46 * std::cos(kTwoPi * t);  // mmx-analyze: allow(trig-per-sample) -- window design: one-time per-tap table construction
        break;
      case WindowKind::kBlackman:
        w[i] = 0.42 - 0.5 * std::cos(kTwoPi * t) + 0.08 * std::cos(2.0 * kTwoPi * t);  // mmx-analyze: allow(trig-per-sample) -- window design: one-time per-tap table construction
        break;
    }
  }
  return w;
}

void apply_window(std::span<Complex> x, std::span<const double> w) {
  if (x.size() != w.size()) throw std::invalid_argument("apply_window: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) x[i] *= w[i];
}

}  // namespace mmx::dsp
