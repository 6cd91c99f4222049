// Tests for the Time-Modulated Array (paper §7b, Eqs. 1-4).
#include "mmx/antenna/tma.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mmx/common/units.hpp"
#include "mmx/dsp/fft.hpp"
#include "mmx/dsp/goertzel.hpp"

namespace mmx::antenna {
namespace {

TEST(Tma, DcCoefficientIsDutyCycle) {
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.1, 0.4);
  for (std::size_t e = 0; e < tma.spec().num_elements; ++e) {
    EXPECT_NEAR(std::abs(tma.coefficient(0, e)), 0.4, 1e-12);
  }
}

TEST(Tma, CoefficientMatchesNumericalIntegration) {
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.13, 0.37);
  const int steps = 200000;
  for (int m : {1, 2, 3, -1}) {
    for (std::size_t e : {std::size_t{0}, std::size_t{3}}) {
      const SwitchWindow& w = tma.windows()[e];
      std::complex<double> acc{0.0, 0.0};
      for (int i = 0; i < steps; ++i) {
        const double u = (static_cast<double>(i) + 0.5) / steps;
        const double end = w.on + w.tau;
        const bool on = (end <= 1.0) ? (u >= w.on && u < end) : (u >= w.on || u < end - 1.0);
        if (!on) continue;
        const double ph = -kTwoPi * m * u;
        acc += std::complex<double>{std::cos(ph), std::sin(ph)};
      }
      acc /= static_cast<double>(steps);
      EXPECT_NEAR(std::abs(acc - tma.coefficient(m, e)), 0.0, 1e-4);
    }
  }
}

TEST(Tma, HarmonicZeroSteersBroadside) {
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.125, 0.45);
  EXPECT_NEAR(tma.steered_angle(0), 0.0, 1e-12);
  // Harmonic 0 pattern peaks at broadside.
  double best_t = 0.0;
  double best = 0.0;
  for (double t = -kPi / 2.0; t <= kPi / 2.0; t += 0.002) {
    const double p = tma.harmonic_power(0, t);
    if (p > best) {
      best = p;
      best_t = t;
    }
  }
  EXPECT_NEAR(best_t, 0.0, 0.02);
}

TEST(Tma, ProgressiveSteeringFormula) {
  // sin(theta_m) = m * delta * lambda / d with d = 0.5 lambda, delta=0.125
  // -> sin(theta_1) = 0.25.
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.125, 0.45);
  EXPECT_NEAR(std::sin(tma.steered_angle(1)), 0.25, 1e-12);
  EXPECT_NEAR(std::sin(tma.steered_angle(2)), 0.5, 1e-12);
  EXPECT_NEAR(std::sin(tma.steered_angle(-1)), -0.25, 1e-12);
}

TEST(Tma, HarmonicPatternPeaksAtSteeredAngle) {
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.125, 0.45);
  for (int m : {1, 2}) {
    const double target = tma.steered_angle(m);
    double best_t = -kPi / 2.0;
    double best = 0.0;
    for (double t = -kPi / 2.0; t <= kPi / 2.0; t += 0.001) {
      const double p = tma.harmonic_power(m, t);
      if (p > best) {
        best = p;
        best_t = t;
      }
    }
    EXPECT_NEAR(best_t, target, 0.03) << "harmonic " << m;
  }
}

TEST(Tma, DirectionsHashToDistinctHarmonics) {
  // The paper's Fig. 6 claim: signals on the same channel from different
  // directions land on different frequency offsets with strong isolation.
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.125, 0.45);
  const std::vector<double> dirs{tma.steered_angle(0), tma.steered_angle(1),
                                 tma.steered_angle(2)};
  const std::vector<int> harm{0, 1, 2};
  EXPECT_GT(tma.demux_sir_db(dirs, harm), 15.0);
}

TEST(Tma, CloseBearingsDegradeDemuxSir) {
  // Two sources steered apart (harmonics 0 and 2 at their own steered
  // angles) separate cleanly; two sources 0.03 rad apart on neighbouring
  // harmonics 0 and 1 leak into each other and cost >= 10 dB of SIR.
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.125, 0.45);
  const std::vector<double> apart{tma.steered_angle(0), tma.steered_angle(2)};
  const std::vector<double> close{0.0, 0.03};
  EXPECT_GT(tma.demux_sir_db(apart, std::vector<int>{0, 2}),
            tma.demux_sir_db(close, std::vector<int>{0, 1}) + 10.0);
}

TEST(Tma, UnwantedCopies20To30DbDown) {
  // Paper §7b: "only one copy has significant amplitude and the rest are
  // negligible (20-30 dB weaker)". Check leakage of a steered source
  // into the neighbouring harmonics.
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.125, 0.45);
  const double theta1 = tma.steered_angle(1);
  const double wanted = tma.harmonic_power(1, theta1);
  for (int m : {0, 2, 3}) {
    const double leak = tma.harmonic_power(m, theta1);
    EXPECT_GT(lin_to_db(wanted / leak), 13.0) << "harmonic " << m;
  }
}

TEST(Tma, TimeDomainSimulationMatchesAnalyticHarmonics) {
  // Brute-force simulate a tone from the harmonic-1 steering direction,
  // FFT the output, and verify the energy sits at +1 * switch rate with
  // the analytic amplitude.
  TmaSpec spec;
  spec.num_elements = 8;
  spec.switch_rate_hz = 1e6;
  auto tma = TimeModulatedArray::progressive(spec, 0.125, 0.45);
  const double theta = tma.steered_angle(1);
  const double fs = 64e6;  // 64 samples per switching period
  const std::size_t n = 65536;
  const std::vector<double> dirs{theta};
  const dsp::Cvec y = tma.simulate(dirs, fs, n);
  // Compare measured harmonic amplitudes against |H_m(theta)|.
  for (int m : {0, 1, 2}) {
    const double f = static_cast<double>(m) * spec.switch_rate_hz;
    const double meas = std::sqrt(dsp::goertzel_power(y, f, fs));
    const double ana = std::abs(tma.harmonic_pattern(m, theta));
    EXPECT_NEAR(meas, ana, 0.02 + 0.02 * ana) << "harmonic " << m;
  }
}

TEST(Tma, SimulateSuperposition) {
  // Two sources simulate to the sum of their individual simulations.
  TmaSpec spec;
  spec.switch_rate_hz = 1e6;
  auto tma = TimeModulatedArray::progressive(spec, 0.125, 0.45);
  const std::vector<double> d1{0.2};
  const std::vector<double> d2{-0.4};
  const std::vector<double> both{0.2, -0.4};
  const dsp::Cvec y1 = tma.simulate(d1, 16e6, 1000);
  const dsp::Cvec y2 = tma.simulate(d2, 16e6, 1000);
  const dsp::Cvec y12 = tma.simulate(both, 16e6, 1000);
  for (std::size_t i = 0; i < y12.size(); ++i) {
    EXPECT_NEAR(std::abs(y12[i] - (y1[i] + y2[i])), 0.0, 1e-12);
  }
}

TEST(Tma, BadArgsThrow) {
  TmaSpec bad;
  bad.num_elements = 0;
  EXPECT_THROW(TimeModulatedArray::progressive(bad, 0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(TimeModulatedArray::progressive(TmaSpec{}, 1.5, 0.5), std::invalid_argument);
  EXPECT_THROW(TimeModulatedArray::progressive(TmaSpec{}, 0.1, 0.0), std::invalid_argument);
  EXPECT_THROW(TimeModulatedArray(TmaSpec{}, {}), std::invalid_argument);
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.125, 0.45);
  EXPECT_THROW(tma.coefficient(1, 99), std::out_of_range);
  EXPECT_THROW(tma.steered_angle(100), std::out_of_range);
  const std::vector<double> dirs{0.1};
  const std::vector<int> harms{0, 1};
  EXPECT_THROW(tma.demux_sir_db(dirs, harms), std::invalid_argument);
}

namespace taper {

/// Peak-to-max-sidelobe ratio [dB] of the harmonic-m pattern.
double sidelobe_ratio_db(const TimeModulatedArray& tma, int m) {
  const double peak_angle = tma.steered_angle(m);
  const double peak = tma.harmonic_power(m, peak_angle);
  // Scan outside the main lobe (one null-to-null width ~ 2*2/N in sin
  // space for an 8-element array: stay 0.3 rad clear of the peak).
  double worst = 0.0;
  for (double t = -mmx::kPi / 2.0; t <= mmx::kPi / 2.0; t += 0.002) {
    if (std::abs(t - peak_angle) < 0.3) continue;
    worst = std::max(worst, tma.harmonic_power(m, t));
  }
  return mmx::lin_to_db(peak / worst);
}

}  // namespace taper

TEST(TmaTapered, SteeringPreserved) {
  TmaSpec spec;
  std::vector<double> taus(spec.num_elements);
  for (std::size_t n = 0; n < taus.size(); ++n) {
    const double w = 0.5 - 0.5 * std::cos(mmx::kTwoPi * (n + 0.5) / taus.size());
    taus[n] = 0.15 + 0.35 * w;  // Hann-shaped duty cycles in [0.15, 0.5]
  }
  auto uni = TimeModulatedArray::progressive(spec, 0.125, 0.45);
  auto tap = TimeModulatedArray::tapered(spec, 0.125, taus);
  // Harmonic 1 peaks at the same steered angle for both designs.
  const double target = uni.steered_angle(1);
  EXPECT_NEAR(tap.steered_angle(1), target, 1e-12);
  double best_t = 0.0;
  double best = 0.0;
  for (double t = -mmx::kPi / 2.0; t <= mmx::kPi / 2.0; t += 0.001) {
    const double p = tap.harmonic_power(1, t);
    if (p > best) {
      best = p;
      best_t = t;
    }
  }
  EXPECT_NEAR(best_t, target, 0.03);
}

TEST(TmaTapered, SuppressesHarmonic1Sidelobes) {
  // The ref-[34] result: duty-cycle tapering buys sidelobe suppression on
  // the steered harmonic, at some aperture-efficiency cost.
  TmaSpec spec;
  std::vector<double> taus(spec.num_elements);
  for (std::size_t n = 0; n < taus.size(); ++n) {
    const double w = 0.5 - 0.5 * std::cos(mmx::kTwoPi * (n + 0.5) / taus.size());
    taus[n] = 0.15 + 0.35 * w;
  }
  auto uni = TimeModulatedArray::progressive(spec, 0.125, 0.45);
  auto tap = TimeModulatedArray::tapered(spec, 0.125, taus);
  const double uni_slr = taper::sidelobe_ratio_db(uni, 1);
  const double tap_slr = taper::sidelobe_ratio_db(tap, 1);
  EXPECT_GT(tap_slr, uni_slr + 4.0);
  EXPECT_GT(tap_slr, 17.0);
}

TEST(TmaTapered, Validation) {
  TmaSpec spec;
  EXPECT_THROW(TimeModulatedArray::tapered(spec, 0.125, {0.5, 0.5}), std::invalid_argument);
  std::vector<double> bad(spec.num_elements, 0.0);
  EXPECT_THROW(TimeModulatedArray::tapered(spec, 0.125, bad), std::invalid_argument);
  std::vector<double> ok(spec.num_elements, 0.4);
  EXPECT_THROW(TimeModulatedArray::tapered(spec, 1.2, ok), std::invalid_argument);
}

class TmaDutySweep : public ::testing::TestWithParam<double> {};

TEST_P(TmaDutySweep, CoefficientEnergyBounded) {
  // Parseval-ish sanity: sum over harmonics of |a_mn|^2 equals the duty
  // cycle (energy of the rectangular switching waveform).
  auto tma = TimeModulatedArray::progressive(TmaSpec{}, 0.1, GetParam());
  double acc = 0.0;
  for (int m = -200; m <= 200; ++m) acc += std::norm(tma.coefficient(m, 2));
  EXPECT_NEAR(acc, GetParam(), 0.01);
}

INSTANTIATE_TEST_SUITE_P(Duties, TmaDutySweep, ::testing::Values(0.2, 0.35, 0.5, 0.7));

}  // namespace
}  // namespace mmx::antenna
