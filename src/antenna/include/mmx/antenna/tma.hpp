// Time-Modulated Array (TMA) for spatial-division multiplexing at the AP
// (paper §7b, Eqs. 1-4; He et al. [25]).
//
// Each element of an N-element array sits behind an RF switch driven by a
// periodic on/off sequence w_n(t) with period Tp. The combined output of
// a signal arriving from direction theta is copied onto harmonics of the
// switching rate, and with progressively delayed switch windows, each
// harmonic's array pattern is steered to a different direction — the TMA
// "hashes" arrival directions into frequency offsets, letting one RF
// chain separate simultaneous same-channel transmitters.
#pragma once

#include <complex>
#include <vector>

#include "mmx/dsp/types.hpp"

namespace mmx::antenna {

/// Rectangular on-window of one element, as fractions of the period Tp.
struct SwitchWindow {
  double on;   ///< turn-on time / Tp, in [0, 1)
  double tau;  ///< on-duration / Tp, in (0, 1]
};

struct TmaSpec {
  std::size_t num_elements = 8;
  double spacing_wavelengths = 0.5;
  double freq_hz = 24.125e9;          ///< carrier
  double switch_rate_hz = 50e6;       ///< 1/Tp: harmonic spacing
};

class TimeModulatedArray {
 public:
  /// Uniform progressive-delay design: element n switches on at
  /// n * delay_frac (mod 1) with duty cycle `tau`. This is the classic
  /// SDMA-TMA configuration: harmonic m is steered to
  /// sin(theta_m) = m * delay_frac * lambda / d.
  static TimeModulatedArray progressive(TmaSpec spec, double delay_frac, double tau = 0.5);

  /// Tapered progressive design (harmonic beamforming, Poli et al. — the
  /// paper's ref [34]): per-element duty cycles `taus` impose an
  /// amplitude taper sin(pi tau_n) on harmonic +/-1, suppressing its
  /// sidelobes below the uniform array's -13 dB. Each window is centred
  /// on the element's progressive delay so the steering phase is
  /// unchanged.
  static TimeModulatedArray tapered(TmaSpec spec, double delay_frac,
                                    const std::vector<double>& taus);

  TimeModulatedArray(TmaSpec spec, std::vector<SwitchWindow> windows);

  /// Fourier coefficient a_{mn} of element n's switching sequence at
  /// harmonic m (Eq. 3, evaluated analytically for rectangular windows).
  std::complex<double> coefficient(int harmonic, std::size_t element) const;

  /// Harmonic-m array response for a plane wave from azimuth theta
  /// (Eq. 4's inner sum): sum_n a_{mn} e^{j k n d sin theta}.
  std::complex<double> harmonic_pattern(int harmonic, double theta) const;

  /// Power |harmonic_pattern|^2 normalized by N^2 (1.0 = full coherent
  /// gain of the aperture).
  double harmonic_power(int harmonic, double theta) const;

  /// Direction the progressive design steers harmonic m toward; throws if
  /// it falls outside real angles.
  double steered_angle(int harmonic) const;

  /// Time-domain behaviour: for unit-amplitude tones arriving from
  /// `arrival_thetas` (all on the same RF channel), produce `n` combined
  /// output samples at `sample_rate_hz`. Used by tests to check that the
  /// analytic coefficients match a brute-force simulation, and by the
  /// SDM demux to generate realistic inputs.
  dsp::Cvec simulate(std::span<const double> arrival_thetas, double sample_rate_hz,
                     std::size_t n) const;

  /// Signal-to-interference ratio [dB] when K sources at
  /// `arrival_thetas` are demultiplexed by assigning source i to harmonic
  /// `harmonics[i]`: min over i of (wanted power / sum of other sources'
  /// leakage into i's harmonic).
  double demux_sir_db(std::span<const double> arrival_thetas,
                      std::span<const int> harmonics) const;

  const TmaSpec& spec() const { return spec_; }
  const std::vector<SwitchWindow>& windows() const { return windows_; }

 private:
  TmaSpec spec_;
  std::vector<SwitchWindow> windows_;
  double delay_frac_ = 0.0;  ///< set by `progressive`; 0 = unknown design
};

/// The AP's TMA design: the default 8-element lambda/2 array, progressive
/// delay 0.0625, duty cycle 0.45, so harmonic m steers to
/// sin(theta_m) = 0.125 m. sim::NetworkSimulator receives SDM groups
/// through it, and mac::default_sdm_slots() admits onto its steered
/// angles.
TimeModulatedArray ap_tma();

}  // namespace mmx::antenna
