// Propagation-loss primitives for 24 GHz indoor links.
#pragma once

#include <complex>

namespace mmx::channel {

/// Free-space (Friis) power loss [dB] — positive number.
double free_space_loss_db(double distance_m, double freq_hz);

/// Atmospheric (oxygen + water vapour) absorption [dB] over a path. At
/// 24 GHz this is ~0.2 dB/km — negligible indoors but modelled so range
/// sweeps degrade honestly at scale.
double atmospheric_loss_db(double distance_m, double freq_hz);

/// The distance-only part of path_loss_db [dB]: free space + atmospheric.
double spreading_loss_db(double distance_m, double freq_hz);

/// Total propagation loss of a path [dB]: spreading_loss_db +
/// `extra_db` (reflections, blockers).
double path_loss_db(double distance_m, double freq_hz, double extra_db = 0.0);

/// Unit phasor exp(-j k d) of a path's electrical length.
std::complex<double> path_phasor(double distance_m, double freq_hz);

/// Complex amplitude gain of a path: magnitude from `path_loss_db`, phase
/// from the electrical length (-k * d).
std::complex<double> path_gain(double distance_m, double freq_hz, double extra_db = 0.0);

/// path_gain from its distance terms, computed once per path geometry:
/// with spreading_db = spreading_loss_db(d, f) and phasor =
/// path_phasor(d, f) it returns path_gain(d, f, extra_db) bit for bit.
/// A blocker-only reprice (sim::LinkCache) changes only `extra_db`.
std::complex<double> path_gain_from(double spreading_db, std::complex<double> phasor,
                                    double extra_db);

}  // namespace mmx::channel
