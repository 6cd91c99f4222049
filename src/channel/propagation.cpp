#include "mmx/channel/propagation.hpp"

#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"

namespace mmx::channel {

double free_space_loss_db(double distance_m, double freq_hz) {
  return friis_path_loss_db(distance_m, freq_hz);
}

double atmospheric_loss_db(double distance_m, double freq_hz) {
  if (distance_m < 0.0) throw std::invalid_argument("atmospheric_loss_db: negative distance");
  // Crude specific-attenuation table (ITU-R P.676 shape): the 22.2 GHz
  // water-vapour line gives ~0.2 dB/km near 24 GHz; 60 GHz oxygen peak
  // ~15 dB/km.
  double db_per_km = 0.1;
  if (freq_hz > 20e9 && freq_hz < 30e9) db_per_km = 0.2;
  if (freq_hz >= 55e9 && freq_hz <= 65e9) db_per_km = 15.0;
  return db_per_km * distance_m / 1000.0;
}

double spreading_loss_db(double distance_m, double freq_hz) {
  return free_space_loss_db(distance_m, freq_hz) + atmospheric_loss_db(distance_m, freq_hz);
}

double path_loss_db(double distance_m, double freq_hz, double extra_db) {
  if (extra_db < 0.0) throw std::invalid_argument("path_loss_db: extra loss must be >= 0");
  return spreading_loss_db(distance_m, freq_hz) + extra_db;
}

std::complex<double> path_phasor(double distance_m, double freq_hz) {
  const double phase = -wavenumber(freq_hz) * distance_m;
  return {std::cos(phase), std::sin(phase)};
}

std::complex<double> path_gain(double distance_m, double freq_hz, double extra_db) {
  return path_gain_from(spreading_loss_db(distance_m, freq_hz), path_phasor(distance_m, freq_hz),
                        extra_db);
}

std::complex<double> path_gain_from(double spreading_db, std::complex<double> phasor,
                                    double extra_db) {
  if (extra_db < 0.0) throw std::invalid_argument("path_loss_db: extra loss must be >= 0");
  // The same sum path_loss_db forms: (free space + atmospheric) + extra.
  return db_to_amp(-(spreading_db + extra_db)) * phasor;
}

}  // namespace mmx::channel
