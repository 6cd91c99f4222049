#include "mmx/sim/link_budget.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"
#include "mmx/phy/ber.hpp"

namespace mmx::sim {

LinkBudget::LinkBudget(LinkBudgetSpec spec)
    : spec_(spec),
      noise_floor_dbm_(rf::ReceiverChain(spec.receiver).noise_floor_dbm()),
      noise_w_(dbm_to_watt(noise_floor_dbm_)) {
  if (spec.implementation_loss_db < 0.0)
    throw std::invalid_argument("LinkBudget: implementation loss must be >= 0");
}

double LinkBudget::rx_power_dbm(std::complex<double> h) const {
  const double mag = std::abs(h);
  if (mag <= 0.0) return -300.0;  // dead link
  return spec_.tx_power_dbm + amp_to_db(mag) - spec_.implementation_loss_db;
}

double LinkBudget::snr_db(std::complex<double> h) const {
  return rx_power_dbm(h) - noise_floor_dbm_;
}

OtamLink LinkBudget::evaluate_otam(const channel::BeamGains& gains, const rf::SpdtSwitch& spdt,
                                   std::size_t n_avg) const {
  // Effective levels include the SPDT through/leak mixing.
  const std::complex<double> eff1 =
      spdt.through_gain() * gains.h1 + spdt.leak_gain() * gains.h0;
  const std::complex<double> eff0 =
      spdt.through_gain() * gains.h0 + spdt.leak_gain() * gains.h1;

  OtamLink link{};
  link.rx1_dbm = rx_power_dbm(eff1);
  link.rx0_dbm = rx_power_dbm(eff0);
  link.snr_db = std::max(link.rx1_dbm, link.rx0_dbm) - noise_floor_dbm_;
  link.contrast_db = std::abs(link.rx1_dbm - link.rx0_dbm);

  // Convert to amplitude units normalized to 1 W reference for the BER
  // model: amplitudes sqrt(P), noise power from the floor.
  const double a1 = std::sqrt(dbm_to_watt(link.rx1_dbm));
  const double a0 = std::sqrt(dbm_to_watt(link.rx0_dbm));
  link.ask_ber = phy::ber_two_level(a1, a0, noise_w_, n_avg);
  // FSK discriminates on the stronger tone's energy; per-symbol averaging
  // gives the same sqrt(n) benefit.
  const double snr_lin = db_to_lin(link.snr_db) * static_cast<double>(n_avg);
  link.fsk_ber = phy::ber_bfsk_noncoherent(snr_lin);
  link.joint_ber = phy::ber_joint(std::min(0.5, link.ask_ber), std::min(0.5, link.fsk_ber));
  return link;
}

OtamLink LinkBudget::evaluate_fixed_beam(const channel::BeamGains& gains, double ask_floor,
                                         std::size_t n_avg) const {
  if (ask_floor < 0.0 || ask_floor >= 1.0)
    throw std::invalid_argument("LinkBudget: ask_floor must be in [0, 1)");
  OtamLink link{};
  link.rx1_dbm = rx_power_dbm(gains.h1);
  link.rx0_dbm = rx_power_dbm(gains.h1 * ask_floor);
  link.snr_db = link.rx1_dbm - noise_floor_dbm_;
  link.contrast_db = std::abs(link.rx1_dbm - link.rx0_dbm);
  const double a1 = std::sqrt(dbm_to_watt(link.rx1_dbm));
  const double a0 = std::sqrt(dbm_to_watt(link.rx0_dbm));
  link.ask_ber = phy::ber_two_level(a1, a0, noise_w_, n_avg);
  // The baseline node modulates at the board: ASK only, no FSK fallback.
  link.fsk_ber = 0.5;
  link.joint_ber = std::min(0.5, link.ask_ber);
  return link;
}

}  // namespace mmx::sim
