#include "mmx/sim/link_budget.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "mmx/common/units.hpp"
#include "mmx/phy/ber.hpp"
#include "mmx/rf/chain.hpp"
#include "mmx/rf/spdt.hpp"

namespace mmx::sim {
namespace {

TEST(LinkBudget, RxPowerArithmetic) {
  LinkBudget lb;
  // |h| = -60 dB, tx 10 dBm, impl loss 18 -> rx = -68 dBm.
  const double rx = lb.rx_power_dbm(std::complex<double>{1e-3, 0.0});
  EXPECT_NEAR(rx, 10.0 - 60.0 - 18.0, 1e-9);
}

TEST(LinkBudget, DeadLinkClamped) {
  LinkBudget lb;
  EXPECT_LE(lb.rx_power_dbm({0.0, 0.0}), -250.0);
}

TEST(LinkBudget, CalibrationPointNear1m) {
  // Sanity for the single calibration constant: a 1 m LoS boresight link
  // (antenna gains ~9 + 5 dBi, FSPL 60 dB) should land in the mid-30s of
  // SNR, matching the paper's "up to 35 dB" (§6.1) and Fig. 12's ceiling.
  LinkBudget lb;
  const double h_db = 9.0 + 5.0 - friis_path_loss_db(1.0, 24.125e9);
  const double snr = lb.snr_db(std::polar(db_to_amp(h_db), 0.0));
  EXPECT_GT(snr, 30.0);
  EXPECT_LT(snr, 45.0);
}

TEST(LinkBudget, RangeClaimAt18m) {
  // Fig. 12: facing node at 18 m still gets >= 15 dB.
  LinkBudget lb;
  const double h_db = 9.0 + 5.0 - friis_path_loss_db(18.0, 24.125e9);
  const double snr = lb.snr_db(std::polar(db_to_amp(h_db), 0.0));
  EXPECT_GT(snr, 13.0);
}

TEST(LinkBudget, OtamEvaluation) {
  LinkBudget lb;
  rf::SpdtSwitch sw;
  channel::BeamGains g;
  g.h1 = {1e-3, 0.0};   // strong beam
  g.h0 = {2.5e-4, 0.0}; // 12 dB weaker
  const OtamLink link = lb.evaluate_otam(g, sw);
  EXPECT_GT(link.rx1_dbm, link.rx0_dbm);
  EXPECT_NEAR(link.contrast_db, 12.0, 0.5);
  EXPECT_LT(link.joint_ber, 1e-9);  // plenty of margin at these levels
  EXPECT_LE(link.joint_ber, link.ask_ber);
  EXPECT_LE(link.joint_ber, link.fsk_ber);
}

TEST(LinkBudget, EqualLevelsKillAskButNotFsk) {
  LinkBudget lb;
  rf::SpdtSwitch sw;
  channel::BeamGains g;
  g.h1 = {1e-3, 0.0};
  g.h0 = {1e-3, 0.0};
  const OtamLink link = lb.evaluate_otam(g, sw);
  EXPECT_GT(link.ask_ber, 0.4);  // coin flip
  EXPECT_LT(link.fsk_ber, 1e-9);
  EXPECT_LT(link.joint_ber, 1e-9);  // §6.3: joint saves the link
}

TEST(LinkBudget, FixedBeamBaselineDiesInBeamNull) {
  LinkBudget lb;
  rf::SpdtSwitch sw;
  channel::BeamGains g;
  g.h1 = {1e-6, 0.0};  // Beam 1 nulled (AP at 30 degrees, or blocked LoS)
  g.h0 = {1e-3, 0.0};
  const OtamLink base = lb.evaluate_fixed_beam(g);
  const OtamLink otam = lb.evaluate_otam(g, sw);
  EXPECT_LT(base.snr_db, 0.0);
  EXPECT_GT(otam.snr_db, 20.0);
  EXPECT_GT(base.joint_ber, 0.01);
  EXPECT_LT(otam.joint_ber, 1e-9);
}

TEST(LinkBudget, AveragingImprovesBer) {
  LinkBudget lb;
  rf::SpdtSwitch sw;
  channel::BeamGains g;
  g.h1 = {4e-5, 0.0};
  g.h0 = {1e-5, 0.0};
  const OtamLink l1 = lb.evaluate_otam(g, sw, 1);
  const OtamLink l16 = lb.evaluate_otam(g, sw, 16);
  EXPECT_LT(l16.ask_ber, l1.ask_ber);
}

TEST(LinkBudget, EvaluationsMatchFormulaForNonDefaultReceiver) {
  // A receiver unlike the default, so a noise floor taken from the
  // default spec (or from anywhere but this spec) changes every field.
  LinkBudgetSpec spec;
  spec.tx_power_dbm = 7.0;
  spec.implementation_loss_db = 12.0;
  spec.receiver.noise_bandwidth_hz = 2e6;
  spec.receiver.baseband_nf_db = 5.0;
  const LinkBudget lb(spec);
  const double floor_dbm = rf::ReceiverChain(spec.receiver).noise_floor_dbm();
  ASSERT_NE(floor_dbm, rf::ReceiverChain().noise_floor_dbm());
  EXPECT_EQ(lb.noise_floor_dbm(), floor_dbm);

  const auto rx_dbm = [&](std::complex<double> h) {
    const double mag = std::abs(h);
    return mag <= 0.0 ? -300.0 : spec.tx_power_dbm + amp_to_db(mag) - spec.implementation_loss_db;
  };
  const rf::SpdtSwitch sw;
  const std::complex<double> gains[][2] = {
      {{4e-6, 1e-6}, {1e-6, -3e-7}}, {{2e-5, 0.0}, {1.5e-5, 2e-6}}, {{0.0, 0.0}, {3e-6, 0.0}}};
  for (const auto& [h1, h0] : gains) {
    channel::BeamGains g;
    g.h1 = h1;
    g.h0 = h0;
    for (const std::size_t n : {std::size_t{1}, std::size_t{8}}) {
      // evaluate_otam: SPDT mixing, then both levels over the floor.
      const double rx1 = rx_dbm(sw.through_gain() * h1 + sw.leak_gain() * h0);
      const double rx0 = rx_dbm(sw.through_gain() * h0 + sw.leak_gain() * h1);
      const double snr = std::max(rx1, rx0) - floor_dbm;
      const double ask = phy::ber_two_level(std::sqrt(dbm_to_watt(rx1)),
                                            std::sqrt(dbm_to_watt(rx0)), dbm_to_watt(floor_dbm), n);
      const double fsk = phy::ber_bfsk_noncoherent(db_to_lin(snr) * static_cast<double>(n));
      const OtamLink otam = lb.evaluate_otam(g, sw, n);
      EXPECT_EQ(otam.rx1_dbm, rx1);
      EXPECT_EQ(otam.rx0_dbm, rx0);
      EXPECT_EQ(otam.snr_db, snr);
      EXPECT_EQ(otam.contrast_db, std::abs(rx1 - rx0));
      EXPECT_EQ(otam.ask_ber, ask);
      EXPECT_EQ(otam.fsk_ber, fsk);
      EXPECT_EQ(otam.joint_ber, phy::ber_joint(std::min(0.5, ask), std::min(0.5, fsk)));
      EXPECT_EQ(lb.snr_db(h1), rx_dbm(h1) - floor_dbm);

      // evaluate_fixed_beam: Beam 1 only, OOK levels {h1, floor}.
      const double f1 = rx_dbm(h1);
      const double f0 = rx_dbm(h1 * 0.1);
      const double fask = phy::ber_two_level(std::sqrt(dbm_to_watt(f1)),
                                             std::sqrt(dbm_to_watt(f0)), dbm_to_watt(floor_dbm), n);
      const OtamLink fixed = lb.evaluate_fixed_beam(g, 0.1, n);
      EXPECT_EQ(fixed.rx1_dbm, f1);
      EXPECT_EQ(fixed.rx0_dbm, f0);
      EXPECT_EQ(fixed.snr_db, f1 - floor_dbm);
      EXPECT_EQ(fixed.contrast_db, std::abs(f1 - f0));
      EXPECT_EQ(fixed.ask_ber, fask);
      EXPECT_EQ(fixed.fsk_ber, 0.5);
      EXPECT_EQ(fixed.joint_ber, std::min(0.5, fask));
    }
  }
}

TEST(LinkBudget, BadSpecThrows) {
  LinkBudgetSpec s;
  s.implementation_loss_db = -1.0;
  EXPECT_THROW(LinkBudget{s}, std::invalid_argument);
  LinkBudget lb;
  channel::BeamGains g;
  EXPECT_THROW(lb.evaluate_fixed_beam(g, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace mmx::sim
