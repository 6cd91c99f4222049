#include "mmx/core/node.hpp"

#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"
#include "mmx/mac/allocator.hpp"
#include "mmx/phy/preamble.hpp"

namespace mmx::core {

Node::Node(std::uint16_t id, channel::Pose pose, NodeSpec spec)
    : id_(id),
      pose_(pose),
      spec_(spec),
      vco_(spec.vco),
      spdt_(spec.spdt),
      beams_(spec.beams),
      budget_(rf::mmx_node_budget()) {
  // The synthesizer applies the switch's through-gain internally, so the
  // pre-switch amplitude is the VCO's output power.
  default_tx_amplitude_ = std::sqrt(dbm_to_watt(spec_.vco.output_power_dbm));
}

void Node::configure(const mac::ChannelGrant& grant) {
  if (grant.node_id != id_) throw std::invalid_argument("Node: grant is for another node");
  const double f0 = vco_.frequency_hz(grant.vco_tune_v0);
  const double f1 = vco_.frequency_hz(grant.vco_tune_v1);

  phy::PhyConfig cfg;
  // The AP sized the channel with the same efficiency.
  cfg.symbol_rate_hz =
      std::min(grant.channel.bandwidth_hz * mac::kSpectralEfficiency, spdt_.max_bit_rate());
  cfg.samples_per_symbol = spec_.samples_per_symbol;
  cfg.guard_frac = spec_.guard_frac;
  cfg.fsk_freq0_hz = f0 - grant.channel.center_hz;
  cfg.fsk_freq1_hz = f1 - grant.channel.center_hz;
  cfg.validate();
  spdt_.check_symbol_rate(cfg.symbol_rate_hz);

  grant_ = grant;
  phy_cfg_ = cfg;
}

const mac::ChannelGrant& Node::grant() const {
  if (!grant_) throw std::logic_error("Node: not configured");
  return *grant_;
}

const phy::PhyConfig& Node::phy_config() const {
  if (!grant_) throw std::logic_error("Node: not configured");
  return phy_cfg_;
}

double Node::bit_rate_bps() const { return phy_config().symbol_rate_hz; }

dsp::Cvec Node::transmit_frame(const phy::Frame& frame, const phy::OtamChannel& ch) const {
  return transmit_bits(phy::encode_frame(frame, phy::default_preamble()), ch);
}

dsp::Cvec Node::transmit_bits(const phy::Bits& bits, const phy::OtamChannel& ch) const {
  return phy::otam_synthesize(bits, phy_config(), ch, spdt_, default_tx_amplitude_);
}

double Node::energy_per_bit_j() const { return budget_.energy_per_bit_j(bit_rate_bps()); }

}  // namespace mmx::core
