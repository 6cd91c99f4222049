// mmx::Node — the low-power IoT device (paper §5.1, §8.1).
//
// A node is a VCO, an SPDT switch, two fixed orthogonal antenna arrays
// and a controller. It holds a channel grant from the AP, derives its
// PHY parameters (symbol rate from the channel width, FSK tones from the
// granted VCO tuning voltages) and transmits frames by OTAM.
#pragma once

#include <cstdint>
#include <optional>

#include "mmx/antenna/mmx_beams.hpp"
#include "mmx/channel/beam_channel.hpp"
#include "mmx/mac/side_channel.hpp"
#include "mmx/phy/config.hpp"
#include "mmx/phy/frame.hpp"
#include "mmx/phy/otam.hpp"
#include "mmx/rf/budget.hpp"
#include "mmx/rf/spdt.hpp"
#include "mmx/rf/vco.hpp"

namespace mmx::core {

struct NodeSpec {
  rf::VcoSpec vco{};
  rf::SpdtSpec spdt{};
  antenna::BeamPairSpec beams{};
  std::size_t samples_per_symbol = 16;
  double guard_frac = 0.15;
};

class Node {
 public:
  explicit Node(std::uint16_t id, channel::Pose pose, NodeSpec spec = {});

  /// Apply a grant from the AP (side-channel init). Derives and stores
  /// the PHY configuration. Throws if the grant is infeasible (symbol
  /// rate above the switch limit, tones outside the VCO range).
  void configure(const mac::ChannelGrant& grant);

  bool configured() const { return grant_.has_value(); }
  const mac::ChannelGrant& grant() const;

  /// PHY parameters in the node's channel (baseband-relative tones).
  const phy::PhyConfig& phy_config() const;

  /// Bit rate the node signals at [bit/s].
  double bit_rate_bps() const;

  /// Encode + OTAM-transmit a frame through the given per-beam channel.
  /// Returns the complex baseband signal arriving at the AP (before
  /// noise), with the carrier at the VCO's output power.
  dsp::Cvec transmit_frame(const phy::Frame& frame, const phy::OtamChannel& ch) const;

  /// Raw bit transmission (no framing): coded frames, microbenchmarks.
  dsp::Cvec transmit_bits(const phy::Bits& bits, const phy::OtamChannel& ch) const;

  std::uint16_t id() const { return id_; }
  const channel::Pose& pose() const { return pose_; }

  const antenna::MmxBeamPair& beams() const { return beams_; }
  const rf::Vco& vco() const { return vco_; }
  const rf::SpdtSwitch& spdt() const { return spdt_; }

  /// Device power draw [W] and energy/bit at the current rate.
  double power_w() const { return budget_.total_power_w(); }
  double energy_per_bit_j() const;

 private:
  std::uint16_t id_;
  channel::Pose pose_;
  NodeSpec spec_;
  rf::Vco vco_;
  rf::SpdtSwitch spdt_;
  antenna::MmxBeamPair beams_;
  rf::Budget budget_;
  std::optional<mac::ChannelGrant> grant_;
  phy::PhyConfig phy_cfg_;
  double default_tx_amplitude_;
};

}  // namespace mmx::core
