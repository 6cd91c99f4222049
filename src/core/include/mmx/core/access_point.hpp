// mmx::AccessPoint — the receive side (paper §5.2, §8.2).
//
// LNA -> coupled-line filter -> sub-harmonic mixer -> baseband capture,
// and the joint ASK-FSK receiver that turns a noisy capture back into
// frames. The MAC side (the FDM/SDM init protocol) lives in
// sim::NetworkSimulator, which core::Network runs on.
#pragma once

#include <optional>
#include <vector>

#include "mmx/channel/beam_channel.hpp"
#include "mmx/phy/config.hpp"
#include "mmx/phy/frame.hpp"
#include "mmx/phy/coding.hpp"
#include "mmx/phy/joint.hpp"
#include "mmx/rf/chain.hpp"

namespace mmx::core {

struct ApSpec {
  rf::ReceiverChainSpec receiver{};
};

/// Result of receiving one capture.
struct Reception {
  std::optional<phy::Frame> frame;       ///< decoded frame (CRC-clean) or nothing
  double sync_correlation = 0.0;         ///< preamble correlator peak
  phy::DecisionMode mode = phy::DecisionMode::kJoint;
  bool inverted = false;                 ///< OTAM polarity was flipped
};

class AccessPoint {
 public:
  explicit AccessPoint(channel::Pose pose, ApSpec spec = {});

  /// PHY: receive a noisy capture with the given node PHY parameters.
  /// `profile` must match the transmitter's coding profile.
  Reception receive(std::span<const dsp::Complex> capture, const phy::PhyConfig& cfg,
                    phy::CodingProfile profile = phy::CodingProfile::kNone) const;

  /// Receive every frame in a long capture: repeatedly sync, decode, and
  /// continue after each frame (or skip ahead on a false sync). This is
  /// the AP's steady-state loop over a continuous stream.
  std::vector<Reception> receive_stream(std::span<const dsp::Complex> capture,
                                        const phy::PhyConfig& cfg,
                                        phy::CodingProfile profile =
                                            phy::CodingProfile::kNone) const;

  /// Channelized receive: the capture spans a wide chunk of the band at
  /// `wideband_rate_hz` (the USRP's view); the node of interest sits at
  /// `channel_offset_hz` from the capture centre. The AP shifts the
  /// channel to baseband, decimates to the node's PHY rate (the ratio
  /// must be an integer) and decodes. This is how one SDR front end
  /// serves every FDM node at once (§9.5).
  Reception receive_channel(std::span<const dsp::Complex> wideband, double wideband_rate_hz,
                            double channel_offset_hz, const phy::PhyConfig& cfg) const;

  double noise_floor_dbm() const { return chain_.noise_floor_dbm(); }
  const rf::ReceiverChain& chain() const { return chain_; }
  const channel::Pose& pose() const { return pose_; }

 private:
  channel::Pose pose_;
  rf::ReceiverChain chain_;
};

}  // namespace mmx::core
