// Phased-array beam-search baseline (the §2/§6 strawman mmX eliminates).
//
// A conventional mmWave node steers an N-element phased array through a
// codebook of beams, probing each and waiting for AP feedback, then
// transmits on the winner. It finds a sharper beam than mmX's fixed pair
// — but pays a search latency and feedback energy on every channel
// change, and carries power-hungry phase shifters (paper §6: "a phased
// array with even a small number of antennas consumes more than a watt
// and costs a few hundred dollars").
#pragma once

#include <span>
#include <vector>

#include "mmx/antenna/array.hpp"
#include "mmx/channel/beam_channel.hpp"
#include "mmx/sim/link_budget.hpp"

namespace mmx::baseline {

struct BeamSearchSpec {
  std::size_t num_elements = 8;
  std::size_t codebook_size = 16;      ///< beams spanning +/- 60 degrees
  double probe_time_s = 50e-6;         ///< per-beam probe + AP feedback
  double probe_energy_j = 100e-6;      ///< per-probe TX + RX-feedback energy
  double phased_array_power_w = 1.2;   ///< 8 shifters + LNAs (paper §6)
  double freq_hz = 24.125e9;
};

struct SearchOutcome {
  std::size_t best_beam = 0;
  std::size_t probes = 0;
  double search_time_s = 0.0;
  double search_energy_j = 0.0;
  double best_gain_db = 0.0;       ///< |h| of the winning beam [dB]
  double best_snr_db = 0.0;
};

class BeamSearchNode {
 public:
  explicit BeamSearchNode(BeamSearchSpec spec = {});

  /// Exhaustively probe every codebook beam through the ray-traced
  /// channel (`paths`: the traced path set node.position -> ap.position)
  /// and pick the strongest at the AP.
  SearchOutcome exhaustive_search(std::span<const channel::Path> paths, const channel::Pose& node,
                                  const channel::Pose& ap, const antenna::Element& ap_antenna,
                                  const sim::LinkBudget& budget) const;

  /// Steering angle of codebook entry `i`.
  double beam_angle(std::size_t i) const;

  std::size_t codebook_size() const { return spec_.codebook_size; }
  const BeamSearchSpec& spec() const { return spec_; }

  /// Channel gain of one specific beam (used to model stale-beam loss
  /// after movement without a re-search).
  std::complex<double> beam_gain(std::size_t beam, std::span<const channel::Path> paths,
                                 const channel::Pose& node, const channel::Pose& ap,
                                 const antenna::Element& ap_antenna) const;

 private:
  antenna::LinearArray make_beam(double angle) const;

  BeamSearchSpec spec_;
};

}  // namespace mmx::baseline
