// End-to-end complex channel gains per transmit beam.
//
// This is where OTAM's physics lives: for a node at a pose transmitting
// through Beam 0 or Beam 1 of its orthogonal pair, the multipath channel
// collapses to one complex gain per beam,
//     h_b = sum_paths  F_b(departure) * G_ap(arrival) * a_path,
// and the AP sees the carrier amplitude toggle between |h1| and |h0| —
// ASK "modulated by the channel" (paper §6.1).
#pragma once

#include <complex>
#include <span>

#include "mmx/antenna/element.hpp"
#include "mmx/antenna/mmx_beams.hpp"
#include "mmx/channel/path.hpp"

namespace mmx::channel {

/// A position + facing direction in the 2-D world frame.
struct Pose {
  Vec2 position;
  double orientation_rad = 0.0;  ///< boresight direction, CCW from +x

  bool operator==(const Pose&) const = default;
};

struct BeamGains {
  std::complex<double> h0;  ///< channel gain through Beam 0
  std::complex<double> h1;  ///< channel gain through Beam 1
  int paths_used = 0;

  /// OTAM amplitude contrast |log-ratio| between the two beams [dB].
  double contrast_db() const;
};

/// Per-beam gains between a node (with the mmX beam pair) and the AP
/// (with a single element pattern), accumulated over `paths`: the traced
/// path set node.position -> ap.position (RoomPlan::trace_into, or one
/// window of a batch trace). Paths combine coherently (instantaneous
/// channel, includes small-scale fading).
BeamGains compute_beam_gains(std::span<const Path> paths, const Pose& node,
                             const antenna::MmxBeamPair& beams, const Pose& ap,
                             const antenna::Element& ap_antenna, double freq_hz);

/// Fading-averaged variant: |h_b| is the RMS over path phases (incoherent
/// power sum), the quantity a time-averaged SNR measurement sees when
/// people moving through the room scramble the multipath phases (the
/// paper's §9.2 procedure). Returned gains are real-valued amplitudes.
BeamGains compute_beam_gains_avg(std::span<const Path> paths, const Pose& node,
                                 const antenna::MmxBeamPair& beams, const Pose& ap,
                                 const antenna::Element& ap_antenna, double freq_hz);

/// Channel gain for an arbitrary single transmit pattern over the traced
/// path set tx.position -> rx.position (used by the beam-search baseline
/// with steered phased-array beams).
std::complex<double> compute_pattern_gain(std::span<const Path> paths, const Pose& tx,
                                          const antenna::LinearArray& tx_array, const Pose& rx,
                                          const antenna::Element& rx_antenna, double freq_hz);

}  // namespace mmx::channel
