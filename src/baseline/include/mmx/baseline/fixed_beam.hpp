// The "without OTAM" comparator of §9.2-§9.3: the same mmX hardware, but
// the node ASK-modulates at the board and transmits on Beam 1 only.
// Collected here as a convenience wrapper so experiment harnesses compare
// the two modes symmetrically.
#pragma once

#include "mmx/antenna/mmx_beams.hpp"
#include "mmx/channel/beam_channel.hpp"
#include "mmx/sim/link_budget.hpp"

namespace mmx::baseline {

struct ModeComparison {
  sim::OtamLink with_otam;
  sim::OtamLink without_otam;
};

/// Evaluate both modes for one node placement through the same channel
/// (instantaneous coherent multipath). `paths` is the traced path set
/// node.position -> ap.position.
ModeComparison compare_modes(std::span<const channel::Path> paths, const channel::Pose& node,
                             const antenna::MmxBeamPair& beams, const channel::Pose& ap,
                             const antenna::Element& ap_antenna, double freq_hz,
                             const sim::LinkBudget& budget, const rf::SpdtSwitch& spdt);

/// Fading-averaged variant (time-averaged measurement, paper §9.2).
ModeComparison compare_modes_avg(std::span<const channel::Path> paths, const channel::Pose& node,
                                 const antenna::MmxBeamPair& beams, const channel::Pose& ap,
                                 const antenna::Element& ap_antenna, double freq_hz,
                                 const sim::LinkBudget& budget, const rf::SpdtSwitch& spdt);

}  // namespace mmx::baseline
