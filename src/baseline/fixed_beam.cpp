#include "mmx/baseline/fixed_beam.hpp"

namespace mmx::baseline {

ModeComparison compare_modes(std::span<const channel::Path> paths, const channel::Pose& node,
                             const antenna::MmxBeamPair& beams, const channel::Pose& ap,
                             const antenna::Element& ap_antenna, double freq_hz,
                             const sim::LinkBudget& budget, const rf::SpdtSwitch& spdt) {
  const channel::BeamGains g =
      channel::compute_beam_gains(paths, node, beams, ap, ap_antenna, freq_hz);
  return {budget.evaluate_otam(g, spdt), budget.evaluate_fixed_beam(g)};
}

ModeComparison compare_modes_avg(std::span<const channel::Path> paths, const channel::Pose& node,
                                 const antenna::MmxBeamPair& beams, const channel::Pose& ap,
                                 const antenna::Element& ap_antenna, double freq_hz,
                                 const sim::LinkBudget& budget, const rf::SpdtSwitch& spdt) {
  const channel::BeamGains g =
      channel::compute_beam_gains_avg(paths, node, beams, ap, ap_antenna, freq_hz);
  return {budget.evaluate_otam(g, spdt), budget.evaluate_fixed_beam(g)};
}

}  // namespace mmx::baseline
