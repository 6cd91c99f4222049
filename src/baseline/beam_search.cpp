#include "mmx/baseline/beam_search.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "mmx/common/units.hpp"

namespace mmx::baseline {

BeamSearchNode::BeamSearchNode(BeamSearchSpec spec) : spec_(spec) {
  if (spec.num_elements == 0) throw std::invalid_argument("BeamSearchNode: need elements");
  if (spec.codebook_size < 2) throw std::invalid_argument("BeamSearchNode: need >= 2 beams");
  if (spec.probe_time_s <= 0.0 || spec.probe_energy_j <= 0.0)
    throw std::invalid_argument("BeamSearchNode: probe costs must be > 0");
}

double BeamSearchNode::beam_angle(std::size_t i) const {
  if (i >= spec_.codebook_size) throw std::out_of_range("BeamSearchNode: beam index");
  const double span = deg_to_rad(120.0);  // +/- 60 degrees like mmX's FoV
  return -span / 2.0 +
         span * static_cast<double>(i) / static_cast<double>(spec_.codebook_size - 1);
}

antenna::LinearArray BeamSearchNode::make_beam(double angle) const {
  static const auto patch = std::make_shared<antenna::Patch>(6.0);
  const double d = wavelength(spec_.freq_hz) / 2.0;
  auto w = antenna::steering_weights(spec_.num_elements, d, spec_.freq_hz, angle);
  // Normalize total feed power to match the single-feed OTAM node.
  const double norm = 1.0 / std::sqrt(static_cast<double>(spec_.num_elements));
  for (auto& wi : w) wi *= norm;
  return antenna::LinearArray(patch, d, std::move(w), spec_.freq_hz);
}

std::complex<double> BeamSearchNode::beam_gain(std::size_t beam,
                                               std::span<const channel::Path> paths,
                                               const channel::Pose& node,
                                               const channel::Pose& ap,
                                               const antenna::Element& ap_antenna) const {
  const antenna::LinearArray array = make_beam(beam_angle(beam));
  return channel::compute_pattern_gain(paths, node, array, ap, ap_antenna, spec_.freq_hz);
}

SearchOutcome BeamSearchNode::exhaustive_search(std::span<const channel::Path> paths,
                                                const channel::Pose& node,
                                                const channel::Pose& ap,
                                                const antenna::Element& ap_antenna,
                                                const sim::LinkBudget& budget) const {
  SearchOutcome out;
  double best_mag = -1.0;
  for (std::size_t i = 0; i < spec_.codebook_size; ++i) {
    const auto h = beam_gain(i, paths, node, ap, ap_antenna);
    ++out.probes;
    if (std::abs(h) > best_mag) {
      best_mag = std::abs(h);
      out.best_beam = i;
      out.best_gain_db = (best_mag > 0.0) ? amp_to_db(best_mag) : -300.0;
      out.best_snr_db = budget.snr_db(h);
    }
  }
  out.search_time_s = static_cast<double>(out.probes) * spec_.probe_time_s;
  out.search_energy_j = static_cast<double>(out.probes) * spec_.probe_energy_j;
  return out;
}

}  // namespace mmx::baseline
