#include "mmx/core/access_point.hpp"

#include <cmath>
#include <stdexcept>

#include "mmx/dsp/resample.hpp"
#include "mmx/phy/preamble.hpp"

namespace mmx::core {

AccessPoint::AccessPoint(channel::Pose pose, ApSpec spec)
    : pose_(pose), chain_(spec.receiver) {}

Reception AccessPoint::receive_channel(std::span<const dsp::Complex> wideband,
                                       double wideband_rate_hz, double channel_offset_hz,
                                       const phy::PhyConfig& cfg) const {
  if (wideband_rate_hz <= 0.0)
    throw std::invalid_argument("AccessPoint: wideband rate must be > 0");
  const double ratio = wideband_rate_hz / cfg.sample_rate_hz();
  const double rounded = std::round(ratio);
  if (rounded < 1.0 || std::abs(ratio - rounded) > 1e-6)
    throw std::invalid_argument(
        "AccessPoint: wideband rate must be an integer multiple of the channel rate");
  const auto factor = static_cast<std::size_t>(rounded);
  const dsp::Cvec centered =
      dsp::frequency_shift(wideband, -channel_offset_hz, wideband_rate_hz);
  const dsp::Cvec narrow = dsp::decimate(centered, factor);
  return receive(narrow, cfg);
}

Reception AccessPoint::receive(std::span<const dsp::Complex> capture,
                               const phy::PhyConfig& cfg,
                               phy::CodingProfile profile) const {
  Reception r;
  const auto sync = phy::find_preamble(capture, cfg, phy::default_preamble(),
                                       /*max_offset=*/8 * cfg.samples_per_symbol, 0.5);
  if (!sync) return r;
  r.sync_correlation = sync->correlation;

  const std::span<const dsp::Complex> aligned(capture.data() + sync->sample_offset,
                                              capture.size() - sync->sample_offset);
  const phy::JointDecision d =
      phy::joint_demodulate(aligned, cfg, phy::default_preamble());
  r.mode = d.mode;
  r.inverted = d.ask_inverted;

  const auto& preamble = phy::default_preamble();
  if (d.bits.size() <= preamble.size()) return r;
  phy::Bits body(d.bits.begin() + static_cast<long>(preamble.size()), d.bits.end());
  if (profile != phy::CodingProfile::kNone) {
    // The capture's tail is noise bits; trim to the profile's block
    // structure before decoding, and treat undecodable bodies as loss.
    try {
      if (profile == phy::CodingProfile::kHamming) body.resize(body.size() / 7 * 7);
      if (profile == phy::CodingProfile::kConvolutional) body.resize(body.size() / 2 * 2);
      body = phy::decode_body(body, profile);
    } catch (const std::invalid_argument&) {
      return r;
    }
  }
  r.frame = phy::decode_frame(body);
  return r;
}

std::vector<Reception> AccessPoint::receive_stream(std::span<const dsp::Complex> capture,
                                                   const phy::PhyConfig& cfg,
                                                   phy::CodingProfile profile) const {
  std::vector<Reception> out;
  const auto& preamble = phy::default_preamble();
  const std::size_t sps = cfg.samples_per_symbol;
  std::size_t offset = 0;
  while (offset + preamble.size() * sps < capture.size()) {
    const std::span<const dsp::Complex> window(capture.data() + offset,
                                               capture.size() - offset);
    const auto sync =
        phy::find_preamble_first(window, cfg, preamble, window.size(), 0.6);
    if (!sync) break;
    const std::span<const dsp::Complex> aligned(window.data() + sync->sample_offset,
                                                window.size() - sync->sample_offset);
    const Reception r = receive(aligned, cfg, profile);
    if (r.frame.has_value()) {
      out.push_back(r);
      // Skip past the decoded frame's airtime.
      const std::size_t body_bits =
          phy::frame_length_bits(r.frame->payload.size(), preamble.size()) - preamble.size();
      const std::size_t coded_bits =
          (profile == phy::CodingProfile::kNone)
              ? body_bits
              : phy::coded_length_bits(body_bits, profile);
      offset += sync->sample_offset + (preamble.size() + coded_bits) * sps;
    } else {
      // False (or undecodable) sync: move past it and keep scanning.
      offset += sync->sample_offset + preamble.size() * sps;
    }
  }
  return out;
}

}  // namespace mmx::core
