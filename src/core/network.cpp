#include "mmx/core/network.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"
#include "mmx/dsp/noise.hpp"
#include "mmx/phy/preamble.hpp"

namespace mmx::core {

Network::Network(channel::Room room, channel::Pose ap_pose, NetworkSpec spec)
    : room_(std::move(room)),
      spec_(spec),
      ap_(ap_pose, spec.ap),
      budget_(spec.budget),
      rng_(spec.noise_seed) {
  if (!room_.contains(ap_pose.position)) throw std::invalid_argument("Network: AP outside room");
}

std::optional<std::uint16_t> Network::join(const channel::Pose& pose, double rate_bps) {
  if (!room_.contains(pose.position)) throw std::invalid_argument("Network: node outside room");
  // Ids are not recycled: past 65535 the counter would wrap onto an id
  // that may still be joined (next_id_ starts at 1, so 0 means wrapped).
  if (next_id_ == 0)
    throw std::overflow_error("Network: node id space exhausted (65535 ids issued, " +
                              std::to_string(nodes_.size()) + " live)");
  const std::uint16_t id = next_id_++;
  const double bearing =
      wrap_angle((pose.position - ap_.pose().position).angle() - ap_.pose().orientation_rad);
  const auto reply = ap_.handle_init(mac::ChannelRequest{id, rate_bps, bearing});
  const auto* grant = std::get_if<mac::ChannelGrant>(&reply);
  if (!grant) return std::nullopt;
  Node node(id, pose, spec_.node);
  node.configure(*grant);
  nodes_.emplace(id, std::move(node));
  return id;
}

void Network::leave(std::uint16_t id) {
  if (nodes_.erase(id) > 0) ap_.release(id);
}

void Network::set_pose(std::uint16_t id, const channel::Pose& pose) {
  if (!room_.contains(pose.position)) throw std::invalid_argument("Network: node outside room");
  node(id).set_pose(pose);
}

Node& Network::node(std::uint16_t id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Network: unknown node");
  return it->second;
}

const Node& Network::node(std::uint16_t id) const {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Network: unknown node");
  return it->second;
}

channel::BeamGains Network::gains(const Node& n) const {
  const channel::RoomPlan plan(room_);
  channel::PathList ws;
  const auto paths = plan.trace_into(n.pose().position, ap_.pose().position, ws);
  return channel::compute_beam_gains(paths, n.pose(), n.beams(), ap_.pose(), ap_.antenna(),
                                     spec_.freq_hz);
}

phy::OtamChannel Network::channel_for(std::uint16_t id) const {
  const auto g = gains(node(id));
  return {g.h0, g.h1};
}

sim::OtamLink Network::measure(std::uint16_t id) const {
  const Node& n = node(id);
  return budget_.evaluate_otam(gains(n), n.spdt());
}

sim::OtamLink Network::measure_fixed_beam(std::uint16_t id) const {
  return budget_.evaluate_fixed_beam(gains(node(id)));
}

Network::ReliableReport Network::send_reliable(std::uint16_t id,
                                               std::span<const std::uint8_t> payload,
                                               mac::ArqConfig arq_cfg) {
  mac::ArqSender arq(arq_cfg);
  const std::uint16_t seq = next_seq_;  // send() will consume sequence numbers
  arq.offer(seq);

  ReliableReport out;
  while (arq.next_action() == mac::ArqSender::Action::kTransmit) {
    arq.on_transmitted();
    out.last = send(id, payload);
    ++out.attempts;
    if (out.last.delivered) {
      arq.on_ack(seq);  // the AP's ack arrives on the reliable side channel
      out.delivered = true;
      return out;
    }
    arq.on_timeout();
  }
  return out;
}

SendReport Network::send(std::uint16_t id, std::span<const std::uint8_t> payload,
                         phy::CodingProfile profile) {
  Node& n = node(id);

  phy::Frame frame;
  frame.node_id = id;
  frame.seq = next_seq_++;
  frame.payload.assign(payload.begin(), payload.end());

  // One trace feeds both the synthesized channel and the link report.
  const channel::BeamGains g = gains(n);
  const phy::OtamChannel ch{g.h0, g.h1};
  dsp::Cvec rx;
  if (profile == phy::CodingProfile::kNone) {
    rx = n.transmit_frame(frame, ch);
  } else {
    const phy::Bits raw = phy::encode_frame(frame, phy::default_preamble());
    phy::Bits bits(phy::default_preamble());
    const phy::Bits body(raw.begin() + static_cast<long>(bits.size()), raw.end());
    const phy::Bits coded = phy::encode_body(body, profile);
    bits.insert(bits.end(), coded.begin(), coded.end());
    rx = phy::otam_synthesize(bits, n.phy_config(), ch, n.spdt(),
                              std::sqrt(dbm_to_watt(12.0)));
  }
  // Implementation loss (calibrated once; see sim::LinkBudgetSpec).
  const double impl = db_to_amp(-spec_.budget.implementation_loss_db);
  for (auto& s : rx) s *= impl;
  // Trailing dead air so a late sync estimate keeps the last symbol.
  rx.resize(rx.size() + 4 * n.phy_config().samples_per_symbol, dsp::Complex{});
  dsp::add_awgn(rx, dbm_to_watt(ap_.noise_floor_dbm()), rng_);

  const Reception rec = ap_.receive(rx, n.phy_config(), profile);
  const sim::OtamLink link = budget_.evaluate_otam(g, n.spdt());

  SendReport report;
  report.snr_db = link.snr_db;
  report.contrast_db = link.contrast_db;
  report.mode = rec.mode;
  report.inverted = rec.inverted;
  report.payload_bytes = payload.size();
  report.delivered = rec.frame.has_value() && *rec.frame == frame;
  return report;
}

}  // namespace mmx::core
