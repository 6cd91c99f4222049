#include "mmx/core/network.hpp"

#include "mmx/common/units.hpp"
#include "mmx/dsp/noise.hpp"
#include "mmx/phy/preamble.hpp"

namespace mmx::core {

Network::Network(channel::Room room, channel::Pose ap_pose, NetworkSpec spec)
    : sim_(std::move(room), ap_pose, sim::SimConfig{.budget = spec.budget}),
      ap_(ap_pose, ApSpec{.receiver = spec.budget.receiver}),
      rng_(spec.noise_seed) {}

Node Network::node(std::uint16_t id) const {
  Node n(id, sim_.node_pose(id));
  n.configure(sim_.grant(id));
  return n;
}

phy::OtamChannel Network::channel_for(std::uint16_t id) const {
  const channel::BeamGains g = sim_.gains(id);
  return {g.h0, g.h1};
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
  const Node n = node(id);

  phy::Frame frame;
  frame.node_id = id;
  frame.seq = next_seq_++;
  frame.payload.assign(payload.begin(), payload.end());

  const phy::OtamChannel ch = channel_for(id);
  dsp::Cvec rx;
  if (profile == phy::CodingProfile::kNone) {
    rx = n.transmit_frame(frame, ch);
  } else {
    const phy::Bits raw = phy::encode_frame(frame, phy::default_preamble());
    phy::Bits bits(phy::default_preamble());
    const phy::Bits body(raw.begin() + static_cast<long>(bits.size()), raw.end());
    const phy::Bits coded = phy::encode_body(body, profile);
    bits.insert(bits.end(), coded.begin(), coded.end());
    rx = n.transmit_bits(bits, ch);
  }
  // Implementation loss (calibrated once; see sim::LinkBudgetSpec).
  const double impl = db_to_amp(-sim_.budget().spec().implementation_loss_db);
  for (auto& s : rx) s *= impl;
  // Trailing dead air so a late sync estimate keeps the last symbol.
  rx.resize(rx.size() + 4 * n.phy_config().samples_per_symbol, dsp::Complex{});
  dsp::add_awgn(rx, dbm_to_watt(ap_.noise_floor_dbm()), rng_);

  const Reception rec = ap_.receive(rx, n.phy_config(), profile);
  const sim::OtamLink link = sim_.link(id);

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
