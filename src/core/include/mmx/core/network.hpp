// mmx::Network — the top-level facade (what a downstream user of the
// library instantiates).
//
// Owns the room, the AP and the nodes; wires the side-channel bootstrap,
// the ray-traced channel and the sample-level PHY into three verbs:
// join, send, measure.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/room.hpp"
#include "mmx/core/access_point.hpp"
#include "mmx/core/node.hpp"
#include "mmx/mac/arq.hpp"
#include "mmx/sim/link_budget.hpp"

namespace mmx::core {

struct NetworkSpec {
  ApSpec ap{};
  NodeSpec node{};
  sim::LinkBudgetSpec budget{};
  double freq_hz = 24.125e9;
  std::uint64_t noise_seed = 1;
};

/// Outcome of one frame transmission.
struct SendReport {
  bool delivered = false;
  double snr_db = 0.0;            ///< paper-style SNR of the capture
  double contrast_db = 0.0;       ///< OTAM level contrast
  phy::DecisionMode mode = phy::DecisionMode::kJoint;
  bool inverted = false;
  std::size_t payload_bytes = 0;
};

class Network {
 public:
  Network(channel::Room room, channel::Pose ap_pose, NetworkSpec spec = {});

  /// Register a node (side-channel init). Returns its id, or nullopt if
  /// the AP denied the rate request. Ids are never reused: once all 65535
  /// have been issued (granted or denied) this throws std::overflow_error.
  std::optional<std::uint16_t> join(const channel::Pose& pose, double rate_bps);

  void leave(std::uint16_t id);
  void set_pose(std::uint16_t id, const channel::Pose& pose);

  /// Sample-level end-to-end transmission of a payload: OTAM synthesis
  /// through the ray-traced channel, AWGN at the AP's noise floor,
  /// preamble sync, joint demodulation, CRC check.
  SendReport send(std::uint16_t id, std::span<const std::uint8_t> payload,
                  phy::CodingProfile profile = phy::CodingProfile::kNone);

  /// Stop-and-wait ARQ on top of send(): retransmits until the AP
  /// decodes the frame or the retry budget is spent (the AP's ack rides
  /// the reliable side channel).
  struct ReliableReport {
    SendReport last;      ///< report of the final attempt
    int attempts = 0;
    bool delivered = false;
  };
  ReliableReport send_reliable(std::uint16_t id, std::span<const std::uint8_t> payload,
                               mac::ArqConfig arq = {});

  /// Link-budget measurements (fast path; no sample simulation).
  sim::OtamLink measure(std::uint16_t id) const;
  sim::OtamLink measure_fixed_beam(std::uint16_t id) const;

  /// Current per-beam channel for a node.
  phy::OtamChannel channel_for(std::uint16_t id) const;

  channel::Room& room() { return room_; }
  const AccessPoint& ap() const { return ap_; }
  Node& node(std::uint16_t id);
  const Node& node(std::uint16_t id) const;
  std::size_t num_nodes() const { return nodes_.size(); }

 private:
  /// Per-beam gains of `n` through one trace of the current room.
  channel::BeamGains gains(const Node& n) const;

  channel::Room room_;
  NetworkSpec spec_;
  AccessPoint ap_;
  sim::LinkBudget budget_;
  Rng rng_;
  std::map<std::uint16_t, Node> nodes_;
  std::uint16_t next_id_ = 1;
  std::uint16_t next_seq_ = 0;
};

}  // namespace mmx::core
