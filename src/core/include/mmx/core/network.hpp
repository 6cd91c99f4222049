// mmx::Network — the top-level facade (what a downstream user of the
// library instantiates).
//
// A thin sample-level PHY layer over one sim::NetworkSimulator, which
// owns the room, the node table, the AP's init protocol and the cached
// ray-traced links. The facade adds the AP's receiver and wires OTAM
// synthesis, noise and joint decoding into three verbs: join, send,
// measure.
#pragma once

#include <optional>

#include "mmx/channel/room.hpp"
#include "mmx/core/access_point.hpp"
#include "mmx/core/node.hpp"
#include "mmx/mac/arq.hpp"
#include "mmx/sim/network_sim.hpp"

namespace mmx::core {

struct NetworkSpec {
  /// Link budget; its receiver spec is also the AP's receive chain, so
  /// send()'s noise floor and measure()'s SNR read one spec.
  sim::LinkBudgetSpec budget{};
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
  std::optional<std::uint16_t> join(const channel::Pose& pose, double rate_bps) {
    return sim_.add_node(pose, rate_bps);
  }

  void leave(std::uint16_t id) { sim_.remove_node(id); }
  void set_pose(std::uint16_t id, const channel::Pose& pose) { sim_.set_node_pose(id, pose); }

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
  sim::OtamLink measure(std::uint16_t id) const { return sim_.link(id); }
  sim::OtamLink measure_fixed_beam(std::uint16_t id) const { return sim_.fixed_beam_link(id); }

  /// Current per-beam channel for a node.
  phy::OtamChannel channel_for(std::uint16_t id) const;

  channel::Room& room() { return sim_.room(); }
  const AccessPoint& ap() const { return ap_; }
  const sim::NetworkSimulator& sim() const { return sim_; }
  /// The node as it stands now: its current pose, configured with its
  /// live grant. Built on each call, so hold the value, not a reference
  /// into it.
  Node node(std::uint16_t id) const;
  std::size_t num_nodes() const { return sim_.num_nodes(); }

 private:
  sim::NetworkSimulator sim_;
  AccessPoint ap_;
  Rng rng_;
  std::uint16_t next_seq_ = 0;
};

}  // namespace mmx::core
