// Discrete-event scenario runner.
//
// Drives a Network through simulated wall-clock time: periodic frame
// transmissions per node (CBR video / sensor cadence), people walking
// through the room between events, per-node delivery and SNR accounting.
// This is the harness behind the long-running examples and the
// system-level tests.
#pragma once

#include <vector>

#include "mmx/channel/blockage.hpp"
#include "mmx/core/network.hpp"
#include "mmx/sim/event_queue.hpp"

namespace mmx::core {

struct ScenarioNode {
  channel::Pose pose;
  double rate_bps = 10e6;          ///< requested channel rate
  double frame_interval_s = 0.05;  ///< application send cadence
  std::size_t payload_bytes = 256;
};

struct ScenarioConfig {
  double duration_s = 5.0;
  std::size_t walkers = 0;          ///< people doing random waypoint
  double walker_speed_mps = 1.4;
  std::uint64_t seed = 1;
  bool reliable = false;            ///< use ARQ (send_reliable) per frame
};

struct ScenarioNodeOutcome {
  std::uint16_t id = 0;
  std::size_t frames_sent = 0;
  std::size_t frames_delivered = 0;
  std::size_t inversions = 0;       ///< blockage-induced polarity flips
  double mean_snr_db = 0.0;
  double min_snr_db = 0.0;
  /// Fraction of frames sent while the link sat below the outage
  /// threshold (10 dB SNR, scenario.cpp).
  double outage_fraction = 0.0;
  double goodput_bps = 0.0;         ///< delivered payload bits / duration
  double airtime_s = 0.0;           ///< radio-on time spent transmitting
  double radio_energy_j = 0.0;      ///< airtime x the node's 1.1 W draw

  double delivery_ratio() const {
    return frames_sent == 0 ? 0.0
                            : static_cast<double>(frames_delivered) /
                                  static_cast<double>(frames_sent);
  }
};

struct ScenarioResult {
  std::vector<ScenarioNodeOutcome> nodes;
  std::size_t events_executed = 0;
  std::size_t joins_denied = 0;
};

/// Join every node, then run `cfg.duration_s` of event time.
ScenarioResult run_scenario(Network& net, const std::vector<ScenarioNode>& nodes,
                            const ScenarioConfig& cfg = {});

}  // namespace mmx::core
