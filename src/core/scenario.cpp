#include "mmx/core/scenario.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "mmx/phy/frame.hpp"
#include "mmx/phy/preamble.hpp"

namespace mmx::core {

ScenarioResult run_scenario(Network& net, const std::vector<ScenarioNode>& nodes,
                            const ScenarioConfig& cfg) {
  if (cfg.duration_s <= 0.0) throw std::invalid_argument("run_scenario: duration must be > 0");
  if (cfg.mobility_step_s <= 0.0)
    throw std::invalid_argument("run_scenario: mobility step must be > 0");

  Rng rng(cfg.seed);
  ScenarioResult result;

  struct Live {
    std::uint16_t id;
    ScenarioNode spec;
    ScenarioNodeOutcome outcome;
    double snr_acc = 0.0;
    double snr_min = 1e9;
    std::size_t outage_frames = 0;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Live> live;
  for (const ScenarioNode& n : nodes) {
    const auto id = net.join(n.pose, n.rate_bps);
    if (!id) {
      ++result.joins_denied;
      continue;
    }
    Live l;
    l.id = *id;
    l.spec = n;
    l.outcome.id = *id;
    l.payload.assign(n.payload_bytes, static_cast<std::uint8_t>(*id));
    live.push_back(std::move(l));
  }

  sim::EventQueue queue;

  // Self-rescheduling handlers live here, not inside their own captures: a
  // handler that captures a shared_ptr to itself is a reference cycle the
  // refcount can never break (LeakSanitizer flags it). They only need to
  // outlive queue.run_until() below.
  std::vector<std::unique_ptr<std::function<void()>>> handlers;

  // Mobility process.
  std::unique_ptr<channel::WalkingCrowd> crowd;
  if (cfg.walkers > 0) {
    crowd = std::make_unique<channel::WalkingCrowd>(net.room(), cfg.walkers,
                                                    cfg.walker_speed_mps, rng);
    handlers.push_back(std::make_unique<std::function<void()>>());
    std::function<void()>* step = handlers.back().get();
    *step = [&queue, &rng, &cfg, crowd_ptr = crowd.get(), step] {
      crowd_ptr->update(cfg.mobility_step_s, rng);
      if (queue.now() + cfg.mobility_step_s <= cfg.duration_s) {
        queue.schedule_in(cfg.mobility_step_s, *step);
      }
    };
    queue.schedule_at(cfg.mobility_step_s, *step);
  }

  // Per-node traffic processes.
  for (Live& l : live) {
    handlers.push_back(std::make_unique<std::function<void()>>());
    std::function<void()>* fire = handlers.back().get();
    *fire = [&net, &queue, &cfg, node = &l, fire] {
      const SendReport r = cfg.reliable
                               ? net.send_reliable(node->id, node->payload).last
                               : net.send(node->id, node->payload);
      ++node->outcome.frames_sent;
      node->outcome.frames_delivered += r.delivered;
      node->outcome.inversions += r.inverted;
      node->snr_acc += r.snr_db;
      node->snr_min = std::min(node->snr_min, r.snr_db);
      if (r.snr_db < cfg.outage_snr_db) ++node->outage_frames;
      if (queue.now() + node->spec.frame_interval_s <= cfg.duration_s) {
        queue.schedule_in(node->spec.frame_interval_s, *fire);
      }
    };
    queue.schedule_at(l.spec.frame_interval_s * rng.uniform(0.0, 1.0), *fire);
  }

  result.events_executed = queue.run_until(cfg.duration_s);

  for (Live& l : live) {
    if (l.outcome.frames_sent > 0) {
      l.outcome.mean_snr_db = l.snr_acc / static_cast<double>(l.outcome.frames_sent);
      l.outcome.min_snr_db = l.snr_min;
      l.outcome.outage_fraction = static_cast<double>(l.outage_frames) /
                                  static_cast<double>(l.outcome.frames_sent);
    }
    l.outcome.goodput_bps = static_cast<double>(l.outcome.frames_delivered) *
                            static_cast<double>(l.spec.payload_bytes) * 8.0 / cfg.duration_s;
    // Airtime/energy ledger: frame bits at the node's granted bit rate,
    // times the 1.1 W radio draw while transmitting.
    const Node dev = net.node(l.id);
    const double frame_bits = static_cast<double>(
        phy::frame_length_bits(l.spec.payload_bytes, phy::default_preamble().size()));
    l.outcome.airtime_s =
        static_cast<double>(l.outcome.frames_sent) * frame_bits / dev.bit_rate_bps();
    l.outcome.radio_energy_j = l.outcome.airtime_s * dev.power_w();
    result.nodes.push_back(l.outcome);
  }
  return result;
}

}  // namespace mmx::core
