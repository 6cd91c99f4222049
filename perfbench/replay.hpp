// Traced replay of ScaleScenario::run.
//
// Drives the same workload through the layers' public functions
// (NetworkSimulator, EventQueue, WalkingCrowd, ArqSender / RateController
// / RejoinBackoff, FaultInjector) with a span around every call into a
// layer, and rebuilds the ScaleReport the scenario would have produced.
// The caller compares that report to ScaleScenario::run's with
// operator==; only an equal report proves the replay did the same work,
// so only then are its per-layer numbers meaningful.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mmx/sim/scale_scenario.hpp"
#include "profiler.hpp"

namespace perfbench {

struct TraceResult {
  mmx::sim::ScaleReport report;
  double wall_s = 0.0;  ///< whole traced replay, construction to report
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_s{};
  /// Public calls made into each layer (batch spans count every call).
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> calls{};
  /// Inclusive duration of every span per layer: one per call for call
  /// spans, one per round for batch spans.
  std::array<std::vector<double>, static_cast<std::size_t>(Layer::kCount)> span_s{};

  // mac.admission
  std::uint64_t admits = 0;      ///< NetworkSimulator::admit calls
  std::uint64_t grants = 0;      ///< admits that returned an id
  std::uint64_t sdm_grants = 0;  ///< grants on a shared (SDM) channel
  std::uint64_t demoted = 0;     ///< grants below the requested rate
  // mac.ladder
  std::uint64_t retunes = 0;  ///< grants drained by drain_retunes
  // sim.link_cache
  std::uint64_t refills = 0;
  double hit_rate = 0.0;
  // mac.thing
  std::uint64_t retx = 0;  ///< timeouts that leave the frame to retransmit
  // sim.event_queue
  std::uint64_t events = 0;   ///< handlers run_until executed
  std::uint64_t cancels = 0;  ///< cancels that dropped a pending event
  // sim.round
  std::vector<double> round_ms;  ///< inclusive wall of each measurement round
  // sim.ids
  std::uint64_t id_high_water = 0;  ///< largest id admission returned
  std::uint64_t live_peak = 0;      ///< most nodes resident at once
};

/// Replay ScaleScenario(cfg).run(seed) with tracing. Single-threaded
/// refresh is assumed (cfg.refresh_threads is passed through unchanged).
TraceResult traced_replay(const mmx::sim::ScaleConfig& cfg, std::uint64_t seed);

/// Summed self time of every layer (scenario glue excluded) over the
/// traced wall.
inline double coverage(const TraceResult& t) {
  double covered = 0.0;
  for (std::size_t l = 0; l < t.self_s.size(); ++l)
    if (static_cast<Layer>(l) != Layer::kScenario) covered += t.self_s[l];
  return covered / t.wall_s;
}

}  // namespace perfbench
