// Large-scale join/leave/move/block churn driver ("billions of things").
//
// Marries the discrete-event engine, the MAC substrates (init grants,
// stop-and-wait ARQ, AIMD rate control) and the dynamic-blockage models
// into one reproducible workload: `nodes` things join an AP over a join
// window, a walking crowd perturbs the geometry, a slice of the
// population moves or power-cycles every churn interval, and the AP
// measures every resident link every measurement interval — the access
// pattern the LinkCache exists for (many reads per geometry mutation).
//
// The run is a pure function of (config, seed): every stochastic choice
// draws from a counter-derived Rng stream, so reports are bit-identical
// at any `refresh_threads` — the same determinism contract as the sweep
// engine (docs/PARALLELISM.md) extended to a stateful scenario.
#pragma once

#include <cstdint>

#include "mmx/mac/arq.hpp"
#include "mmx/sim/faults.hpp"
#include "mmx/sim/link_cache.hpp"
#include "mmx/sim/network_sim.hpp"

namespace mmx::sim {

struct ScaleConfig {
  /// Things attempting to join. Joins are spread over `join_window_s`.
  std::size_t nodes = 10000;
  double room_width_m = 12.0;
  double room_height_m = 8.0;
  /// Walking people (random-waypoint blockers).
  std::size_t walkers = 3;
  double walker_speed_mps = 1.3;
  double duration_s = 8.0;
  double join_window_s = 2.0;
  /// Geometry/population churn cadence: walkers advance, `move_fraction`
  /// of residents re-pose, `leave_fraction` power-cycle.
  double churn_interval_s = 1.0;
  /// Link measurement cadence (AP polls every resident node for link
  /// adaptation). Many polls per churn tick — the read-heavy regime the
  /// cache targets; people change the geometry at ~1 Hz, the MAC reads
  /// link state at frame granularity.
  double measure_interval_s = 0.0625;
  double move_fraction = 0.01;
  double leave_fraction = 0.002;
  /// Per-node demanded rate; bandwidth follows via the init protocol.
  double node_rate_bps = 0.5e6;
  /// Frame size used to turn a link BER into a delivery probability.
  double frame_bits = 1000.0;
  /// Evaluate links through the cache (false = re-trace every query; the
  /// bench's baseline arm). Results are bit-identical either way.
  bool use_cache = true;
  /// Worker threads for the batched cache refresh (0 = all cores).
  std::size_t refresh_threads = 1;
  /// Fault injection + recovery policy (docs/ROBUSTNESS.md). Disabled by
  /// default; a disabled layer is FaultConfig{}, the zero-rate layer,
  /// whatever its other fields say. `make_fault_storm()` is the pinned
  /// robustness-lane storm.
  FaultConfig faults{};
  /// Overload-lane scenario knobs, active only while
  /// `sim.init.overload.enabled` is set (the single master switch — with
  /// it off the scenario is byte-identical to the pre-overload path).
  /// Every Nth thing (by join index) requests priority 2 so shedding has
  /// someone to shed for; 0 = everyone priority 1.
  std::size_t high_priority_period = 0;
  /// Promote demoted grants back toward their request every this many
  /// measurement rounds; 0 disables promotion passes.
  std::uint64_t promote_every_rounds = 4;
  SimConfig sim{};
};

/// Defaults sized for the 10^4-node lane: a 7 GHz band at 57-64 GHz (the
/// paper's §10 scaling direction; the ISM band grants O(100) channels,
/// V-band grants O(10^4)) with a VCO spec covering it and a tight guard.
ScaleConfig make_scale_config(std::size_t nodes = 10000);

/// Pinned oversubscription lane (docs/ROBUSTNESS.md): a 70 MHz V-band
/// slice whose full-rate capacity is ~80 channels, loaded with
/// `oversubscription` times that many things (default 3x), overload
/// control on (best-fit, compaction, demotion to a rate floor of a
/// quarter of the demand, shedding with a priority-2 slice), deny hints
/// feeding each thing's RejoinBackoff. Composable with make_fault_storm()
/// via `.faults`.
ScaleConfig make_overload_config(double oversubscription = 3.0);

/// Overload-lane accounting (all zero while overload control is off).
/// Deterministic simulated quantities: every field participates in
/// ScaleReport::operator== and the bit-identity contract.
struct OverloadLaneReport {
  std::uint64_t demotions = 0;        ///< newcomers admitted below request
  std::uint64_t shed_demotions = 0;   ///< incumbents shrunk for a newcomer
  std::uint64_t promotions = 0;       ///< demoted grants grown back
  std::uint64_t compactions = 0;      ///< band compaction passes
  std::uint64_t retunes = 0;          ///< re-tune notifications issued
  std::uint64_t hinted_denies = 0;    ///< denies carrying a backoff hint
  double hint_delay_sum_s = 0.0;      ///< sum of issued hints
  std::uint64_t backoff_retries = 0;  ///< hint/backoff-timer rejoin attempts
  std::uint64_t invariant_violations = 0;  ///< allocator invariant failures (must be 0)
  std::size_t admitted = 0;                ///< associated things at end of run
  std::size_t admitted_below_request = 0;  ///< granted < requested at end
  double min_admitted_rate_bps = 0.0;      ///< floor of the admitted-rate distribution
  double mean_admitted_rate_bps = 0.0;

  bool operator==(const OverloadLaneReport&) const = default;
};

struct ScaleReport {
  std::size_t joins = 0;            ///< join attempts (incl. power-cycle rejoins)
  std::size_t granted = 0;          ///< joins that got a channel grant
  std::size_t denied = 0;           ///< joins kept resident but unassociated
  std::size_t leaves = 0;
  std::size_t moves = 0;
  std::size_t blocker_updates = 0;  ///< crowd advances (epoch bumps)
  std::size_t measure_rounds = 0;
  std::size_t link_evals = 0;       ///< total per-node link measurements
  std::size_t cache_refills = 0;    ///< entries recomputed by batched refresh
  /// Frame-success evaluations, (1 - joint BER)^frame_bits: one per
  /// transmitted frame whose link BER differs from the thing's last one.
  std::size_t frame_evals = 0;
  /// The AP's admission loop counts (SDM requests, groups scanned,
  /// re-tune visits) at the end of the run.
  mac::InitProtocol::Work admission_work{};
  LinkCacheStats cache{};           ///< end-of-run cache counters
  mac::ArqStats arq{};              ///< aggregated over all nodes
  FaultStats faults{};              ///< injected faults + recovery accounting
  OverloadLaneReport overload{};    ///< overload-control accounting
  double mean_snr_db = 0.0;
  double mean_joint_ber = 0.0;
  double mean_rate_bps = 0.0;       ///< AIMD rate, averaged over final states
  double delivery_ratio = 0.0;      ///< delivered / offered frames
  /// Wall-clock spent inside measurement rounds (cache refresh + link
  /// polls + per-node MAC) — the quantity the link cache accelerates.
  /// Excluded from operator== (timing is machine-dependent).
  double measure_wall_s = 0.0;

  /// Compares every simulated quantity; ignores timing, frame_evals and
  /// admission_work (work counts) and all cache counters (cache_refills,
  /// cache.*), which legitimately differ between the cached and uncached
  /// arms of an otherwise identical run.
  bool operator==(const ScaleReport&) const;
};

class ScaleScenario {
 public:
  /// Throws std::invalid_argument, naming the field, for a config that
  /// would hang or silently do nothing: zero nodes; non-finite or
  /// non-positive intervals, duration_s, node_rate_bps or frame_bits; a
  /// negative or non-finite join_window_s; fractions outside [0, 1]; a
  /// reap timeout that does not exceed measure_interval_s (the layer's
  /// reap_timeout_s, or FaultConfig{}'s when the layer is disabled).
  explicit ScaleScenario(ScaleConfig cfg = make_scale_config());

  /// Run the full scenario. Deterministic: same (config, seed) gives a
  /// bit-identical report at any refresh_threads / use_cache setting.
  ScaleReport run(std::uint64_t seed) const;

  const ScaleConfig& config() const { return cfg_; }

 private:
  ScaleConfig cfg_;
};

}  // namespace mmx::sim
