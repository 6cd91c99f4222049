// Deterministic fault injection for the scale lanes (docs/ROBUSTNESS.md).
//
// The churn scenario models benign dynamics — people walk, nodes move,
// power-cycles announce themselves. Real deployments fail abruptly: a
// person stands up mid-frame and the link dies for half a second, a node
// browns out holding a grant the AP must eventually reap, an ack is lost
// and the sender burns retries into the same blockage burst. This layer
// compiles a FaultConfig into a FaultPlan — a schedule of storm /
// power-cycle / revocation events that is a pure function of
// (config, duration, seed) — and a FaultInjector arms it onto the
// EventQueue. Every stochastic choice draws from a counter-derived Rng
// stream keyed by the event's fixed plan index, so fault runs keep the
// sweep engine's contract: bit-identical reports at any refresh thread
// count, reproducible per seed.
//
// The protocol-plane faults (ack loss/corruption, timeout skew) are not
// plan events; they are per-frame draws the scenario takes from each
// node's own stream, gated behind `p > 0` checks so a zero rate draws
// nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mmx/common/rng.hpp"
#include "mmx/mac/arq.hpp"
#include "mmx/mac/init_protocol.hpp"
#include "mmx/sim/event_queue.hpp"

namespace mmx::sim {

struct FaultConfig {
  /// Master switch. A disabled layer (the default) is FaultConfig{}: the
  /// scenario ignores every other field and runs the zero-rate layer.
  bool enabled = false;

  // --- Blockage storms: a slice of links drops into deep fade ----------
  double storm_rate_hz = 0.0;       ///< expected storms per simulated second
  double storm_duration_s = 0.5;    ///< fade length per storm
  double storm_fraction = 0.25;     ///< share of things each storm covers
  /// Frame delivery probability multiplier while faded (deep-fade floor;
  /// the paper's blockage measurements put bursts 20-30 dB down).
  double storm_delivery_frac = 0.02;

  // --- Node power-cycles: silent death, zombie grant at the AP ---------
  double power_cycle_rate_hz = 0.0;  ///< expected cycles per second
  double power_cycle_down_s = 0.4;   ///< off time before rejoin attempts

  // --- Ack plane -------------------------------------------------------
  double ack_loss_frac = 0.0;     ///< P(delivered frame's ack never returns)
  double ack_corrupt_frac = 0.0;  ///< P(ack returns with a mangled seq)

  // --- AP-side grant revocation ---------------------------------------
  double revoke_rate_hz = 0.0;  ///< expected revocations per second

  // --- Timer pathology -------------------------------------------------
  /// Per-node multiplicative skew on the ARQ ack timeout, drawn once at
  /// join from uniform [1 - skew, 1 + skew] (cheap node clocks drift).
  double timeout_skew_frac = 0.0;

  // --- Recovery policy (docs/ROBUSTNESS.md) ----------------------------
  mac::BackoffConfig rejoin_backoff{};  ///< rejoin/re-grant pacing
  /// ARQ give-up streak that escalates to a full re-acquisition (the
  /// node declares the link dead and rejoins through the init protocol).
  /// 0 disables escalation — the default, because give-up streaks also
  /// happen on naturally blocked links, and an all-rates-zero config
  /// must replay the fault-free run exactly.
  int arq_giveups_to_rejoin = 0;
  /// AP reaps associated nodes silent for this long (zombie grants).
  double reap_timeout_s = 0.5;
  /// ARQ config for the things (retry backoff pacing). A disabled layer
  /// uses FaultConfig{}'s, the default-constructed ArqConfig.
  mac::ArqConfig arq{};
};

/// The pinned default fault storm: the configuration the robustness
/// bench arm (`bench_scale_churn --faults on`), the golden-report tests
/// and the CI resilience gate all share. Tuned so an 8 s / 10^4-node run
/// sees every fault class many times over.
FaultConfig make_fault_storm();

/// Fault/recovery accounting, aggregated by the scenario and published
/// onto mmx::obs once per run (same bulk pattern as ArqStats).
struct FaultStats {
  std::uint64_t storms = 0;          ///< blockage storms begun
  std::uint64_t power_cycles = 0;    ///< silent node deaths injected
  std::uint64_t revocations = 0;     ///< AP grant revocations injected
  std::uint64_t acks_lost = 0;
  std::uint64_t acks_corrupted = 0;
  std::uint64_t reaped = 0;          ///< zombie grants reclaimed by the AP
  std::uint64_t escalations = 0;     ///< ARQ give-up streaks -> rejoin
  std::uint64_t rejoin_attempts = 0; ///< backoff-scheduled re-acquisitions
  std::uint64_t recoveries = 0;      ///< outages that ended in a re-grant
  /// Sum of time-to-recover over all recoveries, in measurement rounds
  /// (divide by `recoveries` for the mean; the per-recovery distribution
  /// goes to the `faults.time_to_recover_rounds` log2 histogram).
  std::uint64_t recovery_rounds_sum = 0;

  bool operator==(const FaultStats&) const = default;

  /// Bulk-publish onto the global registry (`faults.*` counters).
  void publish_obs() const;
};

/// One scheduled fault. `rng_index` is fixed at compile time, before
/// sorting, so the event's derived stream identifies it no matter where
/// it lands in the schedule.
struct FaultEvent {
  enum class Kind : std::uint8_t { kStorm, kPowerCycle, kRevoke };
  Kind kind;
  double t_s;
  double duration_s;       ///< storm fade length / power-cycle down time
  std::uint64_t rng_index; ///< per-event stream index within the fault domain
};

/// A compiled, time-sorted fault schedule. Pure function of
/// (config, duration, seed): event counts are llround(rate * duration),
/// times are uniform draws from per-kind counter-derived streams.
class FaultPlan {
 public:
  static FaultPlan compile(const FaultConfig& cfg, double duration_s, std::uint64_t seed);

  const std::vector<FaultEvent>& events() const { return events_; }
  /// Fault-domain seed; per-event streams are Rng::stream(fault_seed(),
  /// event.rng_index).
  std::uint64_t fault_seed() const { return fault_seed_; }

 private:
  std::vector<FaultEvent> events_;
  std::uint64_t fault_seed_ = 0;
};

/// Scenario-side reactions to plan events. Each hook receives an Rng
/// derived from the event's own stream index — victim choice cannot
/// perturb, or be perturbed by, any other draw in the run.
struct FaultHooks {
  std::function<void(Rng&, double duration_s)> storm_begin;
  std::function<void(Rng&, double down_s)> power_cycle;
  std::function<void(Rng&)> revoke;
};

/// Arms a FaultPlan onto an EventQueue. The injector owns no scenario
/// state; it schedules one queue event per plan entry and hands each
/// hook its derived stream.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Schedule every plan event on `q`. Hooks must outlive the queue run.
  void arm(EventQueue& q, FaultHooks hooks);

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  FaultHooks hooks_;
};

}  // namespace mmx::sim
