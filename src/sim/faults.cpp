#include "mmx/sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmx/obs/obs.hpp"

namespace mmx::sim {

namespace {

// Offsets the fault domain far away from the scenario's own stream
// indices (0 = crowd, 1 = churn, 2+i = things), so fault draws can never
// collide with a thing's stream no matter the population.
constexpr std::uint64_t kFaultDomain = 0xFA171E57ULL;

// Per-kind stream indices for the schedule draws; per-event streams
// start above every kind index.
constexpr std::uint64_t kEventStreamBase = 16;

void validate(const FaultConfig& c) {
  // Each test is phrased to fail on NaN; an infinite rate would make
  // llround() of the event count garbage.
  const auto nonneg = [](double v, const char* what) {
    if (!(std::isfinite(v) && v >= 0.0))
      throw std::invalid_argument(std::string("FaultConfig: ") + what + " must be finite and >= 0");
  };
  nonneg(c.storm_rate_hz, "storm_rate_hz");
  nonneg(c.power_cycle_rate_hz, "power_cycle_rate_hz");
  nonneg(c.revoke_rate_hz, "revoke_rate_hz");
  nonneg(c.timeout_skew_frac, "timeout_skew_frac");
  if (!(c.storm_duration_s > 0.0 && c.power_cycle_down_s > 0.0 && c.reap_timeout_s > 0.0))
    throw std::invalid_argument("FaultConfig: durations must be > 0");
  const auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!(in_unit(c.storm_fraction) && in_unit(c.ack_loss_frac) && in_unit(c.ack_corrupt_frac) &&
        in_unit(c.storm_delivery_frac) && c.timeout_skew_frac < 1.0))
    throw std::invalid_argument("FaultConfig: fractions must lie in [0, 1]");
  if (c.arq_giveups_to_rejoin < 0)
    throw std::invalid_argument("FaultConfig: arq_giveups_to_rejoin must be >= 0");
}

}  // namespace

FaultConfig make_fault_storm() {
  FaultConfig c;
  c.enabled = true;
  c.storm_rate_hz = 0.75;         // one deep-fade burst every ~1.3 s
  c.storm_duration_s = 0.5;       // the "someone stood up" timescale
  c.storm_fraction = 0.25;
  c.storm_delivery_frac = 0.02;
  c.power_cycle_rate_hz = 4.0;    // silent deaths, zombie grants to reap
  c.power_cycle_down_s = 0.4;
  c.ack_loss_frac = 0.02;
  c.ack_corrupt_frac = 0.01;
  c.revoke_rate_hz = 2.0;
  c.timeout_skew_frac = 0.25;
  c.rejoin_backoff = mac::BackoffConfig{
      .base_s = 0.125, .factor = 2.0, .cap_s = 1.0, .jitter_frac = 0.25};
  c.arq_giveups_to_rejoin = 3;
  // 2x the ARQ backoff cap: retry pacing alone can never look like death,
  // so only genuine zombies (power-cycled grant holders) get reaped.
  c.reap_timeout_s = 0.5;
  // Spread retries out of the blockage burst: 2 ms, 4 ms, ... capped at
  // four measurement rounds of the scale lane.
  c.arq = mac::ArqConfig{.max_retries = 4, .timeout_s = 2e-3,
                         .backoff_factor = 2.0, .max_timeout_s = 0.25};
  return c;
}

void FaultStats::publish_obs() const {
  MMX_OBS_COUNT("faults.storms", storms);
  MMX_OBS_COUNT("faults.power_cycles", power_cycles);
  MMX_OBS_COUNT("faults.revocations", revocations);
  MMX_OBS_COUNT("faults.acks_lost", acks_lost);
  MMX_OBS_COUNT("faults.acks_corrupted", acks_corrupted);
  MMX_OBS_COUNT("faults.reaped", reaped);
  MMX_OBS_COUNT("faults.escalations", escalations);
  MMX_OBS_COUNT("faults.rejoin_attempts", rejoin_attempts);
  MMX_OBS_COUNT("faults.recoveries", recoveries);
  MMX_OBS_COUNT("faults.recovery_rounds_sum", recovery_rounds_sum);
}

FaultPlan FaultPlan::compile(const FaultConfig& cfg, double duration_s, std::uint64_t seed) {
  validate(cfg);
  if (duration_s <= 0.0) throw std::invalid_argument("FaultPlan: duration_s must be > 0");

  FaultPlan plan;
  plan.fault_seed_ = Rng::derive_seed(seed, kFaultDomain);
  if (!cfg.enabled) return plan;

  std::uint64_t next_index = kEventStreamBase;
  const auto draw_kind = [&](FaultEvent::Kind kind, double rate_hz, double event_duration_s,
                             std::uint64_t kind_stream) {
    const auto n = static_cast<std::uint64_t>(std::llround(rate_hz * duration_s));
    Rng rng = Rng::stream(plan.fault_seed_, kind_stream);
    for (std::uint64_t i = 0; i < n; ++i) {
      // rng_index is assigned in draw order, before the sort below, so
      // an event keeps its stream identity wherever it lands in time.
      plan.events_.push_back(
          {kind, rng.uniform(0.0, duration_s), event_duration_s, next_index++});
    }
  };
  draw_kind(FaultEvent::Kind::kStorm, cfg.storm_rate_hz, cfg.storm_duration_s, 0);
  draw_kind(FaultEvent::Kind::kPowerCycle, cfg.power_cycle_rate_hz, cfg.power_cycle_down_s, 1);
  draw_kind(FaultEvent::Kind::kRevoke, cfg.revoke_rate_hz, 0.0, 2);

  std::sort(plan.events_.begin(), plan.events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.t_s != b.t_s) return a.t_s < b.t_s;
              return a.rng_index < b.rng_index;  // total order: indices are unique
            });
  return plan;
}

void FaultInjector::arm(EventQueue& q, FaultHooks hooks) {
  hooks_ = std::move(hooks);
  for (const FaultEvent& ev : plan_.events()) {
    q.schedule_at(ev.t_s, [this, &ev] {
      MMX_OBS_COUNT("faults.events_fired", 1);
      Rng rng = Rng::stream(plan_.fault_seed(), ev.rng_index);
      switch (ev.kind) {
        case FaultEvent::Kind::kStorm:
          if (hooks_.storm_begin) hooks_.storm_begin(rng, ev.duration_s);
          break;
        case FaultEvent::Kind::kPowerCycle:
          if (hooks_.power_cycle) hooks_.power_cycle(rng, ev.duration_s);
          break;
        case FaultEvent::Kind::kRevoke:
          if (hooks_.revoke) hooks_.revoke(rng);
          break;
      }
    });
  }
  MMX_OBS_COUNT("faults.events_armed", plan_.events().size());
}

}  // namespace mmx::sim
