// Link adaptation: AIMD symbol-rate controller.
//
// mmX's node can trade rate for robustness for free — halving the SPDT
// toggle rate doubles the energy per symbol the envelope detector
// integrates (the paper's §9.1 note that the data rate is a switch
// setting, not a hardware change). This controller backs the rate off
// multiplicatively on loss and recovers it additively on success,
// bounded by the channel grant and the switch cap.
#pragma once

#include <cstdint>

namespace mmx::mac {

struct RateControlConfig {
  double min_rate_bps = 1e6;
  double max_rate_bps = 100e6;       ///< SPDT toggle cap (paper §9.1)
  double backoff_factor = 0.5;       ///< multiplicative decrease
  double recovery_step_bps = 2e6;    ///< additive increase per success
};

class RateController {
 public:
  RateController(double initial_rate_bps, RateControlConfig cfg = {});

  void on_success();
  void on_failure();

  /// Re-bound the controller to a new grant ceiling (overload demotion
  /// shrinks it, promotion raises it). The current rate is clamped into
  /// the new [min, max]; AIMD state is otherwise preserved. The cap
  /// never drops below min_rate_bps — a demotion floor at or under the
  /// AIMD minimum pins the controller to min_rate_bps.
  void set_max_rate_bps(double max_rate_bps);

  double rate_bps() const { return rate_; }
  int consecutive_failures() const { return fails_; }
  /// Multiplicative decreases taken so far. Aggregated onto the global
  /// `mac.rate.backoffs` obs counter once per run by the scale scenario;
  /// the AIMD step itself carries no instrumentation.
  std::uint64_t backoffs() const { return backoffs_; }
  const RateControlConfig& config() const { return cfg_; }

 private:
  RateControlConfig cfg_;
  double rate_;
  int fails_ = 0;
  std::uint64_t backoffs_ = 0;
};

}  // namespace mmx::mac
