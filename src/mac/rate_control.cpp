#include "mmx/mac/rate_control.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmx::mac {

// Consecutive losses before the controller cuts the rate.
constexpr int kFailuresToBackoff = 2;

RateController::RateController(double initial_rate_bps, RateControlConfig cfg)
    : cfg_(cfg), rate_(initial_rate_bps) {
  // Each test is phrased to fail on NaN.
  if (!(cfg.min_rate_bps > 0.0 && cfg.min_rate_bps <= cfg.max_rate_bps))
    throw std::invalid_argument("RateController: need 0 < min <= max rate");
  if (!(cfg.backoff_factor > 0.0 && cfg.backoff_factor < 1.0))
    throw std::invalid_argument("RateController: backoff factor must be in (0,1)");
  if (!(cfg.recovery_step_bps > 0.0))
    throw std::invalid_argument("RateController: recovery step must be > 0");
  if (!(initial_rate_bps >= cfg.min_rate_bps && initial_rate_bps <= cfg.max_rate_bps))
    throw std::invalid_argument("RateController: initial rate outside [min, max]");
}

void RateController::set_max_rate_bps(double max_rate_bps) {
  cfg_.max_rate_bps = std::max(cfg_.min_rate_bps, max_rate_bps);
  rate_ = std::clamp(rate_, cfg_.min_rate_bps, cfg_.max_rate_bps);
}

void RateController::on_success() {
  fails_ = 0;
  rate_ = std::min(cfg_.max_rate_bps, rate_ + cfg_.recovery_step_bps);
}

void RateController::on_failure() {
  if (++fails_ < kFailuresToBackoff) return;
  fails_ = 0;
  rate_ = std::max(cfg_.min_rate_bps, rate_ * cfg_.backoff_factor);
  ++backoffs_;
}

}  // namespace mmx::mac
