#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

const std::vector<WorkloadShape>& workloads() {
  // Each digest is ScaleScenario::run's report at kDefaultSeed. A
  // performance change must leave it unchanged; a change that moves a
  // simulated output on purpose re-pins it and says so.
  static const std::vector<WorkloadShape> kAll = {
      {.name = "join_storm", .things = 10000, .rounds = 128,
       .pinned_digest = 0x30603e17c0b02e8bULL},
      {.name = "steady_poll", .things = 2000, .rounds = 4096,
       .pinned_digest = 0xf17cc4d35f72e5ccULL},
      {.name = "fault_storm", .things = 5000, .rounds = 128, .faults = true,
       .pinned_digest = 0x6f72417778b143ffULL},
      {.name = "overload", .things = 1200, .rounds = 256, .overload = true,
       .pinned_digest = 0x506a7fcfd24abeacULL},
  };
  return kAll;
}

std::optional<WorkloadShape> find_workload(const std::string& name) {
  for (const WorkloadShape& w : workloads())
    if (w.name == name) return w;
  return std::nullopt;
}

mmx::sim::ScaleConfig make_config(const WorkloadShape& shape) {
  mmx::sim::ScaleConfig cfg;
  if (shape.overload) {
    cfg = mmx::sim::make_overload_config(3.0);
    // Widen the 70 MHz slice so the population is large enough to time:
    // the oversubscription stays 3x, so the ladder does the same kind of
    // work on more things.
    const double per_thing_hz =
        cfg.node_rate_bps / cfg.sim.init.spectral_efficiency + cfg.sim.init.guard_hz;
    cfg.sim.band_high_hz =
        cfg.sim.band_low_hz + static_cast<double>(shape.things) / 3.0 * per_thing_hz;
    cfg.nodes = shape.things;
  } else {
    cfg = mmx::sim::make_scale_config(shape.things);
  }
  if (shape.faults) cfg.faults = mmx::sim::make_fault_storm();
  cfg.use_cache = true;
  cfg.refresh_threads = 1;
  cfg.duration_s = cfg.measure_interval_s * static_cast<double>(shape.rounds);
  cfg.join_window_s = std::min(cfg.join_window_s, cfg.duration_s);
  return cfg;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u(std::uint64_t v) { bytes(&v, sizeof v); }
  void d(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u(bits);
  }
};

}  // namespace

std::uint64_t report_digest(const mmx::sim::ScaleReport& r) {
  Fnv f;
  for (const std::uint64_t v :
       {std::uint64_t{r.joins}, std::uint64_t{r.granted}, std::uint64_t{r.denied},
        std::uint64_t{r.leaves}, std::uint64_t{r.moves}, std::uint64_t{r.blocker_updates},
        std::uint64_t{r.measure_rounds}, std::uint64_t{r.link_evals}, r.arq.transmissions,
        r.arq.delivered, r.arq.gave_up, r.arq.duplicate_acks})
    f.u(v);
  const mmx::sim::FaultStats& fs = r.faults;
  for (const std::uint64_t v :
       {fs.storms, fs.power_cycles, fs.revocations, fs.acks_lost, fs.acks_corrupted, fs.reaped,
        fs.escalations, fs.rejoin_attempts, fs.recoveries, fs.recovery_rounds_sum})
    f.u(v);
  const mmx::sim::OverloadLaneReport& o = r.overload;
  for (const std::uint64_t v :
       {o.demotions, o.shed_demotions, o.promotions, o.compactions, o.retunes, o.hinted_denies,
        o.backoff_retries, o.invariant_violations, std::uint64_t{o.admitted},
        std::uint64_t{o.admitted_below_request}})
    f.u(v);
  for (const double v : {o.hint_delay_sum_s, o.min_admitted_rate_bps, o.mean_admitted_rate_bps,
                         r.mean_snr_db, r.mean_joint_ber, r.mean_rate_bps, r.delivery_ratio})
    f.d(v);
  return f.h;
}

std::vector<std::string> check_report(const WorkloadShape& shape, std::uint64_t seed,
                                      const mmx::sim::ScaleReport& rep) {
  std::vector<std::string> causes;
  if (rep.joins != rep.granted + rep.denied)
    causes.push_back("joins " + std::to_string(rep.joins) + " != granted " +
                     std::to_string(rep.granted) + " + denied " + std::to_string(rep.denied));
  if (rep.overload.invariant_violations != 0)
    causes.push_back("allocator invariant violations: " +
                     std::to_string(rep.overload.invariant_violations));
  if (!(rep.delivery_ratio >= 0.0 && rep.delivery_ratio <= 1.0))
    causes.push_back("delivery_ratio outside [0, 1]: " + std::to_string(rep.delivery_ratio));
  if (seed == kDefaultSeed && shape.pinned_digest != 0) {
    const std::uint64_t got = report_digest(rep);
    if (got != shape.pinned_digest) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "report digest 0x%016llx != pinned 0x%016llx",
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(shape.pinned_digest));
      causes.emplace_back(buf);
    }
  }
  return causes;
}

}  // namespace perfbench
