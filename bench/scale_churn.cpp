// Scale lane: 10^4-node join/leave/move/block churn (docs/SCALING.md).
//
// Runs the ScaleScenario — a V-band AP serving `--nodes` things under
// crowd blockage and population churn — and reports steady-state link
// measurement throughput. The same scenario runs with the link cache on
// (default) or off (`--cache off`); every simulated quantity is
// bit-identical between the two arms (pinned by tests/sim/
// scale_scenario_test.cpp), so the JSON reports differ only in timing
// and tools/bench_gate can gate the cached arm's speedup:
//
//   scale_churn --cache off --json BENCH_scale_base.json
//   scale_churn --cache on  --json BENCH_scale.json
//   bench_gate bench/gates.txt   # BENCH_scale.json / BENCH_scale_base.json >= 5
//
// JSON semantics: "trials" = total link measurements, "trials_per_s" =
// measurements per second of measurement-phase wall clock (join storms
// and event bookkeeping excluded — they are identical in both arms and
// are not what the cache accelerates).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "mmx/sim/scale_scenario.hpp"
#include "mmx/sim/sweep.hpp"

#include "harness.hpp"

using namespace mmx;

int main(int argc, char** argv) {
  std::string nodes_arg = "10000";
  std::string cache_arg = "on";
  std::string faults_arg = "off";
  std::string overload_arg = "off";
  const bench::Options opt = bench::parse_args(
      argc, argv, 128, 4242, "measurement rounds (0.0625 s apart)",
      {{"--nodes", "N   resident things (default 10000)", &nodes_arg},
       {"--cache", "on|off   evaluate links through the LinkCache (default on)", &cache_arg},
       {"--faults", "on|off   inject the default fault storm (default off)", &faults_arg},
       {"--overload", "on|off   run the pinned 3x oversubscription lane "
                      "(make_overload_config; ignores --nodes; default off)", &overload_arg}});

  char* end = nullptr;
  const unsigned long long nodes = std::strtoull(nodes_arg.c_str(), &end, 10);
  if (end == nodes_arg.c_str() || *end != '\0' || nodes == 0) {
    std::fprintf(stderr, "scale_churn: --nodes expects a positive integer, got '%s'\n",
                 nodes_arg.c_str());
    return 2;
  }
  if (cache_arg != "on" && cache_arg != "off") {
    std::fprintf(stderr, "scale_churn: --cache expects on|off, got '%s'\n", cache_arg.c_str());
    return 2;
  }
  if (faults_arg != "on" && faults_arg != "off") {
    std::fprintf(stderr, "scale_churn: --faults expects on|off, got '%s'\n", faults_arg.c_str());
    return 2;
  }
  if (overload_arg != "on" && overload_arg != "off") {
    std::fprintf(stderr, "scale_churn: --overload expects on|off, got '%s'\n",
                 overload_arg.c_str());
    return 2;
  }
  const bool faults_on = faults_arg == "on";
  const bool overload_on = overload_arg == "on";

  sim::ScaleConfig cfg = overload_on ? sim::make_overload_config()
                                     : sim::make_scale_config(static_cast<std::size_t>(nodes));
  cfg.use_cache = cache_arg == "on";
  cfg.refresh_threads = opt.sweep.threads;
  cfg.duration_s = cfg.measure_interval_s * static_cast<double>(opt.sweep.trials);
  cfg.join_window_s = std::min(cfg.join_window_s, cfg.duration_s);
  if (faults_on) cfg.faults = sim::make_fault_storm();

  std::printf("=== Scale churn: %zu things, cache %s, faults %s, overload %s ===\n", cfg.nodes,
              cache_arg.c_str(), faults_arg.c_str(), overload_arg.c_str());
  const sim::ScaleScenario scenario(cfg);
  const sim::ScaleReport rep = scenario.run(opt.sweep.seed);

  std::printf("  joins %zu (granted %zu, denied %zu)  leaves %zu  moves %zu\n", rep.joins,
              rep.granted, rep.denied, rep.leaves, rep.moves);
  std::printf("  rounds %zu  link evals %zu  frame evals %zu  crowd updates %zu\n",
              rep.measure_rounds, rep.link_evals, rep.frame_evals, rep.blocker_updates);
  std::printf("  cache: refills %zu (repriced %llu)  hit rate %.3f  revalidated %llu"
              "  invalidated %llu\n",
              rep.cache_refills, static_cast<unsigned long long>(rep.cache.repriced),
              rep.cache.hit_rate(),
              static_cast<unsigned long long>(rep.cache.revalidated),
              static_cast<unsigned long long>(rep.cache.invalidated));
  std::printf("  links: mean SNR %.1f dB  mean joint BER %.2e  mean rate %.2f Mbps\n",
              rep.mean_snr_db, rep.mean_joint_ber, rep.mean_rate_bps / 1e6);
  std::printf("  ARQ: tx %llu  delivered %llu  gave up %llu  delivery %.4f\n",
              static_cast<unsigned long long>(rep.arq.transmissions),
              static_cast<unsigned long long>(rep.arq.delivered),
              static_cast<unsigned long long>(rep.arq.gave_up), rep.delivery_ratio);
  const double mean_recovery_rounds =
      rep.faults.recoveries > 0
          ? static_cast<double>(rep.faults.recovery_rounds_sum) /
                static_cast<double>(rep.faults.recoveries)
          : 0.0;
  if (faults_on) {
    std::printf("  faults: storms %llu  cycles %llu  revoked %llu  acks lost %llu\n",
                static_cast<unsigned long long>(rep.faults.storms),
                static_cast<unsigned long long>(rep.faults.power_cycles),
                static_cast<unsigned long long>(rep.faults.revocations),
                static_cast<unsigned long long>(rep.faults.acks_lost));
    std::printf("  recovery: reaped %llu  escalations %llu  rejoins %llu"
                "  recovered %llu (mean %.1f rounds)\n",
                static_cast<unsigned long long>(rep.faults.reaped),
                static_cast<unsigned long long>(rep.faults.escalations),
                static_cast<unsigned long long>(rep.faults.rejoin_attempts),
                static_cast<unsigned long long>(rep.faults.recoveries), mean_recovery_rounds);
  }
  if (overload_on) {
    std::printf("  overload: demoted %llu  shed %llu  promoted %llu  compactions %llu"
                "  retunes %llu\n",
                static_cast<unsigned long long>(rep.overload.demotions),
                static_cast<unsigned long long>(rep.overload.shed_demotions),
                static_cast<unsigned long long>(rep.overload.promotions),
                static_cast<unsigned long long>(rep.overload.compactions),
                static_cast<unsigned long long>(rep.overload.retunes));
    std::printf("  admission: admitted %zu (%zu below request)  hinted denies %llu"
                "  backoff retries %llu\n",
                rep.overload.admitted, rep.overload.admitted_below_request,
                static_cast<unsigned long long>(rep.overload.hinted_denies),
                static_cast<unsigned long long>(rep.overload.backoff_retries));
    std::printf("  rates: min %.0f bps (floor %.0f)  mean %.0f bps  invariant violations %llu\n",
                rep.overload.min_admitted_rate_bps, cfg.sim.init.overload.min_rate_bps,
                rep.overload.mean_admitted_rate_bps,
                static_cast<unsigned long long>(rep.overload.invariant_violations));
  }

  const double per_s = rep.measure_wall_s > 0.0
                           ? static_cast<double>(rep.link_evals) / rep.measure_wall_s
                           : 0.0;
  const std::size_t threads = sim::SweepRunner(opt.sweep).threads();
  bench::report_timing_line(rep.link_evals, threads, rep.measure_wall_s, per_s);

  const char* bench_name = overload_on ? (faults_on ? "scale_churn_overload_faults"
                                                    : "scale_churn_overload")
                                       : (faults_on ? "scale_churn_faults" : "scale_churn");
  bench::JsonReport report(bench_name, opt);
  report.set_timing(rep.link_evals, threads, rep.measure_wall_s, per_s);
  report.add_scalar("nodes", static_cast<double>(cfg.nodes));
  report.add_scalar("cache_on", cfg.use_cache ? 1.0 : 0.0);
  report.add_scalar("faults_on", faults_on ? 1.0 : 0.0);
  report.add_scalar("overload_on", overload_on ? 1.0 : 0.0);
  report.add_scalar("granted", static_cast<double>(rep.granted));
  report.add_scalar("denied", static_cast<double>(rep.denied));
  report.add_scalar("leaves", static_cast<double>(rep.leaves));
  report.add_scalar("moves", static_cast<double>(rep.moves));
  report.add_scalar("link_evals", static_cast<double>(rep.link_evals));
  report.add_scalar("frame_evals", static_cast<double>(rep.frame_evals));
  report.add_scalar("cache_refills", static_cast<double>(rep.cache_refills));
  report.add_scalar("cache_repriced", static_cast<double>(rep.cache.repriced));
  report.add_scalar("cache_legs_reused", static_cast<double>(rep.cache.legs_reused));
  report.add_scalar("cache_hit_rate", rep.cache.hit_rate());
  report.add_scalar("mean_snr_db", rep.mean_snr_db);
  report.add_scalar("mean_joint_ber", rep.mean_joint_ber);
  report.add_scalar("mean_rate_bps", rep.mean_rate_bps);
  report.add_scalar("delivery_ratio", rep.delivery_ratio);
  if (faults_on) {
    report.add_scalar("fault_storms", static_cast<double>(rep.faults.storms));
    report.add_scalar("fault_power_cycles", static_cast<double>(rep.faults.power_cycles));
    report.add_scalar("fault_revocations", static_cast<double>(rep.faults.revocations));
    report.add_scalar("fault_reaped", static_cast<double>(rep.faults.reaped));
    report.add_scalar("fault_escalations", static_cast<double>(rep.faults.escalations));
    report.add_scalar("fault_rejoins", static_cast<double>(rep.faults.rejoin_attempts));
    report.add_scalar("fault_recoveries", static_cast<double>(rep.faults.recoveries));
    report.add_scalar("mean_recovery_rounds", mean_recovery_rounds);
  }
  if (overload_on) {
    report.add_scalar("ov_demotions", static_cast<double>(rep.overload.demotions));
    report.add_scalar("ov_shed_demotions", static_cast<double>(rep.overload.shed_demotions));
    report.add_scalar("ov_promotions", static_cast<double>(rep.overload.promotions));
    report.add_scalar("ov_compactions", static_cast<double>(rep.overload.compactions));
    report.add_scalar("ov_retunes", static_cast<double>(rep.overload.retunes));
    report.add_scalar("ov_hinted_denies", static_cast<double>(rep.overload.hinted_denies));
    report.add_scalar("ov_backoff_retries", static_cast<double>(rep.overload.backoff_retries));
    report.add_scalar("ov_invariant_violations",
                      static_cast<double>(rep.overload.invariant_violations));
    report.add_scalar("ov_admitted", static_cast<double>(rep.overload.admitted));
    report.add_scalar("ov_admitted_below_request",
                      static_cast<double>(rep.overload.admitted_below_request));
    report.add_scalar("ov_min_admitted_rate_bps", rep.overload.min_admitted_rate_bps);
    report.add_scalar("ov_mean_admitted_rate_bps", rep.overload.mean_admitted_rate_bps);
    report.add_scalar("ov_rate_floor_bps", cfg.sim.init.overload.min_rate_bps);
    // Admission loop sizes (JSON only, so stdout stays the quoted block).
    report.add_scalar("ov_sdm_requests", static_cast<double>(rep.admission_work.sdm_requests));
    report.add_scalar("ov_sdm_groups_scanned",
                      static_cast<double>(rep.admission_work.sdm_groups_scanned));
    report.add_scalar("ov_retune_visits", static_cast<double>(rep.admission_work.retune_visits));
  }
  return report.write() ? 0 : 1;
}
