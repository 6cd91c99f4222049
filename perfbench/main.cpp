// mmx_perfbench: the scale benchmark's measuring program (README.md).
//
//   mmx_perfbench setup    --workload W --t0-ns N
//   mmx_perfbench run      --workload W --seed S --seconds T
//   mmx_perfbench trace    --workload W --seed S [--json PATH]
//   mmx_perfbench selftest
//
// `setup` reports the seconds from N (CLOCK_MONOTONIC, taken by the
// launcher just before it started this process) to the point where
// ScaleScenario::run would be called. `run` calls ScaleScenario::run
// repeatedly for about T seconds, untraced, first at S and then at seeds
// derived from S, and reports the median.
// `trace` runs once untraced, then once through the traced replay, and
// reports the per-layer table. Each mode prints one JSON object as its
// last line of stdout; failure causes go to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "mmx/common/rng.hpp"
#include "mmx/sim/scale_scenario.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;
using Clock = std::chrono::steady_clock;

/// Layer spans must cover this share of a full-size traced wall; what
/// they miss is scenario glue no layer owns.
constexpr double kMinCoverage = 0.95;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for empty input.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

void print_metrics_json(std::FILE* out, const Metrics& m) {
  std::fputc('{', out);
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                 name.c_str(), metric.value, metric.unit);
    first = false;
  }
  std::fputc('}', out);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": ",
              correct ? "true" : "false", attempted, failed);
  print_metrics_json(stdout, m);
  std::printf("}\n");
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  long long t0_ns = -1;
  std::string json_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mmx_perfbench: %s\n"
               "usage: mmx_perfbench setup --workload W --t0-ns N\n"
               "       mmx_perfbench run --workload W [--seed S] [--seconds T]\n"
               "       mmx_perfbench trace --workload W [--seed S] [--json PATH]\n"
               "       mmx_perfbench selftest\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed expects an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0)) usage("--seconds expects a number > 0");
    } else if (flag == "--t0-ns") {
      a.t0_ns = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || a.t0_ns < 0) usage("--t0-ns expects a time in ns");
    } else if (flag == "--json") {
      a.json_path = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

perfbench::WorkloadShape require_workload(const Args& a) {
  const auto w = perfbench::find_workload(a.workload);
  if (!w) usage(("unknown workload '" + a.workload + "'").c_str());
  return *w;
}

/// One untraced ScaleScenario::run plus its output check.
struct Outcome {
  mmx::sim::ScaleReport report;
  double run_s = 0.0;
  std::vector<std::string> causes;  ///< empty = passed
};

Outcome run_once(const perfbench::WorkloadShape& w, const mmx::sim::ScaleScenario& scenario,
                 std::uint64_t seed) {
  Outcome o;
  try {
    const auto t0 = Clock::now();
    o.report = scenario.run(seed);
    o.run_s = seconds_since(t0);
    o.causes = perfbench::check_report(w, seed, o.report);
  } catch (const std::exception& e) {
    o.causes.push_back(std::string("ScaleScenario::run threw: ") + e.what());
  }
  for (const std::string& c : o.causes)
    std::fprintf(stderr, "mmx_perfbench: %s seed %llu: %s\n", w.name.c_str(),
                 static_cast<unsigned long long>(seed), c.c_str());
  return o;
}

int mode_setup(const Args& a) {
  if (a.t0_ns < 0) usage("setup needs --t0-ns");
  const perfbench::WorkloadShape w = require_workload(a);
  const mmx::sim::ScaleScenario scenario(perfbench::make_config(w));
  // steady_clock is CLOCK_MONOTONIC on Linux, the clock the launcher read.
  const double now_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
  std::printf("{\"setup_s\": %.9f, \"nodes\": %zu}\n",
              (now_ns - static_cast<double>(a.t0_ns)) * 1e-9, scenario.config().nodes);
  return 0;
}

int mode_run(const Args& a) {
  const perfbench::WorkloadShape w = require_workload(a);
  const mmx::sim::ScaleScenario scenario(perfbench::make_config(w));
  const auto start = Clock::now();
  std::vector<double> samples;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Repeat while the next run is expected to end no later than half a run
  // past the budget (at least once), so the runs fill the budget on
  // average. Run i > 0 takes the i-th seed derived from --seed, so the
  // median is over several inputs: on fault_storm one seed's run can cost
  // a fifth more than another's, and a median over one seed would carry
  // that whole into the spread between seeds.
  double total_s = 0.0;
  double first_run_rss_mb = 0.0;
  while (attempted == 0 ||
         seconds_since(start) + 0.5 * total_s / static_cast<double>(attempted) <= a.seconds) {
    const std::uint64_t seed =
        attempted == 0 ? a.seed : mmx::Rng::derive_seed(a.seed, attempted);
    const auto t0 = Clock::now();
    const Outcome o = run_once(w, scenario, seed);
    total_s += seconds_since(t0);
    // The peak after one run: later runs reuse a heap whose fragmentation
    // depends on how many runs fit, which would make the peak noisy.
    if (attempted == 0) first_run_rss_mb = peak_rss_mb();
    ++attempted;
    if (o.causes.empty())
      samples.push_back(o.run_s);
    else
      ++failed;
  }
  Metrics m;
  if (!samples.empty()) m["run_s"] = {quantile(samples, 0.5), "s"};
  m["peak_rss_mb"] = {first_run_rss_mb, "MB"};
  std::fprintf(stderr, "mmx_perfbench: %s seed %llu: %zu runs, run_s", w.name.c_str(),
               static_cast<unsigned long long>(a.seed), attempted);
  for (const double s : samples) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  print_result(failed == 0, attempted, failed, m);
  return 0;
}

/// Per-layer metrics from a traced replay whose report matched, plus the
/// stderr table.
Metrics layer_metrics(const perfbench::TraceResult& t, double run_s) {
  const auto idx = [](Layer l) { return static_cast<std::size_t>(l); };
  const double wall = t.wall_s;
  const double coverage = perfbench::coverage(t);
  Metrics m;
  for (std::size_t l = 0; l < idx(Layer::kCount); ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer == Layer::kScenario) continue;
    const std::string name = perfbench::kLayerNames[l];
    if (layer != Layer::kEventQueue)
      m[name + ".calls"] = {static_cast<double>(t.calls[l]), "count"};
    m[name + ".self_s"] = {t.self_s[l], "s"};
    m[name + ".share"] = {t.self_s[l] / wall, "ratio"};
  }
  const auto& adm_s = t.span_s[idx(Layer::kAdmission)];
  m["mac.admission.p50_us"] = {quantile(adm_s, 0.50) * 1e6, "us"};
  m["mac.admission.p99_us"] = {quantile(adm_s, 0.99) * 1e6, "us"};
  m["mac.admission.grant_ratio"] = {
      t.admits == 0 ? 0.0 : static_cast<double>(t.grants) / static_cast<double>(t.admits),
      "ratio"};
  m["mac.admission.sdm_grants"] = {static_cast<double>(t.sdm_grants), "count"};
  m["mac.admission.demoted"] = {static_cast<double>(t.demoted), "count"};
  m["mac.ladder.retunes"] = {static_cast<double>(t.retunes), "count"};
  m["sim.link_cache.refills"] = {static_cast<double>(t.refills), "count"};
  m["sim.link_cache.hit_rate"] = {t.hit_rate, "ratio"};
  const std::uint64_t links = t.calls[idx(Layer::kLink)];
  m["sim.link.ns_per_call"] = {
      links == 0 ? 0.0 : t.self_s[idx(Layer::kLink)] / static_cast<double>(links) * 1e9, "ns"};
  m["mac.thing.retx"] = {static_cast<double>(t.retx), "count"};
  m["sim.event_queue.events"] = {static_cast<double>(t.events), "count"};
  m["sim.event_queue.cancels"] = {static_cast<double>(t.cancels), "count"};
  m["sim.round.p50_ms"] = {quantile(t.round_ms, 0.50), "ms"};
  m["sim.round.p99_ms"] = {quantile(t.round_ms, 0.99), "ms"};
  m["sim.ids.high_water"] = {static_cast<double>(t.id_high_water), "count"};
  m["sim.ids.live_peak"] = {static_cast<double>(t.live_peak), "count"};
  m["trace.coverage"] = {coverage, "ratio"};
  m["trace.overhead_s"] = {wall - run_s, "s"};
  m["trace.wall_s"] = {wall, "s"};

  std::fprintf(stderr, "%-18s %10s %10s %7s %11s %11s\n", "layer", "calls", "self_s", "share",
               "p50_us", "p99_us");
  for (std::size_t l = 0; l < idx(Layer::kCount); ++l) {
    const auto& spans = t.span_s[l];
    std::fprintf(stderr, "%-18s %10llu %10.4f %7.4f %11.2f %11.2f\n", perfbench::kLayerNames[l],
                 static_cast<unsigned long long>(t.calls[l]), t.self_s[l], t.self_s[l] / wall,
                 quantile(spans, 0.50) * 1e6, quantile(spans, 0.99) * 1e6);
  }
  std::fprintf(stderr, "trace: wall %.4f s, run_s %.4f s, coverage %.4f, overhead %.4f s\n", wall,
               run_s, coverage, wall - run_s);
  return m;
}

bool write_trace_json(const std::string& path, const perfbench::WorkloadShape& w,
                      std::uint64_t seed, const perfbench::TraceResult& t, const Metrics& m) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"layers\": {", w.name.c_str(),
               static_cast<unsigned long long>(seed));
  for (std::size_t l = 0; l < t.self_s.size(); ++l) {
    std::fprintf(f,
                 "%s\"%s\": {\"calls\": %llu, \"spans\": %zu, \"self_s\": %.9g, \"share\": %.6g, "
                 "\"p50_us\": %.6g, \"p99_us\": %.6g}",
                 l == 0 ? "" : ", ", perfbench::kLayerNames[l],
                 static_cast<unsigned long long>(t.calls[l]), t.span_s[l].size(), t.self_s[l],
                 t.self_s[l] / t.wall_s, quantile(t.span_s[l], 0.50) * 1e6,
                 quantile(t.span_s[l], 0.99) * 1e6);
  }
  std::fprintf(f, "}, \"metrics\": ");
  print_metrics_json(f, m);
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

int mode_trace(const Args& a) {
  const perfbench::WorkloadShape w = require_workload(a);
  const mmx::sim::ScaleConfig cfg = perfbench::make_config(w);
  const mmx::sim::ScaleScenario scenario(cfg);
  const Outcome o = run_once(w, scenario, a.seed);
  if (!o.causes.empty()) {
    // Nothing to compare the replay against.
    print_result(false, 1, 1, {});
    return 0;
  }
  std::string cause;
  Metrics m;
  try {
    const perfbench::TraceResult t = perfbench::traced_replay(cfg, a.seed);
    if (!(t.report == o.report)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "traced replay report differs from ScaleScenario::run "
                    "(digest 0x%016llx vs 0x%016llx)",
                    static_cast<unsigned long long>(perfbench::report_digest(t.report)),
                    static_cast<unsigned long long>(perfbench::report_digest(o.report)));
      cause = buf;
    } else if (perfbench::coverage(t) < kMinCoverage) {
      cause = "trace coverage " + std::to_string(perfbench::coverage(t)) + " < " +
              std::to_string(kMinCoverage);
    } else {
      m = layer_metrics(t, o.run_s);
      if (!a.json_path.empty() && !write_trace_json(a.json_path, w, a.seed, t, m))
        cause = "cannot write " + a.json_path;
    }
  } catch (const std::exception& e) {
    cause = std::string("traced replay threw: ") + e.what();
  }
  if (!cause.empty()) {
    std::fprintf(stderr, "mmx_perfbench: %s seed %llu: %s\n", w.name.c_str(),
                 static_cast<unsigned long long>(a.seed), cause.c_str());
    m.clear();
  }
  print_result(cause.empty(), 2, cause.empty() ? 0 : 1, m);
  return 0;
}

/// Every workload shape scaled down to a fraction of a second, at the
/// default and a held-out seed: replay equality, coverage, invariants.
int mode_selftest() {
  // Constructing the simulator is a fixed cost no layer owns, and these
  // runs are too short to amortize it, so the bar is below kMinCoverage.
  constexpr double kMinSmallCoverage = 0.80;
  int failures = 0;
  for (const perfbench::WorkloadShape& full : perfbench::workloads()) {
    perfbench::WorkloadShape w = full;
    w.things = std::max<std::size_t>(120, full.things / 10);
    w.rounds = std::max<std::size_t>(32, full.rounds / 16);
    w.pinned_digest = 0;
    const mmx::sim::ScaleConfig cfg = perfbench::make_config(w);
    const mmx::sim::ScaleScenario scenario(cfg);
    for (const std::uint64_t seed : {perfbench::kDefaultSeed, std::uint64_t{9001}}) {
      const Outcome o = run_once(w, scenario, seed);
      std::vector<std::string> causes = o.causes;
      if (causes.empty()) {
        try {
          const perfbench::TraceResult t = perfbench::traced_replay(cfg, seed);
          const double coverage = perfbench::coverage(t);
          if (!(t.report == o.report)) causes.emplace_back("traced replay report differs");
          if (coverage < kMinSmallCoverage)
            causes.push_back("trace coverage " + std::to_string(coverage) + " < " +
                             std::to_string(kMinSmallCoverage));
          std::fprintf(stderr,
                       "selftest %-12s seed %-5llu things %5zu rounds %4zu joins %6zu "
                       "coverage %.3f %s\n",
                       w.name.c_str(), static_cast<unsigned long long>(seed), w.things,
                       w.rounds, o.report.joins, coverage, causes.empty() ? "ok" : "FAIL");
        } catch (const std::exception& e) {
          causes.push_back(std::string("traced replay threw: ") + e.what());
        }
      }
      for (const std::string& c : causes)
        std::fprintf(stderr, "selftest %s seed %llu: %s\n", w.name.c_str(),
                     static_cast<unsigned long long>(seed), c.c_str());
      if (!causes.empty()) ++failures;
    }
  }
  std::printf("{\"selftest_failures\": %d}\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.mode == "setup") return mode_setup(a);
  if (a.mode == "run") return mode_run(a);
  if (a.mode == "trace") return mode_trace(a);
  if (a.mode == "selftest") return mode_selftest();
  usage(("unknown mode '" + a.mode + "'").c_str());
}
