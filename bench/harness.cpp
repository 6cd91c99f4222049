#include "harness.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "build_info.hpp"
#include "mmx/obs/export.hpp"
#include "mmx/obs/obs.hpp"
#include "mmx/obs/trace.hpp"

namespace mmx::bench {

namespace {

[[noreturn]] void usage(const char* prog, std::size_t default_trials, std::uint64_t default_seed,
                        const char* trials_meaning, const std::vector<ExtraFlag>& extras,
                        int exit_code) {
  std::fprintf(stderr,
               "usage: %s [--trials N] [--threads K] [--seed S] [--json PATH]%s\n"
               "  --trials N    %s (default %zu)\n"
               "  --threads K   worker threads, 0 = one per hardware thread (default 0)\n"
               "  --seed S      root seed; trial i draws from Rng::stream(S, i) (default %llu)\n"
               "  --json PATH   write metric summaries + wall-clock + trials/s as JSON\n"
               "  --obs         collect mmx::obs instruments; adds an \"obs\" JSON block\n"
               "  --trace PATH  write chrome://tracing JSON of the run (implies --obs)\n",
               prog, extras.empty() ? "" : " [bench flags]", trials_meaning, default_trials,
               static_cast<unsigned long long>(default_seed));
  for (const ExtraFlag& e : extras)
    std::fprintf(stderr, "  %s %s\n", e.flag, e.help);
  std::exit(exit_code);
}

std::uint64_t parse_u64(const char* prog, const char* flag, const char* value) {
  // strtoull accepts a leading '-' and wraps it (-1 -> 2^64-1), and
  // saturates out-of-range input with ERANGE: reject both.
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || std::strchr(value, '-') != nullptr) {
    std::fprintf(stderr, "%s: %s expects a non-negative integer, got '%s'\n", prog, flag, value);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

// All doubles round-trip: 17 significant digits.
std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Compiler flag strings can contain quotes/backslashes; escape for JSON.
std::string json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

// The "obs" report block: every registered instrument plus the
// Prometheus text exposition, emitted only when --obs was given so
// reports without it stay byte-identical to those from before the obs
// layer existed.
std::string obs_json_block() {
  std::ostringstream counters, gauges, hists;
  std::size_t nc = 0, ng = 0, nh = 0;
  obs::Registry::global().for_each([&](const std::string& name, char kind,
                                       const obs::Counter* c, const obs::Gauge* g,
                                       const obs::Histogram* h) {
    if (kind == 'c') {
      counters << (nc++ == 0 ? "\n" : ",\n") << "      \"" << name << "\": " << c->value();
    } else if (kind == 'g') {
      gauges << (ng++ == 0 ? "\n" : ",\n") << "      \"" << name << "\": {\"value\": "
             << g->value() << ", \"max\": " << g->max_seen() << "}";
    } else {
      hists << (nh++ == 0 ? "\n" : ",\n") << "      {\"name\": \"" << name
            << "\", \"count\": " << h->count() << ", \"sum\": " << h->sum()
            << ", \"buckets\": [";
      bool first = true;
      for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
        const std::uint64_t n = h->bucket(i);
        if (n == 0) continue;
        hists << (first ? "" : ", ") << "{\"le\": " << obs::Histogram::upper_bound(i)
              << ", \"n\": " << n << "}";
        first = false;
      }
      hists << "]}";
    }
  });
  std::ostringstream out;
  out << "  \"obs\": {\n";
  out << "    \"enabled\": " << (obs::enabled() ? "true" : "false") << ",\n";
  out << "    \"dropped_events\": " << obs::TraceSink::global().dropped() << ",\n";
  out << "    \"counters\": {" << counters.str() << (nc == 0 ? "" : "\n    ") << "},\n";
  out << "    \"gauges\": {" << gauges.str() << (ng == 0 ? "" : "\n    ") << "},\n";
  out << "    \"histograms\": [" << hists.str() << (nh == 0 ? "" : "\n    ") << "],\n";
  out << "    \"prometheus\": [";
  const std::vector<std::string> lines = obs::prometheus_lines();
  for (std::size_t i = 0; i < lines.size(); ++i)
    out << (i == 0 ? "\n" : ",\n") << "      \"" << json_escape(lines[i].c_str()) << "\"";
  out << (lines.empty() ? "" : "\n    ") << "]\n";
  out << "  }\n";
  return out.str();
}

}  // namespace

Options parse_args(int argc, char** argv, std::size_t default_trials,
                   std::uint64_t default_seed, const char* trials_meaning) {
  return parse_args(argc, argv, default_trials, default_seed, trials_meaning, {});
}

Options parse_args(int argc, char** argv, std::size_t default_trials,
                   std::uint64_t default_seed, const char* trials_meaning,
                   const std::vector<ExtraFlag>& extras) {
  Options opt;
  opt.sweep.trials = default_trials;
  opt.sweep.seed = default_seed;
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a value\n", prog, arg);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto extra = [&]() -> ExtraFlag const* {
      for (const ExtraFlag& e : extras)
        if (std::strcmp(arg, e.flag) == 0) return &e;
      return nullptr;
    };
    if (std::strcmp(arg, "--trials") == 0) {
      opt.sweep.trials = static_cast<std::size_t>(parse_u64(prog, arg, value()));
    } else if (std::strcmp(arg, "--threads") == 0) {
      opt.sweep.threads = static_cast<std::size_t>(parse_u64(prog, arg, value()));
    } else if (std::strcmp(arg, "--seed") == 0) {
      opt.sweep.seed = parse_u64(prog, arg, value());
    } else if (std::strcmp(arg, "--json") == 0) {
      opt.json_path = value();
    } else if (std::strcmp(arg, "--obs") == 0) {
      opt.obs = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      opt.trace_path = value();
      opt.obs = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(prog, default_trials, default_seed, trials_meaning, extras, 0);
    } else if (const ExtraFlag* e = extra()) {
      *e->value = value();
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", prog, arg);
      usage(prog, default_trials, default_seed, trials_meaning, extras, 2);
    }
  }
  if (opt.sweep.trials == 0) {
    std::fprintf(stderr, "%s: --trials must be >= 1\n", prog);
    std::exit(2);
  }
  if (opt.obs) {
    // Fresh run scope: instruments registered by earlier static init (or
    // a prior in-process run) start from zero, and the trace carries only
    // this run's events. Buffers stay at the sink's default capacity —
    // refill workers register a fresh buffer per parallel batch, so
    // oversizing every buffer multiplies into real allocation cost on
    // the measured path (and the default holds a full lane's events).
    obs::Registry::global().reset_values();
    obs::TraceSink::global().clear();
    obs::set_enabled(true);
  }
  return opt;
}

void report_timing_line(std::size_t trials, std::size_t threads_used, double wall_s,
                        double trials_per_s) {
  std::fprintf(stderr, "[sweep] trials=%zu threads=%zu wall=%.3fs (%.1f trials/s)\n", trials,
               threads_used, wall_s, trials_per_s);
}

JsonReport::JsonReport(std::string bench_name, const Options& options)
    : bench_name_(std::move(bench_name)),
      json_path_(options.json_path),
      trace_path_(options.trace_path),
      obs_enabled_(options.obs),
      seed_(options.sweep.seed) {}

void JsonReport::add_metric(const std::string& name, const std::vector<double>& samples) {
  metrics_.push_back(sim::summarize(name, samples));
}

void JsonReport::add_scalar(const std::string& name, double value) {
  scalars_.emplace_back(name, value);
}

void JsonReport::set_timing(std::size_t trials, std::size_t threads_used, double wall_s,
                            double trials_per_s) {
  trials_ = trials;
  threads_used_ = threads_used;
  wall_s_ = wall_s;
  trials_per_s_ = trials_per_s;
}

bool JsonReport::write() const {
  bool ok = true;
  if (!trace_path_.empty() && !obs::write_chrome_trace(trace_path_)) {
    std::fprintf(stderr, "warning: could not write chrome trace to '%s'\n", trace_path_.c_str());
    ok = false;
  }
  if (json_path_.empty()) return ok;
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"" << bench_name_ << "\",\n";
  out << "  \"trials\": " << trials_ << ",\n";
  out << "  \"threads\": " << threads_used_ << ",\n";
  out << "  \"seed\": " << seed_ << ",\n";
  out << "  \"wall_s\": " << json_double(wall_s_) << ",\n";
  out << "  \"trials_per_s\": " << json_double(trials_per_s_) << ",\n";
  out << "  \"scalars\": {";
  for (std::size_t i = 0; i < scalars_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << scalars_[i].first
        << "\": " << json_double(scalars_[i].second);
  }
  out << (scalars_.empty() ? "" : "\n  ") << "},\n";
  out << "  \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const sim::MetricSummary& m = metrics_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << m.name << "\", \"count\": " << m.count
        << ", \"mean\": " << json_double(m.mean) << ", \"median\": " << json_double(m.median)
        << ", \"p10\": " << json_double(m.p10) << ", \"p90\": " << json_double(m.p90)
        << ", \"min\": " << json_double(m.min) << ", \"max\": " << json_double(m.max) << "}";
  }
  out << (metrics_.empty() ? "" : "\n  ") << "],\n";
  // Run metadata last: tools/bench_gate key-scans the document, so the
  // gated keys above must appear before any free-form strings.
  out << "  \"meta\": {\"git_sha\": \"" << json_escape(kBuildGitSha) << "\", \"compiler\": \""
      << json_escape(kBuildCompiler) << "\", \"cxx_flags\": \"" << json_escape(kBuildCxxFlags)
      << "\", \"build_type\": \"" << json_escape(kBuildType)
      << "\", \"cpu_cores\": " << std::thread::hardware_concurrency() << "}"
      << (obs_enabled_ ? ",\n" : "\n");
  // The obs block sits after "meta" for the same reason meta sits last:
  // bench_gate key-scans the document and must see the gated
  // numeric keys before any free-form instrument names.
  if (obs_enabled_) out << obs_json_block();
  out << "}\n";
  std::ofstream file(json_path_);
  if (!file) {
    std::fprintf(stderr, "warning: could not write JSON report to '%s'\n", json_path_.c_str());
    return false;
  }
  file << out.str();
  return ok && static_cast<bool>(file);
}

}  // namespace mmx::bench
