// Sweep-engine determinism regression: the parallel Monte-Carlo runner
// is only trustworthy if the thread count is invisible in the numbers.
// Same seed => byte-identical results at 1, 2 and 8 workers, and the
// SweepRunner port of Fig. 11 must reproduce the pre-existing serial
// loop exactly — any drift silently invalidates every scaled-up figure.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mmx/baseline/fixed_beam.hpp"
#include "mmx/channel/blockage.hpp"
#include "mmx/channel/presets.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/phy/ber.hpp"
#include "mmx/sim/sweep.hpp"
#include "trace_paths.hpp"

namespace mmx::sim {
namespace {

/// Byte-exact equality: catches drift EXPECT_DOUBLE_EQ would forgive
/// (signed zeros, last-ulp noise from a reordered reduction).
bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(RngStream, IsAPureFunctionOfSeedAndIndex) {
  // Counter-based derivation: stream i must not depend on how many other
  // streams were created, in what order, or on any engine state.
  Rng late = Rng::stream(123, 7);
  Rng early = Rng::stream(123, 7);
  for (int i = 0; i < 100; ++i) {
    (void)Rng::stream(123, static_cast<std::uint64_t>(i));  // unrelated derivations
  }
  Rng after = Rng::stream(123, 7);
  const double a = late.uniform();
  EXPECT_EQ(a, early.uniform());
  EXPECT_EQ(a, after.uniform());
}

TEST(RngStream, DistinctIndicesGiveIndependentStreams) {
  Rng s0 = Rng::stream(123, 0);
  Rng s1 = Rng::stream(123, 1);
  std::vector<double> d0(64);
  std::vector<double> d1(64);
  for (std::size_t i = 0; i < d0.size(); ++i) {
    d0[i] = s0.uniform();
    d1[i] = s1.uniform();
  }
  EXPECT_FALSE(bit_identical(d0, d1));
}

/// A trial with a data-dependent number of draws — the worst case for
/// any scheme that shares a generator across trials.
double variable_draw_trial(std::size_t index, Rng& rng) {
  const int draws = rng.uniform_int(1, 32);
  double acc = static_cast<double>(index);
  for (int i = 0; i < draws; ++i) acc += rng.gaussian(2.0);
  return acc;
}

std::vector<double> run_sweep(std::size_t threads) {
  SweepConfig cfg;
  cfg.trials = 500;
  cfg.threads = threads;
  cfg.seed = 2024;
  SweepRunner runner(cfg);
  return runner.run(variable_draw_trial).trials;
}

TEST(SweepRunner, ByteIdenticalAtOneTwoAndEightThreads) {
  const std::vector<double> t1 = run_sweep(1);
  const std::vector<double> t2 = run_sweep(2);
  const std::vector<double> t8 = run_sweep(8);
  EXPECT_TRUE(bit_identical(t1, t2)) << "2-thread sweep diverged from serial";
  EXPECT_TRUE(bit_identical(t1, t8)) << "8-thread sweep diverged from serial";
}

TEST(SweepRunner, RepeatedRunsAreByteIdentical) {
  EXPECT_TRUE(bit_identical(run_sweep(4), run_sweep(4)));
}

TEST(SweepRunner, DifferentSeedsDiverge) {
  SweepConfig cfg;
  cfg.trials = 50;
  cfg.threads = 2;
  cfg.seed = 1;
  const auto a = SweepRunner(cfg).run(variable_draw_trial).trials;
  cfg.seed = 2;
  const auto b = SweepRunner(cfg).run(variable_draw_trial).trials;
  EXPECT_FALSE(bit_identical(a, b));
}

TEST(SweepRunner, CommitsResultsInTrialOrder) {
  SweepConfig cfg;
  cfg.trials = 256;
  cfg.threads = 8;
  SweepRunner runner(cfg);
  const auto result = runner.run([](std::size_t i, Rng&) { return static_cast<double>(i); });
  std::vector<double> expected(cfg.trials);
  std::iota(expected.begin(), expected.end(), 0.0);
  EXPECT_TRUE(bit_identical(result.trials, expected));
}

TEST(SweepRunner, RunsEveryItemOncePerMapCall) {
  SweepConfig cfg;
  cfg.threads = 4;
  SweepRunner runner(cfg);
  for (int call = 0; call < 2; ++call) {
    std::vector<std::atomic<int>> runs(1000);
    runner.map(runs.size(), [&runs](std::size_t i, Rng&) {
      return runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "call " << call << ", item " << i;
    }
  }
}

TEST(SweepRunner, PropagatesTrialExceptions) {
  SweepConfig cfg;
  cfg.trials = 64;
  cfg.threads = 4;
  SweepRunner runner(cfg);
  EXPECT_THROW(runner.run([](std::size_t i, Rng&) -> double {
                 if (i == 17) throw std::runtime_error("bad trial");
                 return 0.0;
               }),
               std::runtime_error);
}

TEST(SweepRunner, RethrowsFirstChunkException) {
  SweepConfig cfg;
  cfg.threads = 2;
  SweepRunner runner(cfg);
  // Every chunk throws; map() delivers one of them after all workers join.
  EXPECT_THROW(runner.map(8, [](std::size_t, Rng&) -> int {
                 throw std::runtime_error("trial exploded");
               }),
               std::runtime_error);
  // The runner stays usable after the error is delivered.
  std::atomic<int> count{0};
  runner.map(1, [&count](std::size_t, Rng&) { return ++count; });
  EXPECT_EQ(count.load(), 1);
}

/// This process's thread count from /proc/self/status, if readable.
std::optional<int> process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return std::nullopt;
}

TEST(SweepRunner, SpawnsNoMoreWorkersThanChunks) {
  // Spawn and join one thread first: a sanitizer runtime may start its
  // own background thread on the first thread creation, and it must be
  // counted in `before`, not taken for a helper.
  std::thread([] {}).join();
  const std::optional<int> before = process_threads();
  if (!before) GTEST_SKIP() << "/proc/self/status has no Threads: line";
  SweepConfig cfg;
  cfg.threads = 16;
  SweepRunner runner(cfg);
  // Two items make two chunks: the calling thread plus one helper. Compare
  // with the count before the call so runtime threads (sanitizers) cancel.
  // Each body holds its chunk and samples the thread count until both
  // bodies run, so one worker cannot take both chunks and the samples
  // span the whole spawn: the calling thread spawns every helper before
  // it claims a chunk. An extra helper finds no chunk and exits at once,
  // so one repeat can miss it; 64 repeats make missing it every time
  // vanishingly unlikely.
  int peak = 0;
  for (int rep = 0; rep < 64; ++rep) {
    // A joined helper can linger in the count for a moment after join
    // returns; wait until the last repeat's helper is gone.
    const auto settle = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (process_threads().value_or(0) > *before && std::chrono::steady_clock::now() < settle)
      std::this_thread::yield();
    std::atomic<int> arrived{0};
    std::atomic<int> rep_peak{0};
    runner.map(2, [&](std::size_t, Rng&) {
      arrived.fetch_add(1);
      // The deadline only bounds a broken spawn that leaves one worker.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      for (int polls = 0; (arrived.load() < 2 || polls < 8) &&
                          std::chrono::steady_clock::now() < deadline;
           ++polls) {
        const int now = process_threads().value_or(0);
        int seen = rep_peak.load();
        while (now > seen && !rep_peak.compare_exchange_weak(seen, now)) {
        }
      }
      return 0;
    });
    ASSERT_EQ(arrived.load(), 2);
    peak = std::max(peak, rep_peak.load());
  }
  EXPECT_LE(peak - *before, 1);
}

// --- Fig. 11 equivalence ---------------------------------------------------
// The exact serial loop the bench shipped with before the sweep engine
// (one shared Rng, placements evaluated in order) versus the SweepRunner
// port (serial placement pre-pass + parallel evaluation). 30 placements,
// seed 11 — the historical Fig. 11 configuration.

struct Fig11Point {
  double ber_with;
  double ber_without;
};

Fig11Point evaluate_placement(const channel::Pose& ap, const Vec2& pos, double orientation_rad) {
  const antenna::MmxBeamPair beams;
  const antenna::Dipole ap_antenna;
  const sim::LinkBudget budget;
  const rf::SpdtSwitch spdt;
  channel::Room room = channel::furnished_lab();
  channel::park_person(room, pos, ap.position);
  const auto paths = test::trace_paths(room, pos, ap.position);
  const channel::Pose node{pos, orientation_rad};
  const auto modes =
      baseline::compare_modes_avg(paths, node, beams, ap, ap_antenna, 24.125e9, budget, spdt);
  return {std::max(phy::kBerFloor, modes.with_otam.joint_ber),
          std::max(phy::kBerFloor, modes.without_otam.joint_ber)};
}

TEST(SweepRunner, MatchesPreexistingSerialFig11Loop) {
  const std::size_t kPlacements = 30;
  const std::uint64_t kSeed = 11;
  const channel::Pose ap = channel::furnished_lab_ap();

  // Pre-existing serial loop: one Rng, draw-and-evaluate per placement.
  std::vector<double> serial_with;
  std::vector<double> serial_without;
  {
    Rng rng(kSeed);
    for (std::size_t i = 0; i < kPlacements; ++i) {
      const Vec2 pos{rng.uniform(0.5, 3.5), rng.uniform(0.3, 4.8)};
      const double toward_ap = (ap.position - pos).angle();
      const double orient = toward_ap + deg_to_rad(rng.uniform(-60.0, 60.0));
      const Fig11Point p = evaluate_placement(ap, pos, orient);
      serial_with.push_back(p.ber_with);
      serial_without.push_back(p.ber_without);
    }
  }

  // Sweep port: identical serial draw pass, parallel evaluation.
  struct Placement {
    Vec2 pos;
    double orientation_rad;
  };
  Rng rng(kSeed);
  std::vector<Placement> placements(kPlacements);
  for (Placement& p : placements) {
    p.pos = Vec2{rng.uniform(0.5, 3.5), rng.uniform(0.3, 4.8)};
    p.orientation_rad = (ap.position - p.pos).angle() + deg_to_rad(rng.uniform(-60.0, 60.0));
  }
  SweepConfig cfg;
  cfg.trials = kPlacements;
  cfg.threads = 4;
  cfg.seed = kSeed;
  const auto sweep = SweepRunner(cfg).run([&](std::size_t i, Rng&) {
    return evaluate_placement(ap, placements[i].pos, placements[i].orientation_rad);
  });

  std::vector<double> sweep_with;
  std::vector<double> sweep_without;
  for (const Fig11Point& p : sweep.trials) {
    sweep_with.push_back(p.ber_with);
    sweep_without.push_back(p.ber_without);
  }
  EXPECT_TRUE(bit_identical(serial_with, sweep_with))
      << "parallel Fig. 11 sweep diverged from the serial loop (with OTAM)";
  EXPECT_TRUE(bit_identical(serial_without, sweep_without))
      << "parallel Fig. 11 sweep diverged from the serial loop (without OTAM)";
}

}  // namespace
}  // namespace mmx::sim
