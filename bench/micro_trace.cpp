// Micro-benchmarks of the production tracer (channel::RoomPlan) against
// the frozen reference tracer (tests/reference/ref_ray_tracer.hpp), on
// the shared sweep harness.
//
// Every stage runs as bench::kSpeedupPairs interleaved pairs of runs with
// the same trials and threads:
//   ref   channel::ref::RayTracer::trace — the frozen bit-exact oracle
//         (allocating one vector per call, deriving every image inline)
//   fast  the production path: compiled RoomPlan, tabulated AP images,
//         batched blocker-free trace_batch_into priced leg by leg,
//         caller-owned PathList workspace
//
// Every trial folds the traced paths into a checksum, so the work cannot
// be optimized away AND ref/fast runs are bitwise-comparable: the run
// prints the speedup table, writes the median of the pairs' ratios as a
// `speedup_<stage>` scalar per stage to the JSON, and FAILS (exit 1) if
// any pair's per-trial checksums differ — a perf report that doubles as
// an equivalence test. CI's
// bench-perf lane gates the refill stage at >= 3x (bench/gates.txt,
// docs/GEOMETRY.md).
//
// Stages:
//   refill   the sim's cache-refill inner loop at its pinned config
//            (1 bounce, 60 dB): 10k nodes against one AP in a 12 m x 8 m
//            room with 3 human blockers, in 64-node blocks, each node's
//            blockers-off paths + blockers-on gains paths — exactly
//            NetworkSimulator::refill_block's shape (for fast, one
//            blocker-free batched call per block, then one
//            leg_blocker_loss_db per leg and priced_loss_db per path;
//            two reference traces per node)
//   trace    single-pair trace_into, random endpoints, 1 bounce
//   bounce2  single-pair trace, 2 bounces (image-of-image heavy)
//   dense    48 blockers (grid broad phase on), 2 bounces
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/rng.hpp"
#include "ref_ray_tracer.hpp"

using namespace mmx;

namespace {

constexpr double kRoomW = 12.0;
constexpr double kRoomH = 8.0;
constexpr Vec2 kAp{6.0, 4.0};
// The sim's pinned trace config (network_sim.cpp): 1 bounce, 60 dB.
constexpr double kMaxExcessDb = 60.0;
constexpr std::size_t kRefillNodes = 10000;
constexpr std::size_t kBlock = 64;  // NetworkSimulator's kRefillBlock

channel::Room make_room(int blockers, std::uint64_t seed) {
  channel::Room room(kRoomW, kRoomH);
  Rng rng(seed);
  for (int i = 0; i < blockers; ++i)
    room.add_blocker({{rng.uniform(0.5, kRoomW - 0.5), rng.uniform(0.5, kRoomH - 0.5)},
                      rng.uniform(0.15, 0.35), rng.uniform(10.0, 30.0)});
  return room;
}

double path_checksum(const channel::Path& p) {
  return p.length_m + p.excess_loss_db + static_cast<double>(p.blocker_crossings);
}

// One fixture per stage flavour, built once: the plan compiles per
// Room::epoch() and the AP image table per (endpoint, epoch) — exactly
// the amortization the production refill enjoys.
struct Fixture {
  channel::Room room;
  channel::ref::RayTracer tracer;
  channel::RoomPlan plan;
  channel::ImageTable ap_images;

  Fixture(int blockers, std::uint64_t seed, int max_bounces)
      : room(make_room(blockers, seed)), tracer(room), plan(room) {
    plan.build_images(kAp, max_bounces, ap_images);
  }
};

Fixture& refill_fixture() {
  static Fixture f(/*blockers=*/3, /*seed=*/0x5eedULL, /*max_bounces=*/1);
  return f;
}
Fixture& sparse_fixture() {
  static Fixture f(/*blockers=*/3, /*seed=*/0x5eedULL, /*max_bounces=*/2);
  return f;
}
Fixture& dense_fixture() {
  static Fixture f(/*blockers=*/48, /*seed=*/0xd05eULL, /*max_bounces=*/2);
  return f;
}

const std::vector<Vec2>& refill_nodes() {
  static const std::vector<Vec2> nodes = [] {
    std::vector<Vec2> out;
    out.reserve(kRefillNodes);
    Rng rng(0x10adULL);
    for (std::size_t i = 0; i < kRefillNodes; ++i)
      out.push_back({rng.uniform(0.25, kRoomW - 0.25), rng.uniform(0.25, kRoomH - 0.25)});
    return out;
  }();
  return nodes;
}

// The sim's refill inner loop: per 64-node block, one batched trace that
// yields the blocker-free paths, each then priced against the blockers
// and culled, which rebuilds the gains paths (blockers applied).
// Checksums accumulate per-stream in node order, so ref and fast sum the
// same doubles in the same sequence — bitwise-equal results.
double trial_refill(bool fast) {
  Fixture& f = refill_fixture();
  const std::vector<Vec2>& nodes = refill_nodes();
  double acc_gains = 0.0;
  double acc_corr = 0.0;
  if (fast) {
    thread_local channel::PathList ws;
    thread_local std::vector<std::uint32_t> offs;
    for (std::size_t lo = 0; lo < nodes.size(); lo += kBlock) {
      const std::size_t n = std::min(kBlock, nodes.size() - lo);
      const std::span<const Vec2> block(nodes.data() + lo, n);
      offs.resize(n + 1);
      ws.clear();
      f.plan.trace_batch_into(kAp, block, f.ap_images, ws, offs, kMaxExcessDb, 1);
      for (std::size_t i = 0; i < n; ++i) {
        for (channel::Path p : ws.slice(offs[i], offs[i + 1])) {
          acc_corr += path_checksum(p);
          const bool reflected = p.kind == channel::PathKind::kReflected;
          const Vec2 corners[3] = {block[i], reflected ? p.via : kAp, kAp};
          double blocker_db[2] = {};
          for (std::size_t l = 0; l < (reflected ? 2u : 1u); ++l)
            blocker_db[l] = f.plan.leg_blocker_loss_db(corners[l], corners[l + 1], p.kind, ws,
                                                       p.blocker_crossings);
          p.excess_loss_db =
              channel::RoomPlan::priced_loss_db(p.walls, {blocker_db, reflected ? 2u : 1u});
          if (p.excess_loss_db <= kMaxExcessDb) acc_gains += path_checksum(p);
        }
      }
    }
  } else {
    for (const Vec2 node : nodes) {
      for (const channel::Path& p : f.tracer.trace(node, kAp, kMaxExcessDb, 1, true))
        acc_gains += path_checksum(p);
      for (const channel::Path& p : f.tracer.trace(node, kAp, kMaxExcessDb, 1, false))
        acc_corr += path_checksum(p);
    }
  }
  return acc_gains + acc_corr;
}

// Single-pair tracing with per-trial random endpoints. Endpoints are
// drawn before the kernel branch, so ref and fast consume identical rng
// streams and the checksums stay comparable.
double trial_single(bool fast, Rng& rng, Fixture& f, int max_bounces) {
  double acc = 0.0;
  for (int i = 0; i < 64; ++i) {
    const Vec2 tx{rng.uniform(0.25, kRoomW - 0.25), rng.uniform(0.25, kRoomH - 0.25)};
    const Vec2 rx{rng.uniform(0.25, kRoomW - 0.25), rng.uniform(0.25, kRoomH - 0.25)};
    if (tx == rx) continue;
    if (fast) {
      thread_local channel::PathList ws;
      ws.clear();
      for (const channel::Path& p :
           f.plan.trace_into(tx, rx, ws, kMaxExcessDb, max_bounces))
        acc += path_checksum(p);
    } else {
      for (const channel::Path& p : f.tracer.trace(tx, rx, kMaxExcessDb, max_bounces, true))
        acc += path_checksum(p);
    }
  }
  return acc;
}

const std::vector<std::string> kStages = {"refill", "trace", "bounce2", "dense"};

sim::SweepResult<double> run_stage(const std::string& stage, bool fast,
                                   sim::SweepRunner& runner) {
  if (stage == "refill") return runner.run([&](std::size_t, Rng&) { return trial_refill(fast); });
  if (stage == "trace")
    return runner.run(
        [&](std::size_t, Rng& rng) { return trial_single(fast, rng, sparse_fixture(), 1); });
  if (stage == "bounce2")
    return runner.run(
        [&](std::size_t, Rng& rng) { return trial_single(fast, rng, sparse_fixture(), 2); });
  return runner.run(
      [&](std::size_t, Rng& rng) { return trial_single(fast, rng, dense_fixture(), 2); });
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_args(
      argc, argv, /*default_trials=*/20, /*default_seed=*/0x6d6d5821ULL, "trials per stage");
  sim::SweepRunner runner(opt.sweep);
  bench::JsonReport report("micro_trace", opt);
  std::printf("# micro_trace — RayTracer (ref) vs RoomPlan (fast), %zu trials/stage, %zu threads,"
              " %zu interleaved pairs (medians)\n",
              opt.sweep.trials, runner.threads(), bench::kSpeedupPairs);
  std::printf("%-10s %14s %14s %9s %9s %9s %9s\n", "stage", "ref trials/s", "fast trials/s",
              "speedup", "min", "max", "bitwise");
  for (const std::string& s : kStages) {
    const bench::PairedStage st =
        bench::time_pairs([&](bool fast) { return run_stage(s, fast, runner); });
    std::printf("%-10s %14.1f %14.1f %8.2fx %8.2fx %8.2fx %9s\n", s.c_str(), st.ref_trials_per_s,
                st.fast.trials_per_s, st.speedup, st.speedup_min, st.speedup_max,
                st.bitwise ? "ok" : "MISMATCH");
    if (!st.bitwise) {
      std::fprintf(stderr, "micro_trace: stage '%s' checksums diverge from the reference\n",
                   s.c_str());
      return 1;
    }
    report.add_scalar("speedup_" + s, st.speedup);
    if (s == "refill") report.record(st.fast);
  }
  return report.write() ? 0 : 1;
}
