// The production ray tracer: a compiled, epoch-keyed room plan.
//
// Image-method tracing of LoS + single-bounce (+ ordered double-bounce)
// paths with blocker and partition losses (path.hpp defines Path). The
// traversal sums wall losses only; blocker losses are priced on top, leg
// by leg, since a blocker changes a path's loss but not its geometry. A
// RoomPlan compiles a Room snapshot once per Room::epoch() into flat,
// cache-friendly tables, so the 10^4-node cache refills of the scale
// lane (docs/SCALING.md) do not re-derive the room per trace:
//
//   - per-wall precomputed segments (direction/length cached) so the
//     image-method mirror/intersect steps apply stored transforms,
//   - SoA blocker storage (centers/radii/losses in flat arrays) behind a
//     uniform-grid broad phase: a segment only exact-tests the discs
//     registered in the cells it crosses, with an AABB reject first,
//   - allocation-free tracing into a caller-owned PathList workspace
//     (the DspWorkspace pattern from docs/DSP_FASTPATH.md),
//   - batched tracing against a shared endpoint (the AP) whose per-wall
//     and per-wall-pair images are hoisted into an ImageTable once per
//     batch instead of once per node.
//
// Every path it produces is bit-identical to the frozen reference tracer
// in tests/reference/ — same paths, same order, same doubles
// (tests/channel/room_plan_test.cpp). See docs/GEOMETRY.md for the
// contract and the broad-phase conservativeness argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mmx/channel/path.hpp"
#include "mmx/channel/room.hpp"
#include "mmx/channel/uniform_grid.hpp"

namespace mmx::channel {

/// Per-wall and per-wall-pair images of one fixed endpoint, hoisted out
/// of the per-node loop. Built by RoomPlan::build_images; valid only for
/// the (plan epoch, rx, bounces) it was built for — trace_batch_into
/// verifies all three.
struct ImageTable {
  Vec2 rx{};
  std::uint64_t room_epoch = ~0ull;
  int max_bounces = 0;
  std::vector<Vec2> wall_image;  ///< mirror_w(rx), one per wall
  std::vector<Vec2> pair_image;  ///< mirror_wi(mirror_wj(rx)), index wi * walls + wj
};

/// Caller-owned trace workspace: grown-once path storage plus the
/// broad-phase scratch (candidate list, stamp array, image table).
/// Reuse one PathList across traces — after the first few calls every
/// trace_into/trace_batch_into is allocation-free. Appended paths stay
/// valid until clear(); batch traces index them through the offsets
/// array (see RoomPlan::trace_batch_into).
class PathList {
 public:
  PathList() = default;

  void clear() { count_ = 0; }
  std::size_t size() const { return count_; }
  std::size_t path_capacity() const { return storage_.size(); }
  /// Paths [begin, end) — the per-node window a batch trace reported.
  std::span<const Path> slice(std::size_t begin, std::size_t end) const {
    return {storage_.data() + begin, end - begin};
  }

 private:
  friend class RoomPlan;

  /// Next pre-grown path slot (never allocates; ensure_paths sizes the
  /// store before any trace loop runs).
  Path& commit() { return storage_[count_++]; }
  void ensure_paths(std::size_t n);
  void ensure_scratch(std::size_t blockers);
  std::uint32_t next_query();

  std::vector<Path> storage_;
  std::size_t count_ = 0;
  /// trace_into's image table (batch traces read a caller ImageTable).
  ImageTable images_;
  /// Broad-phase scratch: grid-gathered candidate blocker indices, and a
  /// per-blocker stamp (== query_) deduplicating multi-cell hits.
  std::vector<std::uint32_t> cand_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t query_ = 0;
};

struct RoomPlanConfig {
  /// Broad-phase grid cell size [m]; 0 = auto (room min dimension / 8,
  /// floored at 0.5 m so a human blocker spans at most ~2x2 cells).
  double grid_cell_m = 0.0;
  /// Below this blocker count the grid is skipped for a flat SoA scan
  /// with AABB rejects — walk-the-grid bookkeeping only pays for itself
  /// once enough discs can be skipped.
  std::size_t grid_min_blockers = 8;
};

class RoomPlan {
 public:
  RoomPlan() = default;
  explicit RoomPlan(const Room& room, RoomPlanConfig cfg = {});

  /// Recompile from `room`'s current walls/blockers. Call whenever
  /// Room::epoch() moved past room_epoch(); cheap relative to even one
  /// 10^4-node refill (O(walls + blockers + grid cells)).
  void rebuild(const Room& room);

  bool compiled() const { return room_epoch_ != ~0ull; }
  /// Room::epoch() at the last rebuild (~0 = never compiled). The plan
  /// snapshots geometry: using it after its source Room mutated returns
  /// stale (pre-mutation) paths, exactly like a stale LinkCache entry.
  std::uint64_t room_epoch() const { return room_epoch_; }

  std::size_t blocker_count() const { return bx_.size(); }
  bool grid_enabled() const { return grid_on_; }

  /// Hoist the per-wall (and, for max_bounces >= 2, per-wall-pair)
  /// images of `rx` into `out` for trace_batch_into.
  void build_images(Vec2 rx, int max_bounces, ImageTable& out) const;

  /// All propagation paths tx -> rx: the (possibly blocked) LoS plus one
  /// single-bounce reflection per visible wall/reflector, and — with
  /// `max_bounces` == 2 — ordered double bounces (image-of-image method).
  /// Paths whose total excess loss exceeds `max_excess_loss_db` are
  /// dropped. Appends the path set to `out` and returns the appended
  /// window. It is the blocker-free trace, priced by priced_loss_db and
  /// culled in place.
  std::span<const Path> trace_into(Vec2 tx, Vec2 rx, PathList& out,
                                   double max_excess_loss_db = 60.0,
                                   int max_bounces = 1) const;

  /// Blocker loss [dB] of one leg a -> b of a traced path, the one place
  /// a blocker term is computed: the broad phase, the ascending blocker
  /// order, the per-kind scale (full on a line of sight, halved on a
  /// reflected leg). Adds the discs the leg crosses to `crossings`.
  double leg_blocker_loss_db(Vec2 a, Vec2 b, PathKind kind, PathList& ws, int& crossings) const;

  /// Blockers-applied excess loss [dB] of a traced path with blocker-free
  /// terms `walls` and one leg_blocker_loss_db term per leg (1 to 3, in
  /// leg order): the reflection sum, then each leg's blocker term, then
  /// each leg's transmission term. That is the reference tracer's order
  /// of additions, so the result is its blockers-applied loss bit for
  /// bit. A blocker move leaves a path's geometry and wall terms alone
  /// (paper §6.1), and a leg no changed blocker touches keeps its term,
  /// so this reprices a kept path exactly from whichever terms are
  /// recomputed (docs/GEOMETRY.md, "Pricing a leg").
  static double priced_loss_db(const WallTerms& walls, std::span<const double> leg_blocker_db);

  /// Batched blocker-free traces against the shared endpoint `ap`: for
  /// each i, appends the wall-only path set of nodes[i] -> ap, each path
  /// carrying its WallTerms, reusing `images` (build_images(ap, ...))
  /// across the whole batch. Fills `offsets` (size nodes.size() + 1) so
  /// node i's paths are out.slice(offsets[i], offsets[i+1]); returns the
  /// full appended window. Blockers attenuate paths but never create or
  /// bend them, so this set is the superset a link cache keeps and
  /// prices; trace_into(nodes[i], ap, ...) is its priced, culled subset.
  /// Mirrors are pure functions, so table lookups produce the same bits
  /// as computing each image per trace.
  std::span<const Path> trace_batch_into(Vec2 ap, std::span<const Vec2> nodes,
                                         const ImageTable& images, PathList& out,
                                         std::span<std::uint32_t> offsets,
                                         double max_excess_loss_db = 60.0,
                                         int max_bounces = 1) const;

 private:
  /// Wall ids a transmission scan must ignore — a leg's own reflecting
  /// wall(s) touch the leg at an endpoint and must not count as
  /// crossings. At most two walls are ever skipped (the two bounce walls
  /// of a double-reflected leg), so a 2-slot mask beats scanning a list.
  struct WallSkip {
    int w0 = -1;
    int w1 = -1;

    bool contains(int w) const { return w == w0 || w == w1; }
  };

  struct WallRec {
    Segment seg;  ///< precomputed (cached direction/length)
    double reflection_loss_db = 0.0;
    double transmission_loss_db = 0.0;
    bool blocks_transmission = false;
  };

  /// Upper bound on paths a single trace can append (LoS + one per wall
  /// + one per ordered wall pair when max_bounces >= 2).
  std::size_t max_paths(int max_bounces) const;
  /// The one per-node traversal: appends the blocker-free path set to
  /// `out`, each path with its wall terms and its wall-only loss sum.
  void trace_one(Vec2 tx, Vec2 rx, const ImageTable& images, PathList& out,
                 double max_excess_loss_db, int max_bounces) const;
  double blocker_loss_db(Vec2 a, Vec2 b, int& crossings, double loss_scale,
                         PathList& ws) const;
  double transmission_loss_db(Vec2 a, Vec2 b, WallSkip skip) const;
  /// Broad phase of blocker_loss_db: gathers into ws.cand_ the discs
  /// registered in the cells a -> b can touch, once each; returns the
  /// count. Kept out of line so the flat scan's frame stays small.
  [[gnu::noinline]] std::size_t grid_candidates(Vec2 a, Vec2 b, PathList& ws) const;

  RoomPlanConfig cfg_{};
  std::uint64_t room_epoch_ = ~0ull;
  std::vector<WallRec> walls_;
  /// Indices of transmission-blocking walls, ascending — preserves the
  /// reference tracer's wall-order dB accumulation.
  std::vector<std::uint32_t> trans_walls_;
  /// SoA blockers (flat arrays scan without pulling Material strings or
  /// struct padding through the cache).
  std::vector<double> bx_;
  std::vector<double> by_;
  std::vector<double> br_;
  std::vector<double> bloss_db_;
  /// Uniform grid over the wall bounding box, CSR-packed: cell c holds
  /// cell_items_[cell_start_[c] .. cell_start_[c+1]). Registration and
  /// query both inflate by kGridSlackM, so float rounding can only add
  /// candidates (false positives are filtered by the exact disc test;
  /// false negatives would break bit-identity and cannot happen).
  bool grid_on_ = false;
  UniformGrid grid_;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_items_;
};

}  // namespace mmx::channel
