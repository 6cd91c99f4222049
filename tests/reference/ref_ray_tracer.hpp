// Frozen ("reference") image-method ray tracer: LoS + first-order
// specular reflections, plus ordered double bounces on request.
//
// This is the direct, allocate-per-call tracer that channel::RoomPlan
// was derived from. RoomPlan is the production tracer; this copy is the
// oracle it must match bit for bit — same paths, same order, same
// doubles — in tests/channel/room_plan_test.cpp, in the link-cache
// churn test and in bench/micro_trace's checksum cross-check. The trace
// body is verbatim except for the namespace and the include lines; the
// per-path helpers it used to carry (path_amplitude, rms_delay_spread_s)
// live in mmx/channel/path.hpp. Do not optimize it.
#pragma once

#include <vector>

#include "mmx/channel/path.hpp"
#include "mmx/channel/room.hpp"

namespace mmx::channel::ref {

/// Wall ids a transmission scan must ignore — a leg's own reflecting
/// wall(s) touch the leg at an endpoint and must not count as crossings.
/// At most two walls are ever skipped (the two bounce walls of a
/// double-reflected leg).
struct WallSkip {
  int w0 = -1;
  int w1 = -1;

  bool contains(int w) const { return w == w0 || w == w1; }
};

class RayTracer {
 public:
  explicit RayTracer(const Room& room);

  /// All propagation paths tx -> rx: the (possibly blocked) LoS plus one
  /// single-bounce reflection per visible wall/reflector, and — with
  /// `max_bounces` >= 2 — ordered double bounces (image-of-image method).
  /// Paths whose total excess loss exceeds `max_excess_loss_db` are
  /// dropped. With `apply_blockers` false, blocker crossings contribute
  /// no loss and no pruning: the result is the wall-only path superset.
  std::vector<Path> trace(Vec2 tx, Vec2 rx, double max_excess_loss_db = 60.0,
                          int max_bounces = 1, bool apply_blockers = true) const;

 private:
  /// Sum of blocker losses along segment [a, b], scaled by `loss_scale`
  /// (1.0 for LoS, less for reflected paths whose 3-D elevation spread
  /// partially routes around a standing blocker); also counts crossings.
  double blocker_loss_db(Vec2 a, Vec2 b, int& crossings, double loss_scale) const;

  /// Sum of partition transmission losses along segment [a, b], skipping
  /// the walls in `skip`.
  double transmission_loss_db(Vec2 a, Vec2 b, WallSkip skip) const;

  const Room* room_;  // non-owning; Room must outlive the tracer
};

}  // namespace mmx::channel::ref
