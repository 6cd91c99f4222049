// A conservative uniform grid over a 2-D box: which cells a segment or a
// disc can touch.
//
// Two broad phases run on it. RoomPlan registers blocker discs and walks
// each trace leg through their cells; sim::LinkCache registers the legs
// of every cached path and looks dirty blocker discs up in theirs. Both
// feed bit-identical results, so neither may lose a candidate: a segment
// and a disc that the exact test (segment_hits_disc) says touch must share
// a cell. Registration and query therefore both inflate by kGridSlackM.
// The ~1e-13 rounding of the cell arithmetic can only ADD cells, never
// drop one. Out-of-range geometry is clamped onto the border cells on
// both sides. That stays conservative as long as segments lie inside the
// box; discs may overhang it (docs/GEOMETRY.md).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "mmx/common/geometry.hpp"

namespace mmx::channel {

/// Conservativeness margin of every grid walk, in metres.
inline constexpr double kGridSlackM = 1e-9;

class UniformGrid {
 public:
  UniformGrid() = default;

  /// Grid over the box [lo, hi] (both spans must be > 0). `cell_m` = 0
  /// picks min span / 8, floored at 0.5 m, so a human blocker spans at
  /// most ~2x2 cells. Whatever the request, the table stays at ~1M
  /// cells at most.
  UniformGrid(Vec2 lo, Vec2 hi, double cell_m) : x0_(lo.x), y0_(lo.y) {
    const double spanx = hi.x - lo.x;
    const double spany = hi.y - lo.y;
    double cell = cell_m > 0.0 ? cell_m : std::max(0.5, std::min(spanx, spany) / 8.0);
    cell = std::max({cell, spanx / 1024.0, spany / 1024.0});
    cell_m_ = cell;
    cols_ = std::max(1, static_cast<int>(std::ceil(spanx / cell)));
    rows_ = std::max(1, static_cast<int>(std::ceil(spany / cell)));
  }

  std::size_t cells() const {
    return static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  }

  /// Cells the slack-inflated AABB of the disc (center, radius_m)
  /// overlaps: fn(cell index), each cell once.
  template <typename Fn>
  void for_each_disc_cell(Vec2 center, double radius_m, Fn&& fn) const {
    const int c0 = col(center.x - radius_m - kGridSlackM);
    const int c1 = col(center.x + radius_m + kGridSlackM);
    const int r0 = row(center.y - radius_m - kGridSlackM);
    const int r1 = row(center.y + radius_m + kGridSlackM);
    for (int r = r0; r <= r1; ++r)
      for (int c = c0; c <= c1; ++c) fn(index(c, r));
  }

  /// Cells the segment a -> b can touch: per column of its x-range, the
  /// linearly interpolated (t-clamped, slack-inflated) y-window picks the
  /// rows. fn(cell index), each cell once.
  template <typename Fn>
  void for_each_segment_cell(Vec2 a, Vec2 b, Fn&& fn) const {
    const double dx = b.x - a.x;
    const double dy = b.y - a.y;
    const int c0 = col(std::min(a.x, b.x) - kGridSlackM);
    const int c1 = col(std::max(a.x, b.x) + kGridSlackM);
    for (int c = c0; c <= c1; ++c) {
      double t0 = 0.0;
      double t1 = 1.0;
      if (dx != 0.0) {
        const double cx0 = x0_ + cell_m_ * static_cast<double>(c);
        double ta = (cx0 - kGridSlackM - a.x) / dx;
        double tb = (cx0 + cell_m_ + kGridSlackM - a.x) / dx;
        if (ta > tb) std::swap(ta, tb);
        // Clamping to [0, 1] keeps the window on the segment itself.
        t0 = std::clamp(ta, 0.0, 1.0);
        t1 = std::clamp(tb, 0.0, 1.0);
      }
      const double ya = a.y + dy * t0;
      const double yb = a.y + dy * t1;
      const int r0 = row(std::min(ya, yb) - kGridSlackM);
      const int r1 = row(std::max(ya, yb) + kGridSlackM);
      for (int r = r0; r <= r1; ++r) fn(index(c, r));
    }
  }

 private:
  int col(double x) const {
    const int c = static_cast<int>(std::floor((x - x0_) / cell_m_));
    return std::clamp(c, 0, cols_ - 1);
  }
  int row(double y) const {
    const int r = static_cast<int>(std::floor((y - y0_) / cell_m_));
    return std::clamp(r, 0, rows_ - 1);
  }
  std::size_t index(int c, int r) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(c);
  }

  double x0_ = 0.0;
  double y0_ = 0.0;
  double cell_m_ = 1.0;
  int cols_ = 0;
  int rows_ = 0;
};

}  // namespace mmx::channel
