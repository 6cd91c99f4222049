#include "mmx/channel/room_plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace mmx::channel {

namespace {
// Same constant as the reference tracer: reflected paths take half the dB
// body loss (3-D elevation spread routes part of the Fresnel zone around a
// standing blocker); LoS takes the full loss.
constexpr double kReflectedBlockageFraction = 0.5;
// Below this blocker count the grid is skipped for a flat SoA scan with
// AABB rejects: walk-the-grid bookkeeping only pays for itself once
// enough discs can be skipped.
constexpr std::size_t kGridMinBlockers = 8;
// Broad-phase cell size: 0 is UniformGrid's auto size (room min span / 8,
// floored at 0.5 m, so a human blocker spans at most ~2x2 cells).
constexpr double kGridCellM = 0.0;
}  // namespace

// ---------------------------------------------------------------------------
// PathList

void PathList::ensure_paths(std::size_t n) {
  if (storage_.size() >= n) return;
  storage_.resize(n);  // mmx-analyze: allow(hot-path-alloc) -- amortized workspace growth
}

void PathList::ensure_scratch(std::size_t blockers) {
  if (cand_.size() < blockers)
    cand_.resize(blockers);  // mmx-analyze: allow(hot-path-alloc) -- amortized growth
  // resize zero-fills the new stamps; 0 is never a live query id (see
  // next_query), so grown entries are correctly "not seen this query".
  if (stamp_.size() < blockers)
    stamp_.resize(blockers);  // mmx-analyze: allow(hot-path-alloc) -- amortized growth
}

std::uint32_t PathList::next_query() {
  if (++query_ == 0) {
    // Wrapped: old stamps could collide with re-issued ids; reset both.
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    query_ = 1;
  }
  return query_;
}

// ---------------------------------------------------------------------------
// RoomPlan compilation

RoomPlan::RoomPlan(const Room& room) { rebuild(room); }

void RoomPlan::rebuild(const Room& room) {
  room_epoch_ = room.epoch();

  const auto& walls = room.walls();
  walls_.clear();
  trans_walls_.clear();
  walls_.reserve(walls.size());  // mmx-analyze: allow(hot-path-alloc) -- once per epoch
  for (std::size_t w = 0; w < walls.size(); ++w) {
    WallRec rec;
    rec.seg = walls[w].segment;
    rec.seg.precompute();
    rec.reflection_loss_db = walls[w].material.reflection_loss_db;
    rec.transmission_loss_db = walls[w].material.transmission_loss_db;
    rec.blocks_transmission = walls[w].blocks_transmission;
    walls_.push_back(rec);  // mmx-analyze: allow(hot-path-alloc) -- once per epoch
    if (rec.blocks_transmission)
      trans_walls_.push_back(  // mmx-analyze: allow(hot-path-alloc) -- once per epoch
          static_cast<std::uint32_t>(w));
  }

  const auto& blockers = room.blockers();
  const std::size_t n = blockers.size();
  bx_.resize(n);        // mmx-analyze: allow(hot-path-alloc) -- once per epoch
  by_.resize(n);        // mmx-analyze: allow(hot-path-alloc) -- once per epoch
  br_.resize(n);        // mmx-analyze: allow(hot-path-alloc) -- once per epoch
  bloss_db_.resize(n);  // mmx-analyze: allow(hot-path-alloc) -- once per epoch
  for (std::size_t i = 0; i < n; ++i) {
    bx_[i] = blockers[i].center.x;
    by_[i] = blockers[i].center.y;
    br_[i] = blockers[i].radius;
    bloss_db_[i] = blockers[i].loss_db;
  }

  // --- Broad-phase grid over the wall bounding box ----------------------
  grid_on_ = false;
  cell_start_.clear();
  cell_items_.clear();
  if (n < kGridMinBlockers || walls_.empty()) return;

  double minx = walls_[0].seg.a.x;
  double maxx = minx;
  double miny = walls_[0].seg.a.y;
  double maxy = miny;
  for (const WallRec& w : walls_) {
    minx = std::min({minx, w.seg.a.x, w.seg.b.x});
    maxx = std::max({maxx, w.seg.a.x, w.seg.b.x});
    miny = std::min({miny, w.seg.a.y, w.seg.b.y});
    maxy = std::max({maxy, w.seg.a.y, w.seg.b.y});
  }
  const double spanx = maxx - minx;
  const double spany = maxy - miny;
  if (spanx <= 0.0 || spany <= 0.0) return;  // degenerate (collinear walls): flat scan

  grid_ = UniformGrid(Vec2{minx, miny}, Vec2{maxx, maxy}, kGridCellM);
  const std::size_t cells = grid_.cells();

  // CSR pack: count, prefix-sum, fill. Discs register in every cell their
  // slack-inflated AABB overlaps (clamped to the grid — out-of-range
  // geometry lands in border cells, matching the clamped query walk).
  cell_start_.assign(cells + 1, 0);  // mmx-analyze: allow(hot-path-alloc) -- once per epoch
  for (std::size_t i = 0; i < n; ++i)
    grid_.for_each_disc_cell(Vec2{bx_[i], by_[i]}, br_[i],
                             [&](std::size_t cell_ix) { ++cell_start_[cell_ix + 1]; });
  for (std::size_t c = 1; c <= cells; ++c) cell_start_[c] += cell_start_[c - 1];
  cell_items_.resize(  // mmx-analyze: allow(hot-path-alloc) -- once per epoch
      cell_start_[cells]);
  std::vector<std::uint32_t> cursor(  // mmx-analyze: allow(hot-path-alloc) -- once per epoch
      cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    grid_.for_each_disc_cell(Vec2{bx_[i], by_[i]}, br_[i], [&](std::size_t cell_ix) {
      cell_items_[cursor[cell_ix]++] = static_cast<std::uint32_t>(i);
    });
  grid_on_ = true;
}

void RoomPlan::build_images(Vec2 rx, ImageTable& out) const {
  if (!compiled()) throw std::logic_error("RoomPlan: build_images before rebuild()");
  const std::size_t w = walls_.size();
  out.rx = rx;
  out.room_epoch = room_epoch_;
  out.wall_image.resize(w);  // mmx-analyze: allow(hot-path-alloc) -- amortized growth
  for (std::size_t i = 0; i < w; ++i) out.wall_image[i] = walls_[i].seg.mirror(rx);
}

// ---------------------------------------------------------------------------
// Tracing

double RoomPlan::transmission_loss_db(Vec2 a, Vec2 b, int skip) const {
  // trans_walls_ is ascending, so the dB sum accumulates in the exact
  // wall order of the reference tracer's transmission_loss_db.
  double loss = 0.0;
  for (const std::uint32_t w : trans_walls_) {
    if (static_cast<int>(w) == skip) continue;
    if (walls_[w].seg.intersect(a, b)) loss += walls_[w].transmission_loss_db;
  }
  return loss;
}

double RoomPlan::blocker_loss_db(Vec2 a, Vec2 b, int& crossings, double loss_scale,
                                 PathList& ws) const {
  const std::size_t n = bx_.size();
  if (n == 0) return 0.0;
  const double minx = std::min(a.x, b.x) - kGridSlackM;
  const double maxx = std::max(a.x, b.x) + kGridSlackM;
  const double miny = std::min(a.y, b.y) - kGridSlackM;
  const double maxy = std::max(a.y, b.y) + kGridSlackM;
  double loss = 0.0;

  if (!grid_on_) {
    // Flat SoA scan: index order matches the reference loop; the AABB
    // reject is sound because an exact hit implies the closest point on
    // the segment lies inside the disc's AABB (so the boxes overlap).
    for (std::size_t i = 0; i < n; ++i) {
      if (bx_[i] + br_[i] < minx || bx_[i] - br_[i] > maxx || by_[i] + br_[i] < miny ||
          by_[i] - br_[i] > maxy)
        continue;
      if (segment_hits_disc(a, b, Vec2{bx_[i], by_[i]}, br_[i])) {
        loss += bloss_db_[i] * loss_scale;
        ++crossings;
      }
    }
    return loss;
  }

  const std::size_t ncand = grid_candidates(a, b, ws);

  // Ascending blocker index: the dB accumulation (and crossing count)
  // must run in the reference loop's order to produce the same bits.
  for (std::size_t s = 1; s < ncand; ++s) {
    const std::uint32_t v = ws.cand_[s];
    std::size_t j = s;
    while (j > 0 && ws.cand_[j - 1] > v) {
      ws.cand_[j] = ws.cand_[j - 1];
      --j;
    }
    ws.cand_[j] = v;
  }
  for (std::size_t s = 0; s < ncand; ++s) {
    const std::uint32_t i = ws.cand_[s];
    if (bx_[i] + br_[i] < minx || bx_[i] - br_[i] > maxx || by_[i] + br_[i] < miny ||
        by_[i] - br_[i] > maxy)
      continue;
    if (segment_hits_disc(a, b, Vec2{bx_[i], by_[i]}, br_[i])) {
      loss += bloss_db_[i] * loss_scale;
      ++crossings;
    }
  }
  return loss;
}

std::size_t RoomPlan::grid_candidates(Vec2 a, Vec2 b, PathList& ws) const {
  // Grid walk over the cells the segment can touch; stamps deduplicate
  // discs spanning several cells.
  const std::uint32_t q = ws.next_query();
  std::size_t ncand = 0;
  grid_.for_each_segment_cell(a, b, [&](std::size_t cell_ix) {
    const std::uint32_t kend = cell_start_[cell_ix + 1];
    for (std::uint32_t k = cell_start_[cell_ix]; k < kend; ++k) {
      const std::uint32_t i = cell_items_[k];
      if (ws.stamp_[i] == q) continue;
      ws.stamp_[i] = q;
      ws.cand_[ncand++] = i;
    }
  });
  return ncand;
}

void RoomPlan::trace_one(Vec2 tx, Vec2 rx, const ImageTable& images, PathList& out) const {
  // Mirrors the reference tracer's blocker-free run statement-for-statement;
  // only the image computation (tabulated) and the path storage
  // (workspace) differ — both bit-preserving substitutions. That run adds
  // 0.0 for each blocker term; skipping those cannot change a bit, because
  // x + 0.0 == x for every x but -0.0, and the transmission term added
  // next is never -0.0. Blocker terms are priced on top (priced_loss_db).
  const Vec2* wall_images = images.wall_image.data();

  // --- Line of sight ---------------------------------------------------
  {
    Path p;
    p.kind = PathKind::kLineOfSight;
    p.length_m = distance(tx, rx);
    p.departure_rad = (rx - tx).angle();
    p.arrival_rad = (tx - rx).angle();
    p.walls.leg_transmission_db[0] = transmission_loss_db(tx, rx, -1);
    p.excess_loss_db = p.walls.leg_transmission_db[0];
    if (p.excess_loss_db <= kMaxExcessLossDb) out.commit() = p;
  }

  // --- Single-bounce reflections (image method) ------------------------
  const std::size_t nwalls = walls_.size();
  for (std::size_t w = 0; w < nwalls; ++w) {
    const WallRec& wall = walls_[w];
    const Vec2 image = wall_images[w];
    const auto hit = wall.seg.intersect(tx, image);
    if (!hit) continue;
    const Vec2 via = *hit;
    const double leg1 = distance(tx, via);
    const double leg2 = distance(via, rx);
    if (leg1 < 1e-6 || leg2 < 1e-6) continue;

    Path p;
    p.kind = PathKind::kReflected;
    p.length_m = leg1 + leg2;
    p.departure_rad = (via - tx).angle();
    p.arrival_rad = (via - rx).angle();
    p.wall_index = static_cast<int>(w);
    p.via = via;
    const int wall_id = static_cast<int>(w);
    p.walls = {wall.reflection_loss_db,
               {transmission_loss_db(tx, via, wall_id), transmission_loss_db(via, rx, wall_id)}};
    double loss = p.walls.reflection_db;
    loss += p.walls.leg_transmission_db[0];
    loss += p.walls.leg_transmission_db[1];
    p.excess_loss_db = loss;
    if (p.excess_loss_db <= kMaxExcessLossDb) out.commit() = p;
  }
}

std::span<const Path> RoomPlan::trace_into(Vec2 tx, Vec2 rx, PathList& out) const {
  if (!compiled()) throw std::logic_error("RoomPlan: trace_into before rebuild()");
  if (tx == rx) throw std::invalid_argument("RoomPlan: tx and rx coincide");

  const std::size_t begin = out.size();
  out.ensure_paths(begin + max_paths());
  build_images(rx, out.images_);
  trace_one(tx, rx, out.images_, out);

  // Price the blocker-free set and cull it in place. Blocker terms are
  // never negative and rounding is monotonic, so every path the
  // blockers-applied trace keeps is in that set, in the same order.
  const std::size_t end = out.size();
  out.count_ = begin;
  for (std::size_t k = begin; k < end; ++k) {
    Path p = out.storage_[k];
    const bool reflected = p.kind == PathKind::kReflected;
    const std::array<Vec2, 3> corners{tx, reflected ? p.via : rx, rx};
    const std::size_t legs = reflected ? 2 : 1;
    std::array<double, 2> blocker_db{};
    for (std::size_t l = 0; l < legs; ++l)
      blocker_db[l] =
          leg_blocker_loss_db(corners[l], corners[l + 1], p.kind, out, p.blocker_crossings);
    p.excess_loss_db = priced_loss_db(p.walls, {blocker_db.data(), legs});
    if (p.excess_loss_db <= kMaxExcessLossDb) out.commit() = p;
  }
  return out.slice(begin, out.size());
}

double RoomPlan::leg_blocker_loss_db(Vec2 a, Vec2 b, PathKind kind, PathList& ws,
                                     int& crossings) const {
  if (!compiled()) throw std::logic_error("RoomPlan: leg_blocker_loss_db before rebuild()");
  ws.ensure_scratch(bx_.size());
  return blocker_loss_db(a, b, crossings,
                         kind == PathKind::kLineOfSight ? 1.0 : kReflectedBlockageFraction, ws);
}

double RoomPlan::priced_loss_db(const WallTerms& walls, std::span<const double> leg_blocker_db) {
  if (leg_blocker_db.empty() || leg_blocker_db.size() > 2)
    throw std::invalid_argument("RoomPlan: a path has 1 or 2 legs");
  // A line of sight starts 0.0 + blocker term where the reference starts
  // at the term itself; a blocker term starts from +0.0 and is never
  // -0.0, so the two agree.
  double loss = walls.reflection_db;
  for (const double b : leg_blocker_db) loss += b;
  for (std::size_t l = 0; l < leg_blocker_db.size(); ++l) loss += walls.leg_transmission_db[l];
  return loss;
}

std::span<const Path> RoomPlan::trace_batch_into(Vec2 ap, std::span<const Vec2> nodes,
                                                 const ImageTable& images, PathList& out,
                                                 std::span<std::uint32_t> offsets) const {
  if (!compiled()) throw std::logic_error("RoomPlan: trace_batch_into before rebuild()");
  if (offsets.size() != nodes.size() + 1)
    throw std::invalid_argument("RoomPlan: offsets must have nodes.size() + 1 slots");
  if (images.room_epoch != room_epoch_ || !(images.rx == ap))
    throw std::invalid_argument("RoomPlan: ImageTable stale or built for another endpoint");

  const std::size_t begin = out.size();
  out.ensure_paths(begin + nodes.size() * max_paths());
  offsets[0] = static_cast<std::uint32_t>(begin);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] == ap) throw std::invalid_argument("RoomPlan: tx and rx coincide");
    trace_one(nodes[i], ap, images, out);
    offsets[i + 1] = static_cast<std::uint32_t>(out.size());
  }
  return out.slice(begin, out.size());
}

}  // namespace mmx::channel
