#include "ref_ray_tracer.hpp"

#include <cmath>
#include <stdexcept>

namespace mmx::channel::ref {

RayTracer::RayTracer(const Room& room) : room_(&room) {}

double RayTracer::blocker_loss_db(Vec2 a, Vec2 b, int& crossings, double loss_scale) const {
  double loss = 0.0;
  for (const Blocker& blk : room_->blockers()) {
    if (segment_hits_disc(a, b, blk.center, blk.radius)) {
      loss += blk.loss_db * loss_scale;
      ++crossings;
    }
  }
  return loss;
}

double RayTracer::transmission_loss_db(Vec2 a, Vec2 b, WallSkip skip) const {
  double loss = 0.0;
  const auto& walls = room_->walls();
  for (std::size_t w = 0; w < walls.size(); ++w) {
    if (!walls[w].blocks_transmission) continue;
    if (skip.contains(static_cast<int>(w))) continue;
    if (walls[w].segment.intersect(a, b)) loss += walls[w].material.transmission_loss_db;
  }
  return loss;
}

// Reflected paths leave/arrive with elevation spread (floor, ceiling and
// furniture bounces in 3-D), so a standing person intercepts only part of
// their Fresnel zone; the 2-D tracer models that as half the dB loss.
// LoS paths take the full body loss.
constexpr double kReflectedBlockageFraction = 0.5;

std::vector<Path> RayTracer::trace(Vec2 tx, Vec2 rx, double max_excess_loss_db,
                                   int max_bounces, bool apply_blockers) const {
  // Blocker-free traces feed cache-coherence decisions: see header.
  const auto blockers = [&](Vec2 a, Vec2 b, int& crossings, double scale) {
    return apply_blockers ? blocker_loss_db(a, b, crossings, scale) : 0.0;
  };
  if (max_bounces < 1 || max_bounces > 2)
    throw std::invalid_argument("RayTracer: max_bounces must be 1 or 2");
  if (tx == rx) throw std::invalid_argument("RayTracer: tx and rx coincide");
  std::vector<Path> paths;

  // --- Line of sight ---------------------------------------------------
  {
    Path p;
    p.kind = PathKind::kLineOfSight;
    p.length_m = distance(tx, rx);
    p.departure_rad = (rx - tx).angle();
    p.arrival_rad = (tx - rx).angle();
    int crossings = 0;
    p.excess_loss_db = blockers(tx, rx, crossings, 1.0);
    p.excess_loss_db += transmission_loss_db(tx, rx, WallSkip{});
    p.blocker_crossings = crossings;
    if (p.excess_loss_db <= max_excess_loss_db) paths.push_back(p);
  }

  // --- Single-bounce reflections (image method) ------------------------
  const auto& walls = room_->walls();
  for (std::size_t w = 0; w < walls.size(); ++w) {
    const Wall& wall = walls[w];
    const Vec2 image = wall.segment.mirror(rx);
    // The reflection point is where tx->image crosses the wall segment.
    const auto hit = wall.segment.intersect(tx, image);
    if (!hit) continue;
    const Vec2 via = *hit;
    // Degenerate geometry: endpoints on the wall itself.
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
    int crossings = 0;
    double loss = wall.material.reflection_loss_db;
    loss += blockers(tx, via, crossings, kReflectedBlockageFraction);
    loss += blockers(via, rx, crossings, kReflectedBlockageFraction);
    const int wall_id = static_cast<int>(w);
    loss += transmission_loss_db(tx, via, WallSkip{wall_id});
    loss += transmission_loss_db(via, rx, WallSkip{wall_id});
    p.excess_loss_db = loss;
    p.blocker_crossings = crossings;
    if (p.excess_loss_db <= max_excess_loss_db) paths.push_back(p);
  }

  // --- Double bounces (image of image) ----------------------------------
  if (max_bounces >= 2) {
    for (std::size_t wi = 0; wi < walls.size(); ++wi) {
      for (std::size_t wj = 0; wj < walls.size(); ++wj) {
        if (wi == wj) continue;
        const Wall& first = walls[wi];
        const Wall& second = walls[wj];
        // rx mirrored over the second wall, then over the first: aiming
        // at the double image from tx crosses wall wi at the first
        // bounce point.
        const Vec2 image_j = second.segment.mirror(rx);
        const Vec2 image_ji = first.segment.mirror(image_j);
        const auto hit1 = first.segment.intersect(tx, image_ji);
        if (!hit1) continue;
        const Vec2 p1 = *hit1;
        const auto hit2 = second.segment.intersect(p1, image_j);
        if (!hit2) continue;
        const Vec2 p2 = *hit2;
        const double leg1 = distance(tx, p1);
        const double leg2 = distance(p1, p2);
        const double leg3 = distance(p2, rx);
        if (leg1 < 1e-6 || leg2 < 1e-6 || leg3 < 1e-6) continue;

        Path p;
        p.kind = PathKind::kDoubleReflected;
        p.length_m = leg1 + leg2 + leg3;
        p.departure_rad = (p1 - tx).angle();
        p.arrival_rad = (p2 - rx).angle();
        p.wall_index = static_cast<int>(wi);
        p.wall_index2 = static_cast<int>(wj);
        p.via = p1;
        p.via2 = p2;
        int crossings = 0;
        double loss = first.material.reflection_loss_db + second.material.reflection_loss_db;
        loss += blockers(tx, p1, crossings, kReflectedBlockageFraction);
        loss += blockers(p1, p2, crossings, kReflectedBlockageFraction);
        loss += blockers(p2, rx, crossings, kReflectedBlockageFraction);
        const int wid = static_cast<int>(wi);
        const int wjd = static_cast<int>(wj);
        loss += transmission_loss_db(tx, p1, WallSkip{wid});
        loss += transmission_loss_db(p1, p2, WallSkip{wid, wjd});
        loss += transmission_loss_db(p2, rx, WallSkip{wjd});
        p.excess_loss_db = loss;
        p.blocker_crossings = crossings;
        if (p.excess_loss_db <= max_excess_loss_db) paths.push_back(p);
      }
    }
  }
  return paths;
}

}  // namespace mmx::channel::ref
