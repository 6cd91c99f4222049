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
                                   bool apply_blockers) const {
  // Blocker-free traces feed cache-coherence decisions: see header.
  const auto blockers = [&](Vec2 a, Vec2 b, int& crossings, double scale) {
    return apply_blockers ? blocker_loss_db(a, b, crossings, scale) : 0.0;
  };
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

  return paths;
}

}  // namespace mmx::channel::ref
