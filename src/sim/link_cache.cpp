#include "mmx/sim/link_cache.hpp"

#include <algorithm>

#include "mmx/obs/obs.hpp"

namespace mmx::sim {

void LinkCacheStats::publish_obs() const {
  MMX_OBS_COUNT("link_cache.hits", hits);
  MMX_OBS_COUNT("link_cache.misses", misses);
  MMX_OBS_COUNT("link_cache.refills", refills);
  MMX_OBS_COUNT("link_cache.revalidated", revalidated);
  MMX_OBS_COUNT("link_cache.invalidated", invalidated);
}

void LinkCache::snapshot(const channel::Room& room) {
  seen_epoch_ = room.epoch();
  seen_walls_ = room.walls().size();
  seen_blockers_ = room.blockers();
  primed_ = true;
}

bool LinkCache::touches(const std::vector<Corridor>& corridors, const DirtyDisc& disc) {
  for (const Corridor& c : corridors) {
    for (int i = 0; i + 1 < c.count; ++i) {
      if (segment_hits_disc(c.waypoint[static_cast<std::size_t>(i)],
                            c.waypoint[static_cast<std::size_t>(i + 1)], disc.center,
                            disc.radius))
        return true;
    }
  }
  return false;
}

void LinkCache::reconcile(const channel::Room& room) {
  if (!primed_) {
    snapshot(room);
    return;
  }
  if (room.epoch() == seen_epoch_) return;

  if (room.walls().size() != seen_walls_) {
    // Structural change: every path may have moved.
    stats_.invalidated += live_;
    slots_.clear();
    live_ = 0;
    snapshot(room);
    return;
  }

  // Blocker delta: old and new discs of every changed blocker are the
  // only regions whose crossings (and hence losses) can have changed.
  std::vector<DirtyDisc> dirty;
  const auto& now = room.blockers();
  const std::size_t common = std::min(now.size(), seen_blockers_.size());
  for (std::size_t i = 0; i < common; ++i) {
    const channel::Blocker& was = seen_blockers_[i];
    if (was.center == now[i].center && was.radius == now[i].radius &&
        was.loss_db == now[i].loss_db)
      continue;
    dirty.push_back({was.center, was.radius});
    dirty.push_back({now[i].center, now[i].radius});
  }
  for (std::size_t i = common; i < now.size(); ++i) dirty.push_back({now[i].center, now[i].radius});
  for (std::size_t i = common; i < seen_blockers_.size(); ++i)
    dirty.push_back({seen_blockers_[i].center, seen_blockers_[i].radius});

  for (Slot& slot : slots_) {
    if (!slot.present) continue;
    Entry& entry = slot.entry;
    if (entry.stale) continue;  // already invalid; nothing new to learn
    bool drop = false;
    for (const DirtyDisc& disc : dirty) {
      if (touches(entry.corridors, disc)) {
        drop = true;
        break;
      }
    }
    if (drop) {
      // Corridors stay (walls and pose unchanged); only gains are dirty.
      entry.stale = true;
      entry.has_otam = false;
      entry.has_fixed = false;
      ++stats_.invalidated;
    } else {
      ++stats_.revalidated;
    }
  }
  snapshot(room);
}

LinkCache::Entry& LinkCache::ensure(std::uint16_t id, const channel::Pose& pose,
                                    const std::function<Entry()>& fill) {
  if (id >= slots_.size()) slots_.resize(id + 1);
  Slot& slot = slots_[id];
  if (slot.present && !slot.entry.stale && slot.entry.pose == pose) {
    ++stats_.hits;
    return slot.entry;
  }
  ++stats_.misses;
  if (slot.present && !slot.entry.stale && slot.entry.pose != pose)
    ++stats_.invalidated;  // pose moved under a live entry
  slot.entry = fill();
  if (!slot.present) ++live_;
  slot.present = true;
  return slot.entry;
}

bool LinkCache::valid(std::uint16_t id, const channel::Pose& pose) const {
  return id < slots_.size() && slots_[id].present && !slots_[id].entry.stale &&
         slots_[id].entry.pose == pose;
}

void LinkCache::store_refill(std::uint16_t id, Entry entry) {
  ++stats_.refills;
  if (id >= slots_.size()) slots_.resize(id + 1);
  Slot& slot = slots_[id];
  slot.entry = std::move(entry);
  if (!slot.present) ++live_;
  slot.present = true;
}

void LinkCache::erase(std::uint16_t id) {
  if (id >= slots_.size() || !slots_[id].present) return;
  slots_[id] = Slot{};
  --live_;
  ++stats_.invalidated;
}

void LinkCache::clear() {
  stats_.invalidated += live_;
  slots_.clear();
  live_ = 0;
}

std::vector<LinkCache::Corridor> LinkCache::corridors_from_paths(
    std::span<const channel::Path> paths, Vec2 node_position, Vec2 ap_position) {
  std::vector<Corridor> out;
  out.reserve(paths.size());
  for (const channel::Path& p : paths) {
    Corridor c;
    c.waypoint[0] = node_position;
    c.count = 1;
    if (p.kind != channel::PathKind::kLineOfSight) {
      c.waypoint[static_cast<std::size_t>(c.count++)] = p.via;
      if (p.kind == channel::PathKind::kDoubleReflected)
        c.waypoint[static_cast<std::size_t>(c.count++)] = p.via2;
    }
    c.waypoint[static_cast<std::size_t>(c.count++)] = ap_position;
    out.push_back(c);
  }
  return out;
}

}  // namespace mmx::sim
