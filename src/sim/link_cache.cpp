#include "mmx/sim/link_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "mmx/obs/obs.hpp"

namespace mmx::sim {

void LinkCacheStats::publish_obs() const {
  MMX_OBS_COUNT("link_cache.hits", hits);
  MMX_OBS_COUNT("link_cache.misses", misses);
  MMX_OBS_COUNT("link_cache.refills", refills);
  MMX_OBS_COUNT("link_cache.repriced", repriced);
  MMX_OBS_COUNT("link_cache.revalidated", revalidated);
  MMX_OBS_COUNT("link_cache.invalidated", invalidated);
  MMX_OBS_COUNT("link_cache.corridor_tests", corridor_tests);
  MMX_OBS_COUNT("link_cache.legs_priced", legs_priced);
  MMX_OBS_COUNT("link_cache.legs_reused", legs_reused);
}

void LinkCache::snapshot(const channel::Room& room) {
  seen_epoch_ = room.epoch();
  seen_blockers_ = room.blockers();
  if (primed_ && room.walls().size() == seen_walls_) return;
  // First snapshot, or the walls changed: lay the leg index over the
  // walls' bounding box, which holds every node, AP and reflection point.
  seen_walls_ = room.walls().size();
  Vec2 lo = room.walls().front().segment.a;
  Vec2 hi = lo;
  for (const channel::Wall& w : room.walls())
    for (const Vec2 p : {w.segment.a, w.segment.b}) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
    }
  grid_ = channel::UniformGrid(lo, hi, 0.0);
  cell_ids_.assign(grid_.cells(), {});
  cell_walk_.assign(grid_.cells(), 0u);
  walk_ = 0;
  primed_ = true;
}

void LinkCache::queue(std::uint16_t id) {
  if (id >= slots_.size()) slots_.resize(id + 1);
  if (slots_[id].queued) return;
  slots_[id].queued = true;
  pending_.push_back(id);
}

std::vector<std::uint16_t> LinkCache::take_pending() {
  std::vector<std::uint16_t> out;
  out.swap(pending_);
  for (const std::uint16_t id : out) slots_[id].queued = false;
  std::sort(out.begin(), out.end());
  return out;
}

template <typename Fn>
void LinkCache::for_each_leg_cell(const Entry& entry, Fn&& fn) {
  const Vec2 node = entry.pose.position;
  for (const PathRecord& p : entry.paths) {
    if (p.reflected) {
      grid_.for_each_segment_cell(node, p.via, fn);
      grid_.for_each_segment_cell(p.via, ap_, fn);
    } else {
      grid_.for_each_segment_cell(node, ap_, fn);
    }
  }
}

void LinkCache::index(std::uint16_t id) {
  if (!primed_) throw std::logic_error("LinkCache: reconcile() before the first fill");
  if (++walk_ == 0) {
    std::fill(cell_walk_.begin(), cell_walk_.end(), 0u);
    walk_ = 1;
  }
  std::uint32_t cells = 0;
  for_each_leg_cell(slots_[id].entry, [&](std::size_t cell) {
    if (cell_walk_[cell] == walk_) return;
    cell_walk_[cell] = walk_;
    cell_ids_[cell].push_back(id);
    ++cells;
  });
  slots_[id].cells = cells;
  listed_ += cells;
}

void LinkCache::unindex(std::uint16_t id) {
  Slot& slot = slots_[id];
  listed_ -= slot.cells;
  garbage_ += slot.cells;
  slot.cells = 0;
}

void LinkCache::rebuild_index() {
  for (std::vector<std::uint16_t>& ids : cell_ids_) ids.clear();
  listed_ = 0;
  garbage_ = 0;
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    slots_[id].cells = 0;
    if (slots_[id].present) index(static_cast<std::uint16_t>(id));
  }
}

bool LinkCache::mark_dirty_legs(Entry& entry, std::span<const DirtyDisc> dirty) {
  const auto touched = [&](Vec2 a, Vec2 b) {
    // RoomPlan's broad-phase reject: an exact hit puts the leg's closest
    // point to the centre inside the disc's box, so the boxes overlap.
    const double minx = std::min(a.x, b.x) - channel::kGridSlackM;
    const double maxx = std::max(a.x, b.x) + channel::kGridSlackM;
    const double miny = std::min(a.y, b.y) - channel::kGridSlackM;
    const double maxy = std::max(a.y, b.y) + channel::kGridSlackM;
    for (const DirtyDisc& d : dirty) {
      if (d.center.x + d.radius < minx || d.center.x - d.radius > maxx ||
          d.center.y + d.radius < miny || d.center.y - d.radius > maxy)
        continue;
      ++stats_.corridor_tests;
      if (segment_hits_disc(a, b, d.center, d.radius)) return true;
    }
    return false;
  };
  bool marked = false;
  for (PathRecord& p : entry.paths) {
    const std::array<Vec2, 3> corners{entry.pose.position, p.reflected ? p.via : ap_, ap_};
    for (unsigned l = 0; l < p.legs(); ++l) {
      const auto bit = static_cast<std::uint8_t>(1u << l);
      if ((p.dirty_legs & bit) != 0 || !touched(corners[l], corners[l + 1])) continue;
      p.dirty_legs |= bit;
      marked = true;
    }
  }
  return marked;
}

void LinkCache::drop_all() {
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    slot.cells = 0;
    if (!slot.present) continue;
    slot.entry = Entry{};
    slot.present = false;
    queue(static_cast<std::uint16_t>(id));
  }
  for (std::vector<std::uint16_t>& ids : cell_ids_) ids.clear();
  listed_ = 0;
  garbage_ = 0;
  stats_.invalidated += live_;
  live_ = 0;
  stale_ = 0;
}

void LinkCache::reconcile_delta(const channel::Room& room) {
  if (!primed_) {
    snapshot(room);
    return;
  }
  if (room.walls().size() != seen_walls_) {
    // Structural change: every path may have moved.
    drop_all();
    snapshot(room);
    return;
  }

  // Blocker delta: old and new discs of every changed blocker are the
  // only regions whose crossings (and hence losses) can have changed.
  // Index-wise: a blocker whose index shifted counts as changed too.
  std::vector<DirtyDisc> dirty;
  const auto& now = room.blockers();
  const std::size_t common = std::min(now.size(), seen_blockers_.size());
  for (std::size_t i = 0; i < common; ++i) {
    const channel::Blocker& was = seen_blockers_[i];
    const bool same_disc = was.center == now[i].center && was.radius == now[i].radius;
    if (same_disc && was.loss_db == now[i].loss_db) continue;
    if (!same_disc) dirty.push_back({was.center, was.radius});
    dirty.push_back({now[i].center, now[i].radius});
  }
  for (std::size_t i = common; i < now.size(); ++i) dirty.push_back({now[i].center, now[i].radius});
  for (std::size_t i = common; i < seen_blockers_.size(); ++i)
    dirty.push_back({seen_blockers_[i].center, seen_blockers_[i].radius});

  // The entries listed in the cells the discs overlap are the candidates
  // (the grid is conservative: an entry with a leg a disc touches is
  // always among them). Each is visited once per delta, stale or not, and
  // its clean legs are tested against every disc. Retired listings only
  // add candidates, until they outnumber the live ones.
  if (garbage_ > listed_) rebuild_index();
  if (++query_ == 0) {
    for (Slot& slot : slots_) slot.seen = 0;
    query_ = 1;
  }
  const std::size_t fresh = live_ - stale_;
  std::size_t dropped = 0;
  for (const DirtyDisc& disc : dirty) {
    grid_.for_each_disc_cell(disc.center, disc.radius, [&](std::size_t cell) {
      for (const std::uint16_t id : cell_ids_[cell]) {
        Slot& slot = slots_[id];
        if (slot.seen == query_) continue;
        slot.seen = query_;
        if (!slot.present || !mark_dirty_legs(slot.entry, dirty) || slot.entry.stale) continue;
        // The paths stay (walls and pose unchanged); only gains are dirty.
        slot.entry.stale = true;
        ++stale_;
        ++dropped;
        queue(id);
      }
    });
  }
  stats_.invalidated += dropped;
  stats_.revalidated += fresh - dropped;
  snapshot(room);
}

bool LinkCache::open_refill(std::uint16_t id, const channel::Pose& pose) {
  if (id >= slots_.size()) slots_.resize(id + 1);
  Slot& slot = slots_[id];
  Entry& entry = slot.entry;
  if (slot.present && entry.stale && entry.pose == pose) return true;
  if (slot.present) {
    // A trace replaces the paths: the slot is absent until the commit,
    // so a fill that throws leaves no entry behind.
    if (entry.stale)
      --stale_;
    else
      ++stats_.invalidated;  // pose moved under a live entry
    unindex(id);
    slot.present = false;
    --live_;
  }
  entry.pose = pose;
  entry.stale = false;
  entry.has_otam = false;
  entry.has_fixed = false;
  return false;
}

void LinkCache::close_refill(std::uint16_t id, bool repriced) {
  Slot& slot = slots_[id];
  // The fill priced every dirty leg.
  for (PathRecord& p : slot.entry.paths) p.dirty_legs = 0;
  if (repriced) {
    slot.entry.stale = false;
    --stale_;
    return;
  }
  slot.present = true;
  ++live_;
  index(id);
}

void LinkCache::commit_refill(std::uint16_t id, bool repriced) {
  ++stats_.refills;
  if (repriced) ++stats_.repriced;
  close_refill(id, repriced);
}

void LinkCache::erase(std::uint16_t id) {
  if (id >= slots_.size() || !slots_[id].present) return;
  Slot& slot = slots_[id];
  unindex(id);
  if (slot.entry.stale) --stale_;
  slot.entry = Entry{};
  slot.present = false;
  --live_;
  ++stats_.invalidated;
  queue(id);
}

}  // namespace mmx::sim
