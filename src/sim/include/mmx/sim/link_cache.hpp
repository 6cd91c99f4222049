// Memoized per-node link state — the layer that makes "billions of
// things" reachable in wall-clock terms.
//
// NetworkSimulator re-traces rays on every gains()/link() call; at 10^4
// nodes that is the entire simulation budget. The cache keys each node's
// ray-traced result on (node pose, Room::epoch()) and invalidates with
// *exact* coherence:
//
//   - A pose change invalidates that node and nobody else (entries store
//     the pose they were computed at; a mismatch is a miss).
//   - A structural change (new reflector/partition) drops everything —
//     walls reshape every path.
//   - A blocker add/move/clear invalidates exactly the entries whose
//     wall-only path corridors the old or new disc touches. Blockers
//     attenuate paths but never create or bend them, so the blocker-free
//     corridor set (a corridor window of RoomPlan::trace_batch_into) is
//     a sound superset of every path a blocker configuration can
//     influence: a disc that misses all corridors provably leaves the
//     node's gains bit-identical, and the entry is revalidated for free.
//     Invalidated entries are marked stale rather than erased; a refill
//     re-traces their gains and corridors in one geometric pass.
//
// Cached results are therefore bit-identical to uncached ones — the same
// guarantee the parallel sweep engine gives (docs/PARALLELISM.md), pinned
// by tests/sim/link_cache_test.cpp and docs/SCALING.md.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/room.hpp"
#include "mmx/sim/link_budget.hpp"

namespace mmx::sim {

/// Per-instance counters. publish_obs() mirrors the totals onto the
/// global `mmx::obs` registry (`link_cache.*` counters, exported by the
/// bench harness's --obs dump) in one bulk add per run — the hit path
/// itself carries no instrumentation, so lookups cost the same with
/// observability enabled as disabled (the <2% budget in
/// docs/OBSERVABILITY.md).
struct LinkCacheStats {
  std::uint64_t hits = 0;         ///< lookups served from a valid entry
  std::uint64_t misses = 0;       ///< lookups that had to recompute
  std::uint64_t refills = 0;      ///< entries filled by batched refresh
  std::uint64_t revalidated = 0;  ///< entries kept across a geometry epoch
  std::uint64_t invalidated = 0;  ///< entries dropped (geometry or pose)

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Add these totals onto the global obs counters (`link_cache.hits`,
  /// `.misses`, `.refills`, `.revalidated`, `.invalidated`). No-op when
  /// collection is disabled.
  void publish_obs() const;
};

class LinkCache {
 public:
  /// Waypoints of one wall-only propagation path: tx [, via [, via2]], rx.
  struct Corridor {
    std::array<Vec2, 4> waypoint{};
    int count = 0;
  };

  struct Entry {
    channel::Pose pose;                ///< node pose the entry was computed at
    channel::BeamGains gains{};        ///< ray-traced per-beam channel gains
    std::vector<Corridor> corridors;   ///< wall-only path superset (see header)
    OtamLink otam{};                   ///< memoized evaluate_otam result
    OtamLink fixed{};                  ///< memoized evaluate_fixed_beam result
    bool has_otam = false;
    bool has_fixed = false;
    /// Gains invalidated by a blocker delta.
    bool stale = false;
  };

  /// Bring the cache in sync with `room`'s current epoch: no-op when the
  /// epoch is unchanged, otherwise drop exactly the entries the geometry
  /// delta can affect (see file header for the coherence argument).
  void reconcile(const channel::Room& room);

  /// Valid entry for (id, pose) or a freshly filled one: `fill` runs only
  /// on a miss (absent, stale, or computed at another pose). Counts one
  /// hit or one miss. Call reconcile() first.
  Entry& ensure(std::uint16_t id, const channel::Pose& pose,
                const std::function<Entry()>& fill);

  /// True if a lookup for (id, pose) would hit. No stats side effects —
  /// this is the batched-refresh probe.
  bool valid(std::uint16_t id, const channel::Pose& pose) const;

  /// Commit a batch-computed entry (counts toward `stats().refills`).
  void store_refill(std::uint16_t id, Entry entry);

  void erase(std::uint16_t id);
  void clear();

  std::size_t size() const { return live_; }
  const LinkCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Wall-only path corridors node -> AP, from a blocker-free path set
  /// (a corridor window of RoomPlan::trace_batch_into). The trace must use
  /// the same max_excess_loss_db and max_bounces as the gains, so the
  /// corridor set stays a superset of the real path set.
  static std::vector<Corridor> corridors_from_paths(std::span<const channel::Path> paths,
                                                    Vec2 node_position, Vec2 ap_position);

 private:
  struct DirtyDisc {
    Vec2 center;
    double radius = 0.0;
  };

  static bool touches(const std::vector<Corridor>& corridors, const DirtyDisc& disc);
  void snapshot(const channel::Room& room);

  /// One slot per node id. Ids are issued densely by NetworkSimulator, so
  /// flat indexed storage makes the hit path one bounds check + one array
  /// read — at 10^4 entries a node-based map spends more time chasing
  /// pointers than the lookup saves.
  struct Slot {
    Entry entry;
    bool present = false;
  };
  std::vector<Slot> slots_;
  std::size_t live_ = 0;  ///< number of present slots
  bool primed_ = false;  ///< snapshot taken at least once
  std::uint64_t seen_epoch_ = 0;
  std::size_t seen_walls_ = 0;
  std::vector<channel::Blocker> seen_blockers_;
  LinkCacheStats stats_;
};

}  // namespace mmx::sim
