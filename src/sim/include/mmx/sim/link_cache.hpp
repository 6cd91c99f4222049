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
//   - A structural change (the wall count changed: a new reflector or
//     partition) drops everything — walls reshape every path.
//   - Any blocker add, remove, move or loss change is a dirty-disc delta:
//     the old and new disc of every blocker whose index-wise entry
//     changed. Each wall-only path leg such a disc touches gets a dirty
//     bit, ORed in across deltas (an entry already stale still collects
//     the legs a later delta touches), and an entry with a dirty leg is
//     stale. Blockers attenuate paths but never create or bend them, so
//     the blocker-free path set an entry keeps is a sound superset of
//     every path any blocker configuration can produce: an entry no disc
//     touches provably keeps bit-identical gains and is revalidated for
//     free. A uniform grid over the room indexes every entry's legs; a
//     delta visits each entry listed in the cells its discs overlap once
//     and tests each of its clean legs against every disc.
//   - A stale entry keeps its paths, and its refill reprices them in
//     place. Only dirty legs are priced (RoomPlan::leg_blocker_loss_db);
//     a clean leg keeps its stored blocker term, because no changed
//     blocker touches it and every blocker whose index moved is in the
//     delta, so the same blockers cross it in the same index order.
//     RoomPlan::priced_loss_db re-adds the terms to the wall terms in the
//     trace's order, then the trace's cull and gain follow; a path with
//     no dirty leg keeps its stored cull and gain, and an entry whose
//     gains come out bit-equal keeps its memoized links. A blocker
//     changes a path's loss, not its geometry (paper §6.1), so the
//     reprice is exact and skips the trace, the antenna patterns and the
//     spreading loss.
//
// Cached results are therefore bit-identical to uncached ones — the same
// guarantee the parallel sweep engine gives (docs/PARALLELISM.md), pinned
// by tests/sim/link_cache_test.cpp and docs/SCALING.md.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/path.hpp"
#include "mmx/channel/room.hpp"
#include "mmx/channel/uniform_grid.hpp"
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
  std::uint64_t repriced = 0;     ///< refills that kept their paths (no trace)
  std::uint64_t revalidated = 0;  ///< entries kept across a geometry epoch
  std::uint64_t invalidated = 0;  ///< entries dropped (geometry or pose)
  std::uint64_t corridor_tests = 0;  ///< exact leg-disc tests in reconcile()
  std::uint64_t legs_priced = 0;  ///< blocker terms refills computed (traced or dirty legs)
  std::uint64_t legs_reused = 0;  ///< clean legs whose term a reprice kept

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Add these totals onto the global obs counters (`link_cache.hits`,
  /// `.misses`, `.refills`, `.repriced`, `.revalidated`, `.invalidated`,
  /// `.corridor_tests`, `.legs_priced`, `.legs_reused`). No-op when
  /// collection is disabled.
  void publish_obs() const;
};

class LinkCache {
 public:
  static constexpr double kUnpricedDb = std::numeric_limits<double>::quiet_NaN();

  /// One blocker-free path node -> AP, with every term a blocker reprice
  /// keeps. Its ends are the entry's pose and the cache's AP position; a
  /// path has one leg (line of sight) or two (via one reflection point).
  struct PathRecord {
    Vec2 via{};                 ///< reflection point (reflected paths)
    channel::WallTerms walls;   ///< reflection sum and per-leg partition loss
    /// Each leg's blocker term at the last pricing; NaN before the first.
    std::array<double, 2> leg_blocker_db{kUnpricedDb, kUnpricedDb};
    std::complex<double> beam0_field;  ///< node Beam 0 field at departure
    std::complex<double> beam1_field;  ///< node Beam 1 field at departure
    double ap_amp = 0.0;        ///< AP element amplitude at arrival
    std::complex<double> phasor;  ///< exp(-jkL), channel::path_phasor
    double spreading_db = 0.0;  ///< free-space + atmospheric loss
    /// Path gain times ap_amp at the last pricing (0 if culled).
    std::complex<double> gain;
    bool reflected = false;
    bool kept = false;  ///< passed the cull at the last pricing
    /// Bit l: a dirty disc touched leg l since its term was priced.
    /// reconcile() sets it; the fill prices the leg, the commit clears it.
    std::uint8_t dirty_legs = 0;

    unsigned legs() const { return reflected ? 2u : 1u; }
  };

  struct Entry {
    channel::Pose pose;               ///< node pose the entry was computed at
    channel::BeamGains gains{};       ///< ray-traced per-beam channel gains
    std::vector<PathRecord> paths;    ///< blocker-free path set (see header)
    OtamLink otam{};                  ///< memoized evaluate_otam result
    OtamLink fixed{};                 ///< memoized evaluate_fixed_beam result
    /// The memos survive a reprice whose gains come out bit-equal; the
    /// refill clears them otherwise.
    bool has_otam = false;
    bool has_fixed = false;
    /// Gains invalidated by a blocker delta (some path has a dirty leg);
    /// the paths stay valid.
    bool stale = false;
  };

  /// `ap_position` is the far end of every cached path.
  explicit LinkCache(Vec2 ap_position) : ap_(ap_position) {}

  /// Bring the cache in sync with `room`'s current epoch: no-op when the
  /// epoch is unchanged, otherwise drop or mark stale exactly the entries
  /// the geometry delta can affect (see file header).
  void reconcile(const channel::Room& room) {
    if (primed_ && room.epoch() == seen_epoch_) return;
    reconcile_delta(room);
  }

  /// Valid entry for (id, pose), counting one hit; otherwise one miss,
  /// and `fill(entry, reprice)` brings the slot up to date in place.
  /// `reprice` is true when the entry is stale at the same pose, so its
  /// paths stand and only their dirty legs need pricing; false means
  /// a trace must rebuild entry.paths (entry.pose is already set).
  /// Call reconcile() first.
  template <typename Fill>
  Entry& ensure(std::uint16_t id, const channel::Pose& pose, Fill&& fill) {
    if (id < slots_.size()) {
      Slot& slot = slots_[id];
      if (slot.present && !slot.entry.stale && slot.entry.pose == pose) {
        ++stats_.hits;
        return slot.entry;
      }
    }
    ++stats_.misses;
    const bool reprice = open_refill(id, pose);
    Entry& entry = slots_[id].entry;
    fill(entry, reprice);
    close_refill(id, reprice);
    return entry;
  }

  /// True if a lookup for (id, pose) would hit. No stats side effects.
  bool valid(std::uint16_t id, const channel::Pose& pose) const {
    return id < slots_.size() && slots_[id].present && !slots_[id].entry.stale &&
           slots_[id].entry.pose == pose;
  }

  /// Batched in-place refill, in three steps. open_refill (serial) readies
  /// `id`'s slot for `pose` and says whether its paths can be repriced
  /// (as for ensure's fill). The caller then fills entry(id), on any
  /// thread, one thread per id; opening may grow the slot table, so take
  /// entry references only after the last open_refill. commit_refill
  /// (serial) counts one refill (and one repriced), clears the dirty
  /// bits and re-indexes the legs of traced paths.
  bool open_refill(std::uint16_t id, const channel::Pose& pose);
  Entry& entry(std::uint16_t id) { return slots_[id].entry; }
  void commit_refill(std::uint16_t id, bool repriced);
  /// Blocker terms fills computed and clean legs whose terms reprices
  /// kept; the fills price, the cache only counts.
  struct LegCounts {
    std::uint64_t priced = 0;
    std::uint64_t reused = 0;
  };
  void count_legs(const LegCounts& c) {
    stats_.legs_priced += c.priced;
    stats_.legs_reused += c.reused;
  }

  /// Ascending, unique ids that may have lost a valid entry since the
  /// last call: entries reconcile() marked stale or dropped, erased
  /// entries, and ids passed to note_new(). Every id that is resident but
  /// not valid() is among them, so a batched refresh never scans the
  /// whole table.
  std::vector<std::uint16_t> take_pending();
  /// A new resident id: it has no entry yet.
  void note_new(std::uint16_t id) { queue(id); }

  void erase(std::uint16_t id);

  std::size_t size() const { return live_; }
  const LinkCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  struct DirtyDisc {
    Vec2 center;
    double radius = 0.0;
  };

  /// One slot per node id. Ids are issued densely by NetworkSimulator, so
  /// flat indexed storage makes the hit path one bounds check + one array
  /// read — at 10^4 entries a node-based map spends more time chasing
  /// pointers than the lookup saves.
  struct Slot {
    Entry entry;
    bool present = false;
    bool queued = false;     ///< id is in pending_
    std::uint32_t seen = 0;  ///< last blocker delta that visited it
    std::uint32_t cells = 0;  ///< cell lists its current legs were added to
  };

  void reconcile_delta(const channel::Room& room);
  void snapshot(const channel::Room& room);
  /// Drop every entry (a structural change), queueing its id.
  void drop_all();
  void close_refill(std::uint16_t id, bool repriced);
  void queue(std::uint16_t id);
  /// OR a dirty bit into each clean leg of `entry` that a disc in
  /// `dirty` touches; true if a bit was set.
  bool mark_dirty_legs(Entry& entry, std::span<const DirtyDisc> dirty);
  /// List `id` in the cells its entry's legs cross.
  void index(std::uint16_t id);
  /// Retire `id`'s listings. They stay in the cells as garbage: a listed
  /// id costs at most one extra exact test, and reconcile() rebuilds the
  /// index once garbage outweighs live listings.
  void unindex(std::uint16_t id);
  void rebuild_index();
  template <typename Fn>
  void for_each_leg_cell(const Entry& entry, Fn&& fn);

  Vec2 ap_;
  std::vector<Slot> slots_;
  std::size_t live_ = 0;   ///< number of present slots
  std::size_t stale_ = 0;  ///< number of present, stale slots
  std::vector<std::uint16_t> pending_;
  /// Leg index over the room's wall box: cell c lists every present
  /// entry with a leg through it, plus retired listings (garbage_ of
  /// them, against listed_ live ones). cell_walk_ deduplicates the cells
  /// of one entry's walk; Slot::seen the entries of one delta's query.
  channel::UniformGrid grid_;
  std::vector<std::vector<std::uint16_t>> cell_ids_;
  std::size_t listed_ = 0;
  std::size_t garbage_ = 0;
  std::vector<std::uint32_t> cell_walk_;
  std::uint32_t walk_ = 0;
  std::uint32_t query_ = 0;
  bool primed_ = false;  ///< snapshot taken at least once
  std::uint64_t seen_epoch_ = 0;
  std::size_t seen_walls_ = 0;
  std::vector<channel::Blocker> seen_blockers_;
  LinkCacheStats stats_;
};

}  // namespace mmx::sim
