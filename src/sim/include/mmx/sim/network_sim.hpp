// Room-scale mmX network simulator.
//
// Binds the substrates together: ray-traced channel, orthogonal beam
// pair, link budget, FDM/SDM initialization, and the AP's TMA — enough
// to regenerate every network-level experiment in the paper (§9.2-§9.5).
//
// Link-layer results are memoized through a LinkCache keyed on
// (node pose, Room::epoch()) — bit-identical to re-tracing, but repeated
// gains()/link() queries against unchanged geometry cost a map lookup
// instead of a ray trace (docs/SCALING.md). Set SimConfig::link_cache
// false (or call the *_uncached accessors) to force fresh traces, each
// through its own RoomPlan of the live room.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "mmx/antenna/tma.hpp"
#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/room.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/units.hpp"
#include "mmx/mac/init_protocol.hpp"
#include "mmx/rf/vco.hpp"
#include "mmx/sim/link_budget.hpp"
#include "mmx/sim/link_cache.hpp"

namespace mmx::sim {

struct SimConfig {
  LinkBudgetSpec budget{};
  double freq_hz = 24.125e9;
  mac::InitConfig init{};
  /// Band the AP's FDM allocator manages. Defaults to the paper's 24 GHz
  /// ISM band; large-scale scenarios widen it (e.g. 57-64 GHz, which the
  /// paper's §10 discussion and the band60 ablation consider).
  double band_low_hz = kIsmLowHz;
  double band_high_hz = kIsmHighHz;
  /// Node VCO model — must cover the band or grants are denied.
  rf::VcoSpec node_vco{};
  /// Memoize per-node link state (LinkCache). Results are bit-identical
  /// with the cache on or off; this only trades memory for ray traces.
  bool link_cache = true;
};

class NetworkSimulator {
 public:
  NetworkSimulator(channel::Room room, channel::Pose ap_pose, SimConfig cfg = {});

  /// Register a node: runs the §7a initialization (FDM, then SDM).
  /// Returns the node id, or nullopt if the AP denied the request. A pose
  /// outside the room or on the AP position throws std::invalid_argument
  /// before any id is issued (so does every call that places a node).
  std::optional<std::uint16_t> add_node(const channel::Pose& pose, double rate_bps);

  /// Outcome of an admission attempt (the overload-aware add_node).
  struct Admission {
    std::optional<std::uint16_t> id;  ///< granted node id; nullopt = denied
    /// AP backoff hint on deny (ChannelDeny::retry_after_s); 0 = none.
    double retry_after_s = 0.0;
    /// Rate the granted channel supports — under overload demotion this
    /// can be below the requested rate (never below the configured floor).
    double granted_rate_bps = 0.0;
  };

  /// add_node with the full admission verdict: the deny backoff hint and
  /// the (possibly demoted) granted rate. `priority` feeds overload
  /// shedding; 1 matches add_node exactly.
  Admission admit(const channel::Pose& pose, double rate_bps, std::uint8_t priority = 1);

  /// Grow demoted grants back toward their requested rate (overload mode;
  /// see InitProtocol::promote_demoted). Re-tune notifications queue for
  /// drain_retunes().
  void promote_demoted();

  /// Drain queued re-tune notifications (compaction, shedding, promotion).
  /// grant() already reads the re-tuned grants; the caller applies the
  /// new rate bounds to its per-node controllers.
  std::vector<mac::ChannelGrant> drain_retunes();

  /// AP-side init protocol (holder table, allocator, overload stats).
  const mac::InitProtocol& init() const { return init_; }

  /// Register a node at the link layer WITHOUT requesting spectrum — an
  /// unassociated "thing" the AP still tracks (gains/link/bearing work;
  /// grant() does not). Large-scale churn keeps denied joiners resident
  /// this way so they can retry as spectrum frees up.
  std::uint16_t add_tracked_node(const channel::Pose& pose);

  void remove_node(std::uint16_t id);
  void set_node_pose(std::uint16_t id, const channel::Pose& pose);

  /// AP-side liveness: record that `id` was heard at sim time `now_s`
  /// (data frame or side-channel keepalive — the side channel is not on
  /// the mmWave link, so blockage does not silence it). Nodes never
  /// noted are exempt from reaping.
  void note_activity(std::uint16_t id, double now_s);

  /// Dead-resident reaping: a node that power-cycles never sends a clean
  /// leave, so its grant squats on spectrum until the AP gives up on it.
  /// Removes every associated, liveness-tracked node silent for
  /// `silence_timeout_s` or longer (releasing its grant and slot) and
  /// returns the reaped ids in ascending order — deterministic, so fault
  /// runs stay bit-identical at any refresh thread count.
  std::vector<std::uint16_t> reap_inactive(double now_s, double silence_timeout_s);

  /// AP-initiated grant revocation: free the node's spectrum but keep it
  /// resident and tracked (it must renegotiate via the init protocol).
  /// Returns false if `id` is unknown or already unassociated.
  bool revoke_grant(std::uint16_t id);

  /// The room is mutable so scenarios can move blockers between
  /// measurements. Mutations bump Room::epoch(), which is what keeps the
  /// link cache coherent.
  channel::Room& room() { return room_; }
  const channel::Room& room() const { return room_; }

  /// Per-beam channel gains for a node (memoized; see class comment).
  channel::BeamGains gains(std::uint16_t id) const;

  /// Always re-traces, bypassing the cache (cross-check path).
  channel::BeamGains gains_uncached(std::uint16_t id) const;

  /// OTAM link metrics (paper's "with OTAM" scenario). Memoized.
  OtamLink link(std::uint16_t id) const;

  /// Always re-evaluates from a fresh trace, bypassing the cache.
  OtamLink link_uncached(std::uint16_t id) const;

  /// Fixed-beam ASK baseline ("without OTAM", §9.2 scenario 1). Memoized.
  OtamLink fixed_beam_link(std::uint16_t id) const;

  /// Batched cache (re)fill: recomputes every entry that is not valid,
  /// in place, in 64-node blocks fanned across `threads` workers (0 = one
  /// per hardware thread) by for_each_chunk (sweep.hpp) — results and
  /// cache_stats() are bit-identical to a serial refresh at any thread
  /// count. An entry a blocker delta made stale is repriced without a
  /// trace. Returns the number of entries recomputed. No-op when the
  /// cache is disabled.
  std::size_t refresh_cache(std::size_t threads = 0);

  const LinkCacheStats& cache_stats() const { return cache_.stats(); }
  void reset_cache_stats() { cache_.reset_stats(); }

  /// SINR per node when ALL associated nodes transmit simultaneously
  /// (§9.5): co-channel nodes leak through TMA harmonic sidelobes,
  /// other-channel nodes through the channelization filters.
  std::map<std::uint16_t, double> sinr_all_db() const;

  const mac::ChannelGrant& grant(std::uint16_t id) const;

  /// True if the node holds a channel grant (add_tracked_node and denied
  /// joiners are resident but unassociated).
  bool is_associated(std::uint16_t id) const;

  /// Node's arrival bearing at the AP (AP-frame azimuth of the LoS).
  double bearing_at_ap(std::uint16_t id) const;

  /// Current pose of a resident node.
  const channel::Pose& node_pose(std::uint16_t id) const;

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_associated() const;
  const channel::Pose& ap_pose() const { return ap_pose_; }
  const LinkBudget& budget() const { return budget_; }

 private:
  /// Link-layer state of a resident node. Grant state lives only in
  /// init_.holders(): a node is associated iff it holds a record there.
  struct NodeState {
    channel::Pose pose;
    /// Last note_activity() time; negative = never noted (reap-exempt).
    double last_active_s = -1.0;
  };

  /// Flat id-indexed storage (ids are issued densely): the link()/gains()
  /// hot path resolves a node in one array read instead of a map walk,
  /// which matters at 10^4 nodes x many polls per second (docs/SCALING.md).
  struct NodeSlot {
    NodeState state;
    bool present = false;
  };

  /// Compiled trace state shared by every cached evaluation: the RoomPlan
  /// (walls + blocker grid) plus the AP-endpoint ImageTable, both rebuilt
  /// lazily when Room::epoch() moves. The *_uncached accessors trace
  /// through a fresh plan of their own instead, so cached==uncached
  /// compares the batched refill kernels against single traces of the
  /// live room (docs/GEOMETRY.md).
  struct TraceContext {
    channel::RoomPlan plan;
    channel::ImageTable ap_images;
  };

  struct RefillJob {
    std::uint16_t id = 0;
    channel::Pose pose;
    /// Stale at the same pose: keep the entry's paths, reprice them.
    bool reprice = false;
    LinkCache::Entry* entry = nullptr;  ///< the slot the refill writes
  };

  const NodeState& node(std::uint16_t id) const;
  /// Throws std::invalid_argument for a node position outside the room or
  /// on the AP. Callers run it before any state changes.
  void check_node_position(Vec2 position) const;
  /// AP-frame azimuth of the direct path from `position` to the AP.
  double ap_bearing(Vec2 position) const;
  /// Next never-issued id. Ids are not recycled, so once all 65535 are
  /// spent this throws std::overflow_error instead of wrapping onto an id
  /// that may still hold a grant.
  std::uint16_t issue_id();
  void store_node(std::uint16_t id, NodeState state);
  channel::BeamGains compute_gains(const channel::Pose& pose) const;
  /// Lazily recompile ctx_ against the current Room::epoch(). Not safe
  /// during a parallel refresh — refresh_cache primes it serially and
  /// hands workers the const reference.
  const TraceContext& trace_context() const;
  /// In-place refill of one job block. The jobs that need a trace share
  /// one blocker-free trace_batch_into, amortizing the AP image table per
  /// block, and keep each traced path with its wall terms, every leg
  /// dirty. Then every job prices its dirty legs against the plan's
  /// blockers. refresh_cache fans blocks of it over workers; a lazy miss
  /// in cache_entry refills a one-job block. Returns the block's legs
  /// priced and reused, for LinkCache::count_legs.
  LinkCache::LegCounts refill_block(const TraceContext& ctx,
                                    std::span<const RefillJob> jobs) const;
  LinkCache::Entry& cache_entry(std::uint16_t id, const NodeState& n) const;

  channel::Room room_;
  channel::Pose ap_pose_;
  SimConfig cfg_;
  LinkBudget budget_;
  antenna::MmxBeamPair beams_;
  antenna::Dipole ap_antenna_;
  antenna::TimeModulatedArray tma_;
  mac::InitProtocol init_;
  rf::SpdtSwitch spdt_;
  std::vector<NodeSlot> nodes_;
  std::size_t num_nodes_ = 0;
  std::uint16_t next_id_ = 1;
  mutable LinkCache cache_;
  mutable TraceContext ctx_;
  std::uint64_t refresh_gen_ = 0;  ///< refresh_cache() call count (trace span key)
};

}  // namespace mmx::sim
