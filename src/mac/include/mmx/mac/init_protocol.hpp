// The mmX initialization protocol (paper §4, §7).
//
// AP side of the one-shot bootstrap: nodes ask for a data rate over the
// WiFi/BT side channel; the AP sizes a channel from the rate, allocates
// FDM spectrum, and when the band is exhausted starts sharing channels
// spatially (SDM groups separated by TMA harmonics). Each grant also
// carries the two VCO tuning voltages realizing the node's ASK-FSK tone
// pair inside its channel.
//
// Overload control (docs/ROBUSTNESS.md): with "billions of things" the
// interesting regime is the one where demand exceeds the band. Instead
// of a denial cliff the AP degrades gracefully — FDM, then SDM, then
// spectrum compaction when fragmentation is the only obstacle, then
// rate demotion down to a configured floor, then (optionally) shedding
// bandwidth from lower-priority incumbents, and only then a deny that
// carries an occupancy-derived backoff hint so the rejected population
// desynchronizes. All of it is deterministic: the AP draws no
// randomness, and every decision is a pure function of the request
// sequence.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "mmx/mac/allocator.hpp"
#include "mmx/mac/side_channel.hpp"
#include "mmx/rf/vco.hpp"

namespace mmx::mac {

/// One usable TMA harmonic and the direction it steers to (set by the
/// AP's switching design; see antenna::ap_tma).
struct HarmonicSlot {
  int harmonic;
  double angle_rad;
};

/// Harmonics 0, 1, -1, ..., 4, -4 of the AP's TMA (antenna::ap_tma, the
/// one sim::NetworkSimulator receives SDM groups through), each at that
/// TMA's steered_angle: sin(theta_m) = 0.125 m.
std::vector<HarmonicSlot> default_sdm_slots();

/// Deny backoff hint at zero occupancy and zero deny pressure
/// (docs/ROBUSTNESS.md): hint = base * (1 + 15 occ^2 + 0.25 streak),
/// with occupancy in [0, 1] and the streak counted up to 32, so the hint
/// saturates at 24 * base = 3 s.
inline constexpr double kDenyHintBaseS = 0.125;

/// Graceful-degradation policy for oversubscribed joins. Disabled by
/// default, which keeps InitProtocol byte-identical to the pre-overload
/// admission path (first-fit, bare denies, no compaction). Enabled, the
/// AP places with best fit and compacts the band whenever fragmentation
/// alone blocks a demand.
struct OverloadConfig {
  bool enabled = false;
  /// Rate floor for admission demotion: when the full demand cannot be
  /// placed the AP walks a halving-rate ladder (the data rate is a
  /// switch setting — paper §9.1) and grants the largest step whose
  /// channel fits, stopping at this floor. 0 disables demotion.
  double min_rate_bps = 0.0;
  /// Allow shrinking strictly-lower-priority incumbents to the rate
  /// floor to admit a newcomer at its floor. Their spectrum is restored
  /// by promote_demoted() when the band relaxes.
  bool shedding = false;
};

/// The AP's tone placement and SDM geometry are fixed (paper §7a): the
/// FSK tone offset, the bearing separation (which caps a group at 3) and
/// the harmonic mismatch tolerance are constants in init_protocol.cpp,
/// and the harmonics are default_sdm_slots().
struct InitConfig {
  double spectral_efficiency = kSpectralEfficiency;  ///< bit/s/Hz of OTAM's ASK-FSK
  double guard_hz = 1e6;
  /// Graceful degradation under oversubscription; off by default.
  OverloadConfig overload;
};

/// Overload-control accounting (all zero while the policy is disabled).
struct OverloadStats {
  std::uint64_t demotions = 0;       ///< newcomers admitted below their request
  std::uint64_t shed_demotions = 0;  ///< incumbents shrunk to the floor
  std::uint64_t promotions = 0;      ///< demoted grants grown back
  std::uint64_t compactions = 0;     ///< compact passes that moved >= 1 channel
  std::uint64_t retunes = 0;         ///< grant re-tunes issued (compaction + shed + promote)
  std::uint64_t hinted_denies = 0;   ///< denies carrying a backoff hint
  double hint_delay_sum_s = 0.0;     ///< sum of issued hints (mean = sum/hinted)
  /// Post-mutation allocator invariant checks that failed (overlap,
  /// guard or band-edge violation). Always 0; gated in CI.
  std::uint64_t invariant_violations = 0;

  bool operator==(const OverloadStats&) const = default;
};

/// Capped-exponential backoff for rejoin / re-grant attempts.
struct BackoffConfig {
  double base_s = 0.125;   ///< first retry delay
  double factor = 2.0;     ///< per-attempt growth
  double cap_s = 2.0;      ///< delay ceiling
  /// Jitter as a fraction of the computed delay: the returned delay is
  /// uniform in [delay * (1 - jitter_frac), delay * (1 + jitter_frac)].
  /// Jitter draws come from the caller's Rng, so two nodes with
  /// independent streams desynchronize while a run stays reproducible.
  double jitter_frac = 0.25;
};

/// Per-node retry pacer for re-acquisition after a deny, a revoked grant,
/// or a power cycle (mmWave links die abruptly — §9.3's standing person,
/// a reaped zombie grant). Deterministic: the delay sequence is a pure
/// function of the attempt count and the caller-supplied Rng stream.
class RejoinBackoff {
 public:
  explicit RejoinBackoff(BackoffConfig cfg = {});

  /// Delay before the next attempt; advances the attempt counter.
  /// `hint_s` is the AP's deny backoff hint (ChannelDeny::retry_after_s):
  /// it floors the schedule delay before jitter — the AP has seen the
  /// whole band's occupancy, the node has only its own attempt count.
  double next_delay_s(Rng& rng, double hint_s = 0.0);

  /// A successful (re)grant resets the schedule.
  void reset() { attempt_ = 0; }

  int attempt() const { return attempt_; }
  const BackoffConfig& config() const { return cfg_; }

 private:
  BackoffConfig cfg_;
  int attempt_ = 0;
};

class InitProtocol {
 public:
  /// One grant holder's state, recorded when the grant is issued and
  /// erased on release: the live grant plus what admission needs to
  /// place it again (bearing for SDM grouping, requested rate for
  /// promotion, priority for shedding). A demoted holder has a grant
  /// narrower than its requested rate needs.
  struct Holder {
    ChannelGrant grant;
    double bearing_rad = 0.0;
    double requested_rate_bps = 0.0;
    std::uint8_t priority = 1;
  };

  /// Work done by the admission loops whose size depends on the
  /// population, counted so bench gates can bound it on any machine.
  /// These count work, not outcomes: a faster search that answers the
  /// same changes them and nothing else, so they stay out of
  /// OverloadStats.
  struct Work {
    std::uint64_t sdm_requests = 0;        ///< try_sdm calls
    std::uint64_t sdm_groups_scanned = 0;  ///< open groups try_sdm's step 1 looked at
    std::uint64_t retune_visits = 0;       ///< holders retune_channel looked up
  };

  InitProtocol(FdmAllocator allocator, rf::Vco node_vco, InitConfig cfg = {});

  /// Process one request: FDM first, SDM sharing when the band is full,
  /// then the overload ladder (compact -> demote -> shed -> deny+hint)
  /// when enabled. Returns a grant or a deny.
  SideChannelMessage handle(const ChannelRequest& request);

  /// Drain the AP side of a SideChannel: handle every pending request,
  /// queue the responses back, then deliver any re-tune notifications
  /// compaction / shedding / promotion produced. Returns the number of
  /// requests processed.
  std::size_t serve(SideChannel& channel, Rng& rng);

  /// Every current grant holder, keyed by node. A denied request leaves
  /// no record.
  const std::map<std::uint16_t, Holder>& holders() const { return holders_; }

  /// Release a node's resources.
  bool release(std::uint16_t node_id);

  /// Renegotiate a node's rate (a camera switching quality tiers). The
  /// old channel is freed first so the allocator can reuse or grow it;
  /// if the new demand cannot be met the node's previous grant is
  /// reinstated exactly (same center, bandwidth, harmonic and VCO
  /// voltages) and a deny is returned.
  SideChannelMessage modify_rate(std::uint16_t node_id, double new_rate_bps);

  /// Slide every FDM grant down-band (FdmAllocator::compact), update the
  /// affected grants/SDM groups and queue one re-tune grant per moved
  /// holder. Returns the number of moved channels.
  std::size_t compact_spectrum();

  /// Grow demoted grants (admitted or shed below their requested rate)
  /// back toward their request, lowest node id first. Returns the
  /// re-issued grants; they are also queued as re-tune notifications.
  std::vector<ChannelGrant> promote_demoted();

  /// Re-tune notifications (updated grants) queued by compaction,
  /// shedding and promotion since the last drain. serve() delivers them
  /// over the side channel; embedders without one take them here.
  std::vector<ChannelGrant> take_retunes();

  /// The rate a node's current channel supports (bandwidth x spectral
  /// efficiency); nullopt for unknown nodes.
  std::optional<double> granted_rate_bps(std::uint16_t node_id) const;

  const OverloadStats& overload_stats() const { return overload_stats_; }

  const Work& work() const { return work_; }

  const FdmAllocator& allocator() const { return allocator_; }

 private:
  struct SharedChannel {
    ChannelAllocation channel;
    std::vector<std::uint16_t> members;
    std::vector<double> bearings;
    std::vector<int> harmonics;
  };
  using Groups = std::map<std::uint64_t, SharedChannel>;
  /// Shared-channel index entry: a group's channel value, then its key.
  /// Equal values compare equal exactly as ChannelAllocation::operator==
  /// does, which matters because with overload off an orphaned group's
  /// channel can be granted again.
  struct GroupKey {
    double center_hz;
    double bandwidth_hz;
    std::uint64_t group;
    auto operator<=>(const GroupKey&) const = default;
  };
  using SharedIndex = std::set<GroupKey>;

  ChannelGrant make_grant(std::uint16_t node_id, const ChannelAllocation& ch, int harmonic) const;
  /// True if the node VCO reaches both edges of `ch`.
  bool tunable(const ChannelAllocation& ch) const;
  /// Grant `request` on `ch` at `harmonic` and record its holder.
  ChannelGrant record(const ChannelRequest& request, const ChannelAllocation& ch, int harmonic);
  /// FDM allocation + VCO coverage check + holder record. nullopt when no
  /// gap fits; a deny when the gap found lies outside the node VCO's
  /// range (the allocation is rolled back).
  std::optional<SideChannelMessage> grant_fdm(const ChannelRequest& request,
                                              double bandwidth_hz);
  SideChannelMessage try_sdm(const ChannelRequest& request);
  /// The overload ladder: compaction, rate demotion, shedding, hinted
  /// deny. Only called when cfg_.overload.enabled.
  SideChannelMessage handle_overload(const ChannelRequest& request, double bandwidth_hz);
  /// Halving-rate demotion ladder from `start_rate_bps` down to the
  /// overload floor: admit at the largest step whose channel fits.
  std::optional<ChannelGrant> admit_demoted(const ChannelRequest& request,
                                            double start_rate_bps);
  /// Shrink strictly-lower-priority incumbents to the floor channel
  /// until it fits (after compaction); true if it does.
  bool shed_for(const ChannelRequest& request);
  /// Compact the band when fragmentation alone keeps `bandwidth_hz` from
  /// fitting; true if it did.
  bool compact_for(double bandwidth_hz);
  /// Occupancy- and pressure-derived deny hint (deterministic).
  double deny_hint_s() const;
  /// Move every grant and SDM group on `moved.from` to `moved.to` (same
  /// bandwidth), queueing re-tune notifications in holder id order. Only
  /// the channel's allocator owner and the members of the groups on it
  /// can hold it, so those are the holders visited.
  void retune_channel(const RetuneEvent& moved);
  /// The shared-channel index entries for groups on `ch`, oldest first.
  std::pair<SharedIndex::const_iterator, SharedIndex::const_iterator> shared_range(
      const ChannelAllocation& ch) const;
  /// True if `ch` backs an SDM group.
  bool channel_shared(const ChannelAllocation& ch) const;
  /// First-formed SDM group on `ch`, or shared_.end().
  Groups::iterator group_on(const ChannelAllocation& ch);
  /// The SDM group on `ch` that lists `node_id` as a member, or
  /// shared_.end(). A member's grant is always on its group's channel.
  Groups::iterator group_of(std::uint16_t node_id, const ChannelAllocation& ch);
  void add_group(const SharedChannel& sc);
  /// Re-file `node_id` in the owner indexes after its holder record,
  /// allocation or group membership changed.
  void reindex(std::uint16_t node_id);
  /// Free harmonic slot steering closest to `bearing_rad`, within the
  /// mismatch tolerance; nullopt when none qualifies.
  std::optional<int> best_free_slot(const std::vector<int>& used, double bearing_rad) const;

  FdmAllocator allocator_;
  rf::Vco node_vco_;
  InitConfig cfg_;
  /// default_sdm_slots(), built once: best_free_slot runs in the
  /// admission loops.
  std::vector<HarmonicSlot> sdm_slots_;
  std::map<std::uint16_t, Holder> holders_;
  /// SDM groups keyed by a formation counter, so iteration runs in the
  /// order groups formed: the order try_sdm offers them to a newcomer.
  /// Each keeps its members' bearings and harmonics inline (copies of
  /// their holder records) so that scan does no holder lookups.
  Groups shared_;
  std::uint64_t next_group_ = 0;
  /// The shared-channel index: every group filed under its channel.
  SharedIndex shared_index_;
  /// Owner indexes. Each holds a superset of the holders one admission
  /// search can pick, in id order, so the search visits those instead of
  /// the whole allocation table and re-checks each with its own test.
  /// All three hold only allocation owners that are not members of a
  /// group on their own channel.
  /// - fdm_by_slot_: by the harmonic the owner would take if try_sdm
  ///   converted its channel (a function of its bearing alone);
  /// - sheddable_: by priority, owners wider than the shedding floor;
  /// - demoted_: owners narrower than their requested rate needs.
  std::map<int, std::set<std::uint16_t>> fdm_by_slot_;
  std::map<std::uint8_t, std::set<std::uint16_t>> sheddable_;
  std::set<std::uint16_t> demoted_;
  /// Channel width at the overload rate floor; 0 when shedding is off.
  double shed_floor_bw_hz_ = 0.0;
  std::vector<ChannelGrant> pending_retunes_;
  OverloadStats overload_stats_;
  Work work_;
  /// Consecutive hinted denies since spectrum last freed (deny pressure).
  std::uint64_t deny_streak_ = 0;
};

}  // namespace mmx::mac
