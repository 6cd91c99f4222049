#include "mmx/mac/init_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "mmx/antenna/tma.hpp"
#include "mmx/obs/obs.hpp"

namespace mmx::mac {

// The AP's fixed tone placement and SDM geometry (paper §7a).
// FSK tones sit at centre -/+ this fraction of the channel width.
constexpr double kFskFraction = 0.4;
// Bearings closer than this cannot share a channel (harmonic lobes
// would overlap). It also caps a group at 3 members: the harmonics steer
// within +-0.52 rad and a bearing sits at most kMaxHarmonicMismatchRad
// off one, so no four bearings are pairwise this far apart.
constexpr double kMinBearingSeparationRad = 0.45;
// A node may only take a harmonic whose steered direction is within
// this angle of its bearing (beyond it the harmonic's array gain at the
// node collapses).
constexpr double kMaxHarmonicMismatchRad = 0.07;

std::vector<HarmonicSlot> default_sdm_slots() {
  // sin(theta_m) = m * 0.0625 / 0.5 = 0.125 m on the AP's TMA: nine slots
  // on a ~7 degree pitch covering +/-30 degrees.
  const antenna::TimeModulatedArray tma = antenna::ap_tma();
  std::vector<HarmonicSlot> slots;
  for (int m : {0, 1, -1, 2, -2, 3, -3, 4, -4}) slots.push_back({m, tma.steered_angle(m)});
  return slots;
}

RejoinBackoff::RejoinBackoff(BackoffConfig cfg) : cfg_(cfg) {
  // Each test is phrased to fail on NaN.
  if (!(cfg.base_s > 0.0)) throw std::invalid_argument("RejoinBackoff: base_s must be > 0");
  if (!(cfg.factor >= 1.0)) throw std::invalid_argument("RejoinBackoff: factor must be >= 1");
  if (!(cfg.cap_s >= cfg.base_s))
    throw std::invalid_argument("RejoinBackoff: cap_s must be >= base_s");
  if (!(cfg.jitter_frac >= 0.0 && cfg.jitter_frac < 1.0))
    throw std::invalid_argument("RejoinBackoff: jitter_frac must be in [0, 1)");
}

double RejoinBackoff::next_delay_s(Rng& rng, double hint_s) {
  double delay = cfg_.base_s;
  for (int i = 0; i < attempt_; ++i) {
    delay *= cfg_.factor;
    if (delay >= cfg_.cap_s) {
      delay = cfg_.cap_s;
      break;
    }
  }
  ++attempt_;
  // The AP's deny hint floors the schedule: the AP has seen the whole
  // band's occupancy, the node only its own attempt count. The hint may
  // exceed cap_s — under heavy overload that is the point.
  if (hint_s > delay) delay = hint_s;
  if (cfg_.jitter_frac > 0.0)
    delay *= rng.uniform(1.0 - cfg_.jitter_frac, 1.0 + cfg_.jitter_frac);
  return delay;
}

InitProtocol::InitProtocol(FdmAllocator allocator, rf::Vco node_vco, InitConfig cfg)
    : allocator_(std::move(allocator)),
      node_vco_(node_vco),
      cfg_(cfg),
      sdm_slots_(default_sdm_slots()) {
  if (!(cfg_.spectral_efficiency > 0.0))
    throw std::invalid_argument("InitProtocol: spectral efficiency must be > 0");
  if (cfg_.overload.enabled) {
    if (!(cfg_.overload.min_rate_bps >= 0.0))
      throw std::invalid_argument("InitProtocol: overload min_rate_bps must be >= 0");
    allocator_.set_policy(AllocPolicy::kBestFit);
    if (cfg_.overload.shedding && cfg_.overload.min_rate_bps > 0.0)
      shed_floor_bw_hz_ =
          required_bandwidth_hz(cfg_.overload.min_rate_bps, cfg_.spectral_efficiency);
  }
}

ChannelGrant InitProtocol::make_grant(std::uint16_t node_id, const ChannelAllocation& ch,
                                      int harmonic) const {
  ChannelGrant g;
  g.node_id = node_id;
  g.channel = ch;
  g.sdm_harmonic = harmonic;
  const double df = kFskFraction * ch.bandwidth_hz;
  g.vco_tune_v0 = node_vco_.voltage_for(ch.center_hz - df);
  g.vco_tune_v1 = node_vco_.voltage_for(ch.center_hz + df);
  return g;
}

bool InitProtocol::tunable(const ChannelAllocation& ch) const {
  return node_vco_.covers(ch.low_hz()) && node_vco_.covers(ch.high_hz());
}

ChannelGrant InitProtocol::record(const ChannelRequest& request, const ChannelAllocation& ch,
                                  int harmonic) {
  const ChannelGrant g = make_grant(request.node_id, ch, harmonic);
  holders_[request.node_id] = Holder{g, request.bearing_rad, request.rate_bps, request.priority};
  reindex(request.node_id);
  return g;
}

SideChannelMessage InitProtocol::handle(const ChannelRequest& request) {
  // NaN fails every later bandwidth comparison, so it must not get past
  // here: it would be granted any SDM slot.
  if (!std::isfinite(request.rate_bps) || request.rate_bps <= 0.0)
    return ChannelDeny{request.node_id};
  if (const auto it = holders_.find(request.node_id); it != holders_.end())
    return it->second.grant;  // idempotent

  const double bw = required_bandwidth_hz(request.rate_bps, cfg_.spectral_efficiency);
  if (const auto fdm = grant_fdm(request, bw)) return *fdm;
  const SideChannelMessage sdm = try_sdm(request);
  if (std::get_if<ChannelGrant>(&sdm) || !cfg_.overload.enabled) return sdm;
  return handle_overload(request, bw);
}

std::optional<SideChannelMessage> InitProtocol::grant_fdm(const ChannelRequest& request,
                                                          double bandwidth_hz) {
  const auto ch = allocator_.allocate(request.node_id, bandwidth_hz);
  if (!ch) return std::nullopt;
  // The node's VCO must be able to reach both tones.
  if (!tunable(*ch)) {
    allocator_.release(request.node_id);
    return ChannelDeny{request.node_id};
  }
  return record(request, *ch, 0);
}

SideChannelMessage InitProtocol::handle_overload(const ChannelRequest& request,
                                                 double bandwidth_hz) {
  const OverloadConfig& ov = cfg_.overload;
  // (a) Fragmentation is the only obstacle to the full demand: compact
  // the band and retry at the requested rate.
  if (compact_for(bandwidth_hz)) {
    if (const auto fdm = grant_fdm(request, bandwidth_hz);
        fdm && std::holds_alternative<ChannelGrant>(*fdm))
      return *fdm;
  }
  // (b) Rate demotion: walk the halving ladder below the request and
  // admit at the largest step that fits. promote_demoted() grows the
  // grant back later.
  if (ov.min_rate_bps > 0.0 && request.rate_bps > ov.min_rate_bps) {
    const double floor_bw = required_bandwidth_hz(ov.min_rate_bps, cfg_.spectral_efficiency);
    compact_for(floor_bw);
    if (const auto g = admit_demoted(request, request.rate_bps / 2.0)) return *g;
  }
  // (c) Shedding: shrink strictly-lower-priority incumbents to the floor
  // so the newcomer fits at (at least) its own floor.
  if (ov.shedding && ov.min_rate_bps > 0.0 && request.rate_bps >= ov.min_rate_bps) {
    if (shed_for(request)) {
      if (const auto g = admit_demoted(request, request.rate_bps)) return *g;
    }
  }
  // (d) Deny, with a deterministic backoff hint derived from occupancy
  // and deny pressure (no AP-side randomness: the node adds its own
  // jitter from its counter-derived stream via RejoinBackoff).
  const double hint = deny_hint_s();
  ++deny_streak_;
  ++overload_stats_.hinted_denies;
  overload_stats_.hint_delay_sum_s += hint;
  const double band = allocator_.band_high_hz() - allocator_.band_low_hz();
  MMX_OBS_GAUGE_SET("mac.spectrum.occupancy_pct",
                    100.0 * (1.0 - allocator_.free_bandwidth_hz() / band));
  MMX_OBS_GAUGE_SET("mac.admission.deny_pressure", deny_streak_);
  MMX_OBS_COUNT("mac.overload.hinted_denies", 1);
  return ChannelDeny{request.node_id, hint};
}

std::optional<ChannelGrant> InitProtocol::admit_demoted(const ChannelRequest& request,
                                                        double start_rate_bps) {
  const OverloadConfig& ov = cfg_.overload;
  double rate = start_rate_bps;
  while (true) {
    if (rate < ov.min_rate_bps) rate = ov.min_rate_bps;
    const double bw = required_bandwidth_hz(rate, cfg_.spectral_efficiency);
    if (bw <= allocator_.largest_gap_hz()) {
      if (const auto fdm = grant_fdm(request, bw);
          fdm && std::holds_alternative<ChannelGrant>(*fdm)) {
        if (rate < request.rate_bps) {
          ++overload_stats_.demotions;
          MMX_OBS_COUNT("mac.overload.demotions", 1);
        }
        return std::get<ChannelGrant>(*fdm);
      }
    }
    if (rate <= ov.min_rate_bps) return std::nullopt;
    rate /= 2.0;
  }
}

double InitProtocol::deny_hint_s() const {
  const double band = allocator_.band_high_hz() - allocator_.band_low_hz();
  const double occ =
      band > 0.0 ? std::clamp(1.0 - allocator_.free_bandwidth_hz() / band, 0.0, 1.0) : 1.0;
  // Quadratic in occupancy (gentle until the band is nearly full), plus a
  // linear deny-pressure term so a storm spreads retries further apart
  // the longer it lasts. Saturates at 24 * kDenyHintBaseS (full band, a
  // streak of 32 or more).
  const double pressure = static_cast<double>(std::min<std::uint64_t>(deny_streak_, 32));
  return kDenyHintBaseS * (1.0 + 15.0 * occ * occ + 0.25 * pressure);
}

bool InitProtocol::shed_for(const ChannelRequest& request) {
  const double floor_bw = shed_floor_bw_hz_;
  // Candidate victims: unshared FDM owners of strictly lower priority
  // holding more than the floor. Deterministic order — priority
  // ascending, node id breaking ties.
  std::vector<std::pair<std::uint8_t, std::uint16_t>> victims;
  for (auto p = sheddable_.begin(); p != sheddable_.end() && p->first < request.priority; ++p)
    for (const std::uint16_t id : p->second) {
      const auto ch = allocator_.lookup(id);
      if (!ch || channel_shared(*ch)) continue;  // a shared channel's width is the group's
      if (ch->bandwidth_hz <= floor_bw + 1e-6) continue;
      victims.push_back({p->first, id});
    }
  // Summed in node id order, the order of the allocation table.
  std::vector<std::uint16_t> by_id(victims.size());
  std::transform(victims.begin(), victims.end(), by_id.begin(),
                 [](const auto& v) { return v.second; });
  std::sort(by_id.begin(), by_id.end());
  double reclaimable = 0.0;
  for (const std::uint16_t id : by_id) reclaimable += allocator_.lookup(id)->bandwidth_hz - floor_bw;
  // Only shed when it is guaranteed to admit the newcomer (post-compact).
  if (allocator_.compacted_headroom_hz() + reclaimable + 1e-9 < floor_bw) return false;
  for (const auto& [prio, id] : victims) {
    if (allocator_.compacted_headroom_hz() >= floor_bw) break;
    const ChannelAllocation cur = *allocator_.lookup(id);
    allocator_.release(id);
    auto shrunk = allocator_.allocate(id, floor_bw);
    if (shrunk && !tunable(*shrunk)) {
      allocator_.release(id);
      shrunk = std::nullopt;
    }
    if (!shrunk) {
      allocator_.restore(id, cur);
      continue;
    }
    const ChannelGrant g = make_grant(id, *shrunk, 0);
    holders_.at(id).grant = g;
    reindex(id);
    pending_retunes_.push_back(g);
    ++overload_stats_.shed_demotions;
    ++overload_stats_.retunes;
    MMX_OBS_COUNT("mac.overload.shed_demotions", 1);
  }
  compact_for(floor_bw);
  overload_stats_.invariant_violations += allocator_.invariant_violations();
  return allocator_.largest_gap_hz() >= floor_bw;
}

bool InitProtocol::compact_for(double bandwidth_hz) {
  if (allocator_.largest_gap_hz() >= bandwidth_hz ||
      allocator_.compacted_headroom_hz() < bandwidth_hz)
    return false;
  compact_spectrum();
  return true;
}

std::size_t InitProtocol::compact_spectrum() {
  const std::vector<RetuneEvent> moved = allocator_.compact();
  if (moved.empty()) return 0;
  ++overload_stats_.compactions;
  MMX_OBS_COUNT("mac.overload.compactions", 1);
  for (const RetuneEvent& ev : moved) retune_channel(ev);
  for (const RetuneEvent& ev : moved) reindex(ev.node_id);
  overload_stats_.invariant_violations += allocator_.invariant_violations();
  return moved.size();
}

void InitProtocol::retune_channel(const RetuneEvent& moved) {
  const ChannelAllocation& from = moved.from;
  const ChannelAllocation& to = moved.to;
  // Every grant on `from` moves — the allocator owner and the members of
  // every SDM group on the channel (an orphaned group's too, with
  // overload off) keep their harmonics, only the tones move. No other
  // holder can be on `from`, and each candidate is re-checked anyway.
  const auto [first, last] = shared_range(from);
  std::vector<std::uint16_t> ids{moved.node_id};
  std::vector<std::uint64_t> moving;
  for (auto k = first; k != last; ++k) {
    moving.push_back(k->group);
    const std::vector<std::uint16_t>& members = shared_.at(k->group).members;
    ids.insert(ids.end(), members.begin(), members.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (const std::uint16_t id : ids) {
    ++work_.retune_visits;
    const auto it = holders_.find(id);
    if (it == holders_.end()) continue;
    Holder& h = it->second;
    if (h.grant.channel == from) {
      h.grant = make_grant(id, to, h.grant.sdm_harmonic);
      pending_retunes_.push_back(h.grant);
      ++overload_stats_.retunes;
    }
  }
  shared_index_.erase(first, last);
  for (const std::uint64_t key : moving) {
    shared_.at(key).channel = to;
    shared_index_.insert({to.center_hz, to.bandwidth_hz, key});
  }
}

std::vector<ChannelGrant> InitProtocol::promote_demoted() {
  std::vector<ChannelGrant> promoted;
  if (!cfg_.overload.enabled) return promoted;
  // Promoting one holder changes no other holder's eligibility, so a
  // snapshot of the index visits the same holders a walk over every
  // holder would, in the same order.
  const std::vector<std::uint16_t> candidates(demoted_.begin(), demoted_.end());
  for (const std::uint16_t id : candidates) {
    Holder& h = holders_.at(id);
    const ChannelAllocation cur = h.grant.channel;
    if (channel_shared(cur)) continue;  // group width is fixed by its members
    const auto owned = allocator_.lookup(id);
    if (!owned || !(*owned == cur)) continue;
    const double want_bw = required_bandwidth_hz(h.requested_rate_bps, cfg_.spectral_efficiency);
    if (cur.bandwidth_hz + 1e-6 >= want_bw) continue;  // not demoted
    // Walk the halving ladder down from the requested rate and take the
    // largest step that still beats the current width (the freed slot can
    // merge with a neighbouring gap). The gap the release would leave is
    // known up front, so a holder nothing fits for is left untouched.
    const double gap_after_release = allocator_.largest_gap_after_release_hz(id);
    std::optional<double> fit_bw;
    for (double rate = h.requested_rate_bps; ; rate /= 2.0) {
      const double bw = required_bandwidth_hz(rate, cfg_.spectral_efficiency);
      if (bw <= cur.bandwidth_hz + 1e-6) break;  // no longer a promotion
      if (bw <= gap_after_release) {
        fit_bw = bw;
        break;
      }
    }
    if (!fit_bw) continue;
    allocator_.release(id);
    std::optional<ChannelAllocation> ch = allocator_.allocate(id, *fit_bw);
    if (ch && !tunable(*ch)) {
      allocator_.release(id);
      ch = std::nullopt;
    }
    if (!ch) {
      allocator_.restore(id, cur);
      continue;
    }
    h.grant = make_grant(id, *ch, h.grant.sdm_harmonic);
    reindex(id);
    pending_retunes_.push_back(h.grant);
    promoted.push_back(h.grant);
    ++overload_stats_.promotions;
    ++overload_stats_.retunes;
    MMX_OBS_COUNT("mac.overload.promotions", 1);
  }
  if (!promoted.empty())
    overload_stats_.invariant_violations += allocator_.invariant_violations();
  return promoted;
}

std::vector<ChannelGrant> InitProtocol::take_retunes() {
  return std::exchange(pending_retunes_, {});
}

std::optional<double> InitProtocol::granted_rate_bps(std::uint16_t node_id) const {
  const auto it = holders_.find(node_id);
  if (it == holders_.end()) return std::nullopt;
  return it->second.grant.channel.bandwidth_hz * cfg_.spectral_efficiency;
}

std::pair<InitProtocol::SharedIndex::const_iterator, InitProtocol::SharedIndex::const_iterator>
InitProtocol::shared_range(const ChannelAllocation& ch) const {
  return {shared_index_.lower_bound({ch.center_hz, ch.bandwidth_hz, 0}),
          shared_index_.upper_bound(
              {ch.center_hz, ch.bandwidth_hz, std::numeric_limits<std::uint64_t>::max()})};
}

bool InitProtocol::channel_shared(const ChannelAllocation& ch) const {
  const auto [first, last] = shared_range(ch);
  return first != last;
}

InitProtocol::Groups::iterator InitProtocol::group_on(const ChannelAllocation& ch) {
  const auto [first, last] = shared_range(ch);
  return first == last ? shared_.end() : shared_.find(first->group);
}

InitProtocol::Groups::iterator InitProtocol::group_of(std::uint16_t node_id,
                                                      const ChannelAllocation& ch) {
  const auto [first, last] = shared_range(ch);
  for (auto k = first; k != last; ++k) {
    const auto g = shared_.find(k->group);
    const std::vector<std::uint16_t>& m = g->second.members;
    if (std::find(m.begin(), m.end(), node_id) != m.end()) return g;
  }
  return shared_.end();
}

void InitProtocol::add_group(const SharedChannel& sc) {
  const std::uint64_t key = next_group_++;
  shared_.emplace(key, sc);
  shared_index_.insert({sc.channel.center_hz, sc.channel.bandwidth_hz, key});
}

void InitProtocol::reindex(std::uint16_t node_id) {
  for (auto& [slot, ids] : fdm_by_slot_) ids.erase(node_id);
  for (auto& [prio, ids] : sheddable_) ids.erase(node_id);
  demoted_.erase(node_id);
  const auto h = holders_.find(node_id);
  if (h == holders_.end()) return;
  const auto owned = allocator_.lookup(node_id);
  if (!owned || group_of(node_id, *owned) != shared_.end()) return;
  if (const auto slot = best_free_slot({}, h->second.bearing_rad))
    fdm_by_slot_[*slot].insert(node_id);
  if (shed_floor_bw_hz_ > 0.0 && owned->bandwidth_hz > shed_floor_bw_hz_ + 1e-6)
    sheddable_[h->second.priority].insert(node_id);
  if (cfg_.overload.enabled &&
      owned->bandwidth_hz + 1e-6 <
          required_bandwidth_hz(h->second.requested_rate_bps, cfg_.spectral_efficiency))
    demoted_.insert(node_id);
}

std::optional<int> InitProtocol::best_free_slot(const std::vector<int>& used,
                                                double bearing_rad) const {
  std::optional<int> best;
  double best_err = kMaxHarmonicMismatchRad;
  for (const HarmonicSlot& slot : sdm_slots_) {
    if (std::find(used.begin(), used.end(), slot.harmonic) != used.end()) continue;
    const double err = std::abs(bearing_rad - slot.angle_rad);
    if (err <= best_err) {
      best_err = err;
      best = slot.harmonic;
    }
  }
  return best;
}

SideChannelMessage InitProtocol::try_sdm(const ChannelRequest& request) {
  ++work_.sdm_requests;
  // Both steps below need a free harmonic near the bearing, and a group
  // or owner only takes harmonics away. With none free on an empty
  // channel, no group and no owner can supply one.
  if (!best_free_slot({}, request.bearing_rad)) return ChannelDeny{request.node_id};
  const double bw = required_bandwidth_hz(request.rate_bps, cfg_.spectral_efficiency);
  // Join an existing shared pool or convert an FDM holder's channel into
  // a shared one — member channels must be at least as wide as requested,
  // bearings must be separable, and a TMA harmonic must steer close
  // enough to the newcomer's bearing.
  auto bearing_ok = [&](const std::vector<double>& bearings) {
    return std::all_of(bearings.begin(), bearings.end(), [&](double b) {
      return std::abs(b - request.bearing_rad) >= kMinBearingSeparationRad;
    });
  };

  // 1) Existing shared channels with a suitable free harmonic.
  for (auto& [key, sc] : shared_) {
    ++work_.sdm_groups_scanned;
    if (sc.channel.bandwidth_hz + 1e-6 < bw) continue;
    if (!bearing_ok(sc.bearings)) continue;
    const auto slot = best_free_slot(sc.harmonics, request.bearing_rad);
    if (!slot) continue;
    sc.members.push_back(request.node_id);
    sc.bearings.push_back(request.bearing_rad);
    sc.harmonics.push_back(*slot);
    return record(request, sc.channel, *slot);
  }

  // 2) Convert a wide-enough FDM-only channel into a shared channel. The
  // incumbent keeps transmitting as before; the AP re-points it onto the
  // harmonic nearest its bearing and gives the newcomer another slot.
  // The lowest qualifying node id wins. An owner's own harmonic depends
  // only on its bearing, so each slot's owners are searched separately,
  // in id order, stopping at the first that qualifies or at the best id
  // found so far.
  std::optional<std::uint16_t> holder;
  for (const auto& [holder_slot, owners] : fdm_by_slot_) {
    if (!best_free_slot({holder_slot}, request.bearing_rad)) continue;
    for (const std::uint16_t id : owners) {
      if (holder && id >= *holder) break;
      const auto ch = allocator_.lookup(id);
      if (!ch || ch->bandwidth_hz + 1e-6 < bw) continue;
      if (channel_shared(*ch)) continue;
      if (std::abs(holders_.at(id).bearing_rad - request.bearing_rad) <
          kMinBearingSeparationRad)
        continue;
      holder = id;
      break;
    }
  }
  if (!holder) return ChannelDeny{request.node_id};

  Holder& h = holders_.at(*holder);
  const ChannelAllocation ch = *allocator_.lookup(*holder);
  const int holder_slot = *best_free_slot({}, h.bearing_rad);
  const int new_slot = *best_free_slot({holder_slot}, request.bearing_rad);
  add_group({ch, {*holder, request.node_id}, {h.bearing_rad, request.bearing_rad},
             {holder_slot, new_slot}});
  // Update the incumbent's grant with its (possibly nonzero) harmonic.
  h.grant = make_grant(*holder, ch, holder_slot);
  reindex(*holder);
  return record(request, ch, new_slot);
}

SideChannelMessage InitProtocol::modify_rate(std::uint16_t node_id, double new_rate_bps) {
  const auto it = holders_.find(node_id);
  if (it == holders_.end()) return ChannelDeny{node_id};
  // Snapshot everything needed to reinstate the node exactly on failure:
  // its holder record (grant with channel, harmonic and VCO voltages;
  // bearing; original requested rate and priority), the allocator entry,
  // and SDM membership.
  const Holder old = it->second;
  const ChannelGrant& old_grant = old.grant;
  const std::optional<ChannelAllocation> owned = allocator_.lookup(node_id);
  const bool was_member = group_of(node_id, old_grant.channel) != shared_.end();

  release(node_id);
  const auto reply = handle(ChannelRequest{node_id, new_rate_bps, old.bearing_rad, old.priority});
  if (std::get_if<ChannelGrant>(&reply)) return reply;

  // Could not satisfy the new demand: reinstate the previous grant
  // exactly instead of re-running admission on the old rate (which could
  // land the node elsewhere in the band).
  // If the old channel still backs a live shared group (ownership moved
  // to a surviving member on release), rejoin it as a member.
  const auto group = group_on(old_grant.channel);
  if (was_member && group != shared_.end()) {
    SharedChannel& sc = group->second;
    sc.members.push_back(node_id);
    sc.bearings.push_back(old.bearing_rad);
    sc.harmonics.push_back(old_grant.sdm_harmonic);
    holders_[node_id] = old;
    return ChannelDeny{node_id};
  }
  if (owned && !allocator_.restore(node_id, *owned)) {
    // The freed spot was consumed during the failed attempt (possible
    // only when overload compaction ran). Keep the node's rate by
    // placing the same width wherever it fits now.
    if (const auto ch = allocator_.allocate(node_id, old_grant.channel.bandwidth_hz)) {
      Holder& h = holders_[node_id] = old;
      h.grant = make_grant(node_id, *ch, old_grant.sdm_harmonic);
      reindex(node_id);
      pending_retunes_.push_back(h.grant);
      ++overload_stats_.retunes;
    }
    return ChannelDeny{node_id};  // spectrum gone entirely: the node must rejoin
  }
  holders_[node_id] = old;
  if (was_member)
    add_group({old_grant.channel, {node_id}, {old.bearing_rad}, {old_grant.sdm_harmonic}});
  reindex(node_id);
  return ChannelDeny{node_id};
}

std::size_t InitProtocol::serve(SideChannel& channel, Rng& rng) {
  std::size_t n = 0;
  while (auto msg = channel.poll_at_ap()) {
    if (const auto* req = std::get_if<ChannelRequest>(&*msg)) {
      channel.ap_to_node(handle(*req), rng);
      ++n;
    }
  }
  // Deliver re-tune notifications (compaction / shedding / promotion).
  // Empty unless overload control ran, so legacy serve loops are
  // draw-for-draw identical.
  for (const ChannelGrant& g : take_retunes()) channel.ap_to_node(g, rng);
  return n;
}

bool InitProtocol::release(std::uint16_t node_id) {
  const auto holder = holders_.find(node_id);
  if (holder == holders_.end()) return false;
  const ChannelAllocation granted = holder->second.grant.channel;
  // SDM ownership succession (overload mode): when the allocator owner
  // of a shared channel leaves, hand the spectrum to the lowest-id
  // surviving member instead of freeing it under the group. The legacy
  // path keeps the historical (buggy, but golden-pinned) free.
  std::optional<std::uint16_t> successor;
  if (cfg_.overload.enabled) {
    if (const auto owned = allocator_.lookup(node_id)) {
      if (const auto g = group_on(*owned); g != shared_.end()) {
        for (std::uint16_t m : g->second.members)
          if (m != node_id && (!successor || m < *successor)) successor = m;
        if (successor) allocator_.transfer(node_id, *successor);
      }
    }
  }
  holders_.erase(holder);
  reindex(node_id);  // no holder: drops it from the owner indexes
  allocator_.release(node_id);
  if (const auto g = group_of(node_id, granted); g != shared_.end()) {
    SharedChannel& sc = g->second;
    const auto i = std::find(sc.members.begin(), sc.members.end(), node_id) - sc.members.begin();
    sc.members.erase(sc.members.begin() + i);
    sc.bearings.erase(sc.bearings.begin() + i);
    sc.harmonics.erase(sc.harmonics.begin() + i);
    if (sc.members.empty()) {
      shared_index_.erase({sc.channel.center_hz, sc.channel.bandwidth_hz, g->first});
      shared_.erase(g);
    }
  }
  if (successor) reindex(*successor);
  // Freed spectrum relieves deny pressure.
  deny_streak_ = 0;
  return true;
}

}  // namespace mmx::mac
