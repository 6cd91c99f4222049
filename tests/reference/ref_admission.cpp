// Verbatim copy of the pre-refactor FdmAllocator and InitProtocol (see
// header). Only the namespace changed; observability counters and
// serve() were dropped, and the admission settings production made
// constants are the literals below.
#include "ref_admission.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mmx::refmac {

namespace {

// Production's admission constants (src/mac/init_protocol.*), written
// out rather than read from there, so lockstep catches a drift in any
// of them. With overload enabled, placement is best fit and compaction
// is always on.
constexpr double kFskFraction = 0.4;
constexpr int kSdmCapacity = 3;
constexpr double kMinBearingSeparationRad = 0.45;
constexpr double kMaxHarmonicMismatchRad = 0.07;
constexpr double kHintBaseS = 0.125;
constexpr double kHintMaxS = 4.0;

}  // namespace

FdmAllocator::FdmAllocator(double band_low_hz, double band_high_hz, double guard_hz,
                           AllocPolicy policy)
    : low_(band_low_hz), high_(band_high_hz), guard_(guard_hz), policy_(policy) {
  if (band_low_hz >= band_high_hz) throw std::invalid_argument("FdmAllocator: empty band");
  if (guard_hz < 0.0) throw std::invalid_argument("FdmAllocator: guard must be >= 0");
}

std::vector<ChannelAllocation> FdmAllocator::sorted_used() const {
  std::vector<ChannelAllocation> used;
  used.reserve(by_node_.size());
  for (const auto& [id, ch] : by_node_) used.push_back(ch);
  std::sort(used.begin(), used.end(),
            [](const auto& a, const auto& b) { return a.low_hz() < b.low_hz(); });
  return used;
}

std::optional<ChannelAllocation> FdmAllocator::allocate(std::uint16_t node_id,
                                                        double bandwidth_hz) {
  if (bandwidth_hz <= 0.0) throw std::invalid_argument("FdmAllocator: bandwidth must be > 0");
  if (by_node_.contains(node_id))
    throw std::invalid_argument("FdmAllocator: node already holds a channel");

  const std::vector<ChannelAllocation> used = sorted_used();

  // Walk the gaps low-to-high (guard applies between channels, not at
  // the band edges). First fit takes the lowest fitting gap; best fit
  // takes the tightest one, ties toward the low edge — both pure
  // functions of the occupied set, so replays stay bit-identical.
  double best_low = 0.0;
  double best_usable = -1.0;
  double cursor = low_;
  for (std::size_t i = 0; i <= used.size(); ++i) {
    const double gap_end = (i < used.size()) ? used[i].low_hz() - guard_ : high_;
    const double usable = gap_end - cursor;
    if (usable >= bandwidth_hz) {
      if (policy_ == AllocPolicy::kFirstFit) {
        best_low = cursor;
        best_usable = usable;
        break;
      }
      if (best_usable < 0.0 || usable < best_usable) {
        best_low = cursor;
        best_usable = usable;
      }
    }
    if (i < used.size()) cursor = used[i].high_hz() + guard_;
  }
  if (best_usable < 0.0) return std::nullopt;
  ChannelAllocation ch{best_low + bandwidth_hz / 2.0, bandwidth_hz};
  by_node_[node_id] = ch;
  return ch;
}

bool FdmAllocator::release(std::uint16_t node_id) { return by_node_.erase(node_id) > 0; }

bool FdmAllocator::restore(std::uint16_t node_id, const ChannelAllocation& ch) {
  if (by_node_.contains(node_id)) return false;
  if (ch.bandwidth_hz <= 0.0) return false;
  // Slack scaled to the band magnitude: at 24 GHz one ulp is ~4e-6 Hz,
  // so an absolute epsilon would spuriously reject a channel sitting
  // exactly at guard distance from its neighbour (the common case — the
  // exact bits a prior allocate() produced). ~24 Hz of slack at 24 GHz
  // is far below any guard or channel width.
  const double kEps = 1e-9 * std::max(1.0, high_);
  if (ch.low_hz() < low_ - kEps || ch.high_hz() > high_ + kEps) return false;
  for (const auto& [id, other] : by_node_) {
    const bool below = ch.high_hz() + guard_ <= other.low_hz() + kEps;
    const bool above = other.high_hz() + guard_ <= ch.low_hz() + kEps;
    if (!below && !above) return false;
  }
  by_node_[node_id] = ch;
  return true;
}

bool FdmAllocator::transfer(std::uint16_t from, std::uint16_t to) {
  const auto it = by_node_.find(from);
  if (it == by_node_.end() || by_node_.contains(to)) return false;
  const ChannelAllocation ch = it->second;
  by_node_.erase(it);
  by_node_[to] = ch;
  return true;
}

std::vector<RetuneEvent> FdmAllocator::compact() {
  // Owners in ascending frequency order; channels cannot overlap, so the
  // order is unambiguous.
  std::vector<std::pair<std::uint16_t, ChannelAllocation>> holders(by_node_.begin(),
                                                                   by_node_.end());
  std::sort(holders.begin(), holders.end(), [](const auto& a, const auto& b) {
    return a.second.low_hz() < b.second.low_hz();
  });

  std::vector<RetuneEvent> moved;
  // Moves below this are re-derivation noise (one ulp at the band's top
  // edge is ~4e-6 Hz at 24 GHz), not spectrum worth a re-tune round trip.
  const double kMinMoveHz = 1e-9 * std::max(1.0, high_);
  double cursor = low_;
  for (const auto& [id, ch] : holders) {
    const ChannelAllocation to{cursor + ch.bandwidth_hz / 2.0, ch.bandwidth_hz};
    if (ch.center_hz - to.center_hz > kMinMoveHz) {
      by_node_[id] = to;
      moved.push_back({id, ch, to});
    }
    cursor += ch.bandwidth_hz + guard_;
  }
  return moved;
}

std::optional<ChannelAllocation> FdmAllocator::lookup(std::uint16_t node_id) const {
  const auto it = by_node_.find(node_id);
  if (it == by_node_.end()) return std::nullopt;
  return it->second;
}

double FdmAllocator::free_bandwidth_hz() const {
  double used = 0.0;
  for (const auto& [id, ch] : by_node_) used += ch.bandwidth_hz;
  return (high_ - low_) - used;
}

double FdmAllocator::largest_gap_hz() const {
  const std::vector<ChannelAllocation> used = sorted_used();
  double best = 0.0;
  double cursor = low_;
  for (std::size_t i = 0; i <= used.size(); ++i) {
    const double gap_end = (i < used.size()) ? used[i].low_hz() - guard_ : high_;
    best = std::max(best, gap_end - cursor);
    if (i < used.size()) cursor = used[i].high_hz() + guard_;
  }
  // Empty band: the loop's single pass yields high - low (no guard at
  // the edges). Full band: every usable width is <= 0 and the 0.0 seed
  // wins. Both documented in the header.
  return std::max(0.0, best);
}

double FdmAllocator::fragmentation() const {
  const std::vector<ChannelAllocation> used = sorted_used();
  // Raw gap widths (no guard subtraction): their sum is exactly
  // free_bandwidth_hz(), which keeps the ratio well-defined.
  double widest = 0.0;
  double free = 0.0;
  double cursor = low_;
  for (std::size_t i = 0; i <= used.size(); ++i) {
    const double gap_end = (i < used.size()) ? used[i].low_hz() : high_;
    const double gap = std::max(0.0, gap_end - cursor);
    widest = std::max(widest, gap);
    free += gap;
    if (i < used.size()) cursor = std::max(cursor, used[i].high_hz());
  }
  if (free <= 0.0) return 0.0;  // a full band is not fragmented
  return 1.0 - widest / free;
}

double FdmAllocator::compacted_headroom_hz() const {
  if (by_node_.empty()) return high_ - low_;
  double used = 0.0;
  for (const auto& [id, ch] : by_node_) used += ch.bandwidth_hz;
  // Packed: n channels consume n-1 inter-channel guards; an appended
  // channel pays one more against the packed block.
  const double n = static_cast<double>(by_node_.size());
  return std::max(0.0, (high_ - low_) - used - n * guard_);
}

InitProtocol::InitProtocol(FdmAllocator allocator, rf::Vco node_vco, InitConfig cfg)
    : allocator_(std::move(allocator)),
      node_vco_(node_vco),
      cfg_(std::move(cfg)),
      sdm_slots_(mac::default_sdm_slots()) {
  if (cfg_.spectral_efficiency <= 0.0)
    throw std::invalid_argument("InitProtocol: spectral efficiency must be > 0");
  if (cfg_.overload.enabled) {
    if (cfg_.overload.min_rate_bps < 0.0)
      throw std::invalid_argument("InitProtocol: overload min_rate_bps must be >= 0");
    allocator_.set_policy(AllocPolicy::kBestFit);
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

SideChannelMessage InitProtocol::handle(const ChannelRequest& request) {
  if (request.rate_bps <= 0.0) return ChannelDeny{request.node_id};
  if (grants_.contains(request.node_id)) return grants_.at(request.node_id);  // idempotent
  holder_bearings_[request.node_id] = request.bearing_rad;

  const double bw = mac::required_bandwidth_hz(request.rate_bps, cfg_.spectral_efficiency);
  // The node's VCO must be able to reach both tones.
  if (const auto ch = allocator_.allocate(request.node_id, bw)) {
    if (!node_vco_.covers(ch->low_hz()) || !node_vco_.covers(ch->high_hz())) {
      allocator_.release(request.node_id);
      return ChannelDeny{request.node_id};
    }
    ChannelGrant g = make_grant(request.node_id, *ch, 0);
    grants_[request.node_id] = g;
    requested_rate_bps_[request.node_id] = request.rate_bps;
    priority_[request.node_id] = request.priority;
    return g;
  }
  const SideChannelMessage sdm = try_sdm(request);
  if (std::get_if<ChannelGrant>(&sdm) || !cfg_.overload.enabled) return sdm;
  return handle_overload(request, bw);
}

std::optional<ChannelGrant> InitProtocol::try_fdm(std::uint16_t node_id, double bandwidth_hz) {
  const auto ch = allocator_.allocate(node_id, bandwidth_hz);
  if (!ch) return std::nullopt;
  if (!node_vco_.covers(ch->low_hz()) || !node_vco_.covers(ch->high_hz())) {
    allocator_.release(node_id);
    return std::nullopt;
  }
  ChannelGrant g = make_grant(node_id, *ch, 0);
  grants_[node_id] = g;
  return g;
}

SideChannelMessage InitProtocol::handle_overload(const ChannelRequest& request,
                                                 double bandwidth_hz) {
  const OverloadConfig& ov = cfg_.overload;
  // (a) Fragmentation is the only obstacle to the full demand: compact
  // the band and retry at the requested rate.
  if (allocator_.largest_gap_hz() < bandwidth_hz &&
      allocator_.compacted_headroom_hz() >= bandwidth_hz) {
    compact_spectrum();
    if (const auto g = try_fdm(request.node_id, bandwidth_hz)) {
      requested_rate_bps_[request.node_id] = request.rate_bps;
      priority_[request.node_id] = request.priority;
      return *g;
    }
  }
  // (b) Rate demotion: walk the halving ladder below the request and
  // admit at the largest step that fits. promote_demoted() grows the
  // grant back later.
  if (ov.min_rate_bps > 0.0 && request.rate_bps > ov.min_rate_bps) {
    const double floor_bw = mac::required_bandwidth_hz(ov.min_rate_bps, cfg_.spectral_efficiency);
    if (allocator_.largest_gap_hz() < floor_bw &&
        allocator_.compacted_headroom_hz() >= floor_bw)
      compact_spectrum();
    if (const auto g = admit_demoted(request, request.rate_bps / 2.0)) return *g;
  }
  // (c) Shedding: shrink strictly-lower-priority incumbents to the floor
  // so the newcomer fits at (at least) its own floor.
  if (ov.shedding && ov.min_rate_bps > 0.0 && request.rate_bps >= ov.min_rate_bps) {
    const double floor_bw = mac::required_bandwidth_hz(ov.min_rate_bps, cfg_.spectral_efficiency);
    if (shed_for(request, floor_bw)) {
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
  return ChannelDeny{request.node_id, hint};
}

std::optional<ChannelGrant> InitProtocol::admit_demoted(const ChannelRequest& request,
                                                        double start_rate_bps) {
  const OverloadConfig& ov = cfg_.overload;
  double rate = start_rate_bps;
  while (true) {
    if (rate < ov.min_rate_bps) rate = ov.min_rate_bps;
    const double bw = mac::required_bandwidth_hz(rate, cfg_.spectral_efficiency);
    if (bw <= allocator_.largest_gap_hz()) {
      if (const auto g = try_fdm(request.node_id, bw)) {
        requested_rate_bps_[request.node_id] = request.rate_bps;
        priority_[request.node_id] = request.priority;
        if (rate < request.rate_bps) {
          ++overload_stats_.demotions;
        }
        return g;
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
  // the longer it lasts. Saturates at kHintMaxS.
  const double pressure = static_cast<double>(std::min<std::uint64_t>(deny_streak_, 32));
  const double hint = kHintBaseS * (1.0 + 15.0 * occ * occ + 0.25 * pressure);
  return std::min(kHintMaxS, hint);
}

bool InitProtocol::shed_for(const ChannelRequest& request, double needed_hz) {
  const double floor_bw = needed_hz;
  // Candidate victims: unshared FDM owners of strictly lower priority
  // holding more than the floor. Deterministic order — priority
  // ascending, node id breaking ties.
  std::vector<std::pair<std::uint8_t, std::uint16_t>> victims;
  double reclaimable = 0.0;
  for (const auto& [id, ch] : allocator_.allocations()) {
    if (!grants_.contains(id)) continue;
    if (channel_shared(ch)) continue;  // a shared channel's width is the group's
    const std::uint8_t prio = priority_.contains(id) ? priority_.at(id) : 1;
    if (prio >= request.priority) continue;
    if (ch.bandwidth_hz <= floor_bw + 1e-6) continue;
    victims.push_back({prio, id});
    reclaimable += ch.bandwidth_hz - floor_bw;
  }
  // Only shed when it is guaranteed to admit the newcomer (post-compact).
  if (allocator_.compacted_headroom_hz() + reclaimable + 1e-9 < needed_hz) return false;
  std::sort(victims.begin(), victims.end());
  for (const auto& [prio, id] : victims) {
    if (allocator_.compacted_headroom_hz() >= needed_hz) break;
    const auto cur = allocator_.lookup(id);
    if (!cur) continue;
    allocator_.release(id);
    auto shrunk = allocator_.allocate(id, floor_bw);
    if (shrunk && (!node_vco_.covers(shrunk->low_hz()) || !node_vco_.covers(shrunk->high_hz()))) {
      allocator_.release(id);
      shrunk = std::nullopt;
    }
    if (!shrunk) {
      allocator_.restore(id, *cur);
      continue;
    }
    const ChannelGrant g = make_grant(id, *shrunk, 0);
    grants_[id] = g;
    pending_retunes_.push_back(g);
    ++overload_stats_.shed_demotions;
    ++overload_stats_.retunes;
  }
  if (allocator_.largest_gap_hz() < needed_hz &&
      allocator_.compacted_headroom_hz() >= needed_hz)
    compact_spectrum();
  verify_allocator_invariants();
  return allocator_.largest_gap_hz() >= needed_hz;
}

std::size_t InitProtocol::compact_spectrum() {
  const std::vector<RetuneEvent> moved = allocator_.compact();
  if (moved.empty()) return 0;
  ++overload_stats_.compactions;
  for (const RetuneEvent& ev : moved) retune_channel(ev.from, ev.to);
  verify_allocator_invariants();
  return moved.size();
}

void InitProtocol::retune_channel(const ChannelAllocation& from, const ChannelAllocation& to) {
  // Every grant on `from` moves — the allocator owner and any SDM group
  // members sharing the channel keep their harmonics, only the tones move.
  for (auto& [id, g] : grants_) {
    if (g.channel == from) {
      g = make_grant(id, to, g.sdm_harmonic);
      pending_retunes_.push_back(g);
      ++overload_stats_.retunes;
    }
  }
  for (SharedChannel& sc : shared_)
    if (sc.channel == from) sc.channel = to;
}

std::vector<ChannelGrant> InitProtocol::promote_demoted() {
  std::vector<ChannelGrant> promoted;
  if (!cfg_.overload.enabled) return promoted;
  for (const auto& [id, want_rate] : requested_rate_bps_) {
    const auto git = grants_.find(id);
    if (git == grants_.end()) continue;
    const ChannelAllocation cur = git->second.channel;
    if (channel_shared(cur)) continue;  // group width is fixed by its members
    const auto owned = allocator_.lookup(id);
    if (!owned || !(*owned == cur)) continue;
    const double want_bw = mac::required_bandwidth_hz(want_rate, cfg_.spectral_efficiency);
    if (cur.bandwidth_hz + 1e-6 >= want_bw) continue;  // not demoted
    // Walk the halving ladder down from the requested rate and take the
    // largest step that still beats the current width (the freed slot can
    // merge with a neighbouring gap); put the original back untouched if
    // nothing fits.
    allocator_.release(id);
    std::optional<ChannelAllocation> ch;
    for (double rate = want_rate; ; rate /= 2.0) {
      const double bw = mac::required_bandwidth_hz(rate, cfg_.spectral_efficiency);
      if (bw <= cur.bandwidth_hz + 1e-6) break;  // no longer a promotion
      if (bw <= allocator_.largest_gap_hz()) {
        ch = allocator_.allocate(id, bw);
        break;
      }
    }
    if (ch && (!node_vco_.covers(ch->low_hz()) || !node_vco_.covers(ch->high_hz()))) {
      allocator_.release(id);
      ch = std::nullopt;
    }
    if (!ch) {
      allocator_.restore(id, cur);
      continue;
    }
    const ChannelGrant g = make_grant(id, *ch, git->second.sdm_harmonic);
    git->second = g;
    pending_retunes_.push_back(g);
    promoted.push_back(g);
    ++overload_stats_.promotions;
    ++overload_stats_.retunes;
  }
  if (!promoted.empty()) verify_allocator_invariants();
  return promoted;
}

std::vector<ChannelGrant> InitProtocol::take_retunes() {
  return std::exchange(pending_retunes_, {});
}

std::optional<double> InitProtocol::granted_rate_bps(std::uint16_t node_id) const {
  const auto it = grants_.find(node_id);
  if (it == grants_.end()) return std::nullopt;
  return it->second.channel.bandwidth_hz * cfg_.spectral_efficiency;
}

void InitProtocol::verify_allocator_invariants() {
  std::vector<ChannelAllocation> used;
  used.reserve(allocator_.allocations().size());
  for (const auto& [id, ch] : allocator_.allocations()) used.push_back(ch);
  std::sort(used.begin(), used.end(),
            [](const auto& a, const auto& b) { return a.low_hz() < b.low_hz(); });
  constexpr double kEps = 1e-6;
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i].low_hz() < allocator_.band_low_hz() - kEps ||
        used[i].high_hz() > allocator_.band_high_hz() + kEps)
      ++overload_stats_.invariant_violations;
    if (i > 0 && used[i].low_hz() + kEps < used[i - 1].high_hz() + allocator_.guard_hz())
      ++overload_stats_.invariant_violations;
  }
}

bool InitProtocol::channel_shared(const ChannelAllocation& ch) const {
  return std::any_of(shared_.begin(), shared_.end(),
                     [&](const SharedChannel& sc) { return sc.channel == ch; });
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
  const double bw = mac::required_bandwidth_hz(request.rate_bps, cfg_.spectral_efficiency);
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
  for (SharedChannel& sc : shared_) {
    if (sc.channel.bandwidth_hz + 1e-6 < bw) continue;
    if (static_cast<int>(sc.members.size()) >= kSdmCapacity) continue;
    if (!bearing_ok(sc.bearings)) continue;
    const auto slot = best_free_slot(sc.harmonics, request.bearing_rad);
    if (!slot) continue;
    sc.members.push_back(request.node_id);
    sc.bearings.push_back(request.bearing_rad);
    sc.harmonics.push_back(*slot);
    ChannelGrant g = make_grant(request.node_id, sc.channel, *slot);
    grants_[request.node_id] = g;
    requested_rate_bps_[request.node_id] = request.rate_bps;
    priority_[request.node_id] = request.priority;
    return g;
  }

  // 2) Convert a wide-enough FDM-only channel into a shared channel. The
  // incumbent keeps transmitting as before; the AP re-points it onto the
  // harmonic nearest its bearing and gives the newcomer another slot.
  for (const auto& [holder, ch] : allocator_.allocations()) {
    if (ch.bandwidth_hz + 1e-6 < bw) continue;
    if (!grants_.contains(holder)) continue;
    if (channel_shared(ch)) continue;
    const double holder_bearing =
        holder_bearings_.contains(holder) ? holder_bearings_.at(holder) : 0.0;
    if (std::abs(holder_bearing - request.bearing_rad) < kMinBearingSeparationRad)
      continue;
    const auto holder_slot = best_free_slot({}, holder_bearing);
    if (!holder_slot) continue;
    const auto new_slot = best_free_slot({*holder_slot}, request.bearing_rad);
    if (!new_slot) continue;

    SharedChannel sc;
    sc.channel = ch;
    sc.members = {holder, request.node_id};
    sc.bearings = {holder_bearing, request.bearing_rad};
    sc.harmonics = {*holder_slot, *new_slot};
    shared_.push_back(sc);
    // Update the incumbent's grant with its (possibly nonzero) harmonic.
    grants_[holder] = make_grant(holder, ch, *holder_slot);
    ChannelGrant g = make_grant(request.node_id, ch, *new_slot);
    grants_[request.node_id] = g;
    requested_rate_bps_[request.node_id] = request.rate_bps;
    priority_[request.node_id] = request.priority;
    return g;
  }
  return ChannelDeny{request.node_id};
}

SideChannelMessage InitProtocol::modify_rate(std::uint16_t node_id, double new_rate_bps) {
  if (!grants_.contains(node_id)) return ChannelDeny{node_id};
  const double bearing =
      holder_bearings_.contains(node_id) ? holder_bearings_.at(node_id) : 0.0;
  // Snapshot everything needed to reinstate the node exactly on failure:
  // the grant (channel, harmonic, VCO voltages), the allocator entry, the
  // original requested rate/priority, and SDM membership.
  const ChannelGrant old_grant = grants_.at(node_id);
  const std::optional<ChannelAllocation> owned = allocator_.lookup(node_id);
  const double old_requested =
      requested_rate_bps_.contains(node_id)
          ? requested_rate_bps_.at(node_id)
          : old_grant.channel.bandwidth_hz * cfg_.spectral_efficiency;
  const std::uint8_t prio = priority_.contains(node_id) ? priority_.at(node_id) : 1;
  bool was_member = false;
  for (const SharedChannel& sc : shared_)
    if (std::find(sc.members.begin(), sc.members.end(), node_id) != sc.members.end())
      was_member = true;

  release(node_id);
  const auto reply = handle(ChannelRequest{node_id, new_rate_bps, bearing, prio});
  if (std::get_if<ChannelGrant>(&reply)) return reply;

  // Could not satisfy the new demand: reinstate the previous grant
  // exactly instead of re-running admission on the old rate (which could
  // land the node elsewhere in the band).
  auto reinstate_books = [&] {
    holder_bearings_[node_id] = bearing;
    requested_rate_bps_[node_id] = old_requested;
    priority_[node_id] = prio;
  };
  // If the old channel still backs a live shared group (ownership moved
  // to a surviving member on release), rejoin it as a member.
  const auto group = std::find_if(shared_.begin(), shared_.end(), [&](const SharedChannel& sc) {
    return sc.channel == old_grant.channel;
  });
  if (was_member && group != shared_.end()) {
    group->members.push_back(node_id);
    group->bearings.push_back(bearing);
    group->harmonics.push_back(old_grant.sdm_harmonic);
    grants_[node_id] = old_grant;
    reinstate_books();
    return ChannelDeny{node_id};
  }
  if (owned && !allocator_.restore(node_id, *owned)) {
    // The freed spot was consumed during the failed attempt (possible
    // only when overload compaction ran). Keep the node's rate by
    // placing the same width wherever it fits now.
    if (const auto ch = allocator_.allocate(node_id, old_grant.channel.bandwidth_hz)) {
      const ChannelGrant g = make_grant(node_id, *ch, old_grant.sdm_harmonic);
      grants_[node_id] = g;
      pending_retunes_.push_back(g);
      ++overload_stats_.retunes;
      reinstate_books();
    }
    return ChannelDeny{node_id};  // spectrum gone entirely: the node must rejoin
  }
  grants_[node_id] = old_grant;
  reinstate_books();
  if (was_member)
    shared_.push_back({old_grant.channel, {node_id}, {bearing}, {old_grant.sdm_harmonic}});
  return ChannelDeny{node_id};
}

bool InitProtocol::release(std::uint16_t node_id) {
  // SDM ownership succession (overload mode): when the allocator owner
  // of a shared channel leaves, hand the spectrum to the lowest-id
  // surviving member instead of freeing it under the group. The legacy
  // path keeps the historical (buggy, but golden-pinned) free.
  if (cfg_.overload.enabled) {
    if (const auto owned = allocator_.lookup(node_id)) {
      for (const SharedChannel& sc : shared_) {
        if (!(sc.channel == *owned)) continue;
        std::uint16_t successor = 0;
        bool found = false;
        for (std::uint16_t m : sc.members)
          if (m != node_id && (!found || m < successor)) {
            successor = m;
            found = true;
          }
        if (found) allocator_.transfer(node_id, successor);
        break;
      }
    }
  }
  const bool had = grants_.erase(node_id) > 0;
  allocator_.release(node_id);
  holder_bearings_.erase(node_id);
  for (SharedChannel& sc : shared_) {
    for (std::size_t i = 0; i < sc.members.size(); ++i) {
      if (sc.members[i] == node_id) {
        sc.members.erase(sc.members.begin() + static_cast<long>(i));
        sc.bearings.erase(sc.bearings.begin() + static_cast<long>(i));
        sc.harmonics.erase(sc.harmonics.begin() + static_cast<long>(i));
        break;
      }
    }
  }
  std::erase_if(shared_, [](const SharedChannel& sc) { return sc.members.empty(); });
  requested_rate_bps_.erase(node_id);
  priority_.erase(node_id);
  // Freed spectrum relieves deny pressure.
  if (had) deny_streak_ = 0;
  return had;
}

}  // namespace mmx::refmac
