// FDM channel allocation (paper §7a).
//
// "mmX divides the available spectrum between nodes depending on their
// data rate demand... The channels are specified by the AP to each node
// in the initialization stage." The allocator manages the 250 MHz ISM
// band as a 1-D free list with guard bands, sized per node from its rate
// demand and the modulation's spectral efficiency.
//
// Under churn the band fragments: departures punch holes first-fit
// placement cannot reuse for wider demands. The overload-control path
// (docs/ROBUSTNESS.md) therefore adds best-fit placement and an explicit
// compact() that slides every grant down-band — both deterministic, so
// an AP replaying the same request sequence produces the same spectrum
// map bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace mmx::mac {

struct ChannelAllocation {
  double center_hz = 0.0;
  double bandwidth_hz = 0.0;

  double low_hz() const { return center_hz - bandwidth_hz / 2.0; }
  double high_hz() const { return center_hz + bandwidth_hz / 2.0; }
  bool operator==(const ChannelAllocation&) const = default;
};

/// Spectral efficiency of OTAM's ASK-FSK [bit/s/Hz]: the AP sizes
/// channels with it and a node turns its channel width back into a
/// symbol rate with it.
inline constexpr double kSpectralEfficiency = 0.8;

/// Bandwidth a node needs for `rate_bps` with OTAM's ASK-FSK modulation.
/// OOK-style signalling occupies ~(1/efficiency) Hz per bit/s, plus the
/// FSK tone spread.
double required_bandwidth_hz(double rate_bps, double spectral_efficiency = kSpectralEfficiency);

/// Gap-selection policy. kFirstFit is the historical behavior (lowest
/// fitting gap) and stays the default so pre-overload request sequences
/// replay bit-identically; kBestFit takes the tightest fitting gap
/// (ties broken toward the band's low edge), which keeps large gaps
/// intact under churn and is what the overload controller enables.
enum class AllocPolicy : std::uint8_t { kFirstFit, kBestFit };

/// One channel moved by compact(): the holder must re-tune from `from`
/// to `to` (same bandwidth, lower center).
struct RetuneEvent {
  std::uint16_t node_id = 0;
  ChannelAllocation from;
  ChannelAllocation to;
  bool operator==(const RetuneEvent&) const = default;
};

class FdmAllocator {
 public:
  /// Band [low, high] with `guard_hz` kept between adjacent channels.
  FdmAllocator(double band_low_hz, double band_high_hz, double guard_hz = 1e6,
               AllocPolicy policy = AllocPolicy::kFirstFit);

  /// Allocate per the configured policy. Returns nullopt when no
  /// contiguous gap fits (compact() may still make room — see
  /// compacted_headroom_hz()).
  std::optional<ChannelAllocation> allocate(std::uint16_t node_id, double bandwidth_hz);

  /// Release a node's channel; false if the node held none.
  bool release(std::uint16_t node_id);

  /// Re-insert exactly `ch` for `node_id` (undo of a release; the exact
  /// modify_rate restore path). False if the node already holds a
  /// channel or `ch` would leave the band or violate a guard.
  bool restore(std::uint16_t node_id, const ChannelAllocation& ch);

  /// Hand `from`'s channel to `to` unchanged (SDM ownership succession:
  /// when a shared channel's allocator owner leaves, a remaining member
  /// adopts the spectrum instead of it being freed under them). False if
  /// `from` holds nothing or `to` already holds a channel.
  bool transfer(std::uint16_t from, std::uint16_t to);

  /// Slide every channel down-band (ascending frequency order: first
  /// channel to the band edge, each next one guard-distance above its
  /// predecessor) so all free spectrum coalesces into one top-of-band
  /// gap. Bandwidths never change. Returns one RetuneEvent per moved
  /// channel, in ascending frequency order — the AP turns these into
  /// re-tune notifications over the side channel. Deterministic.
  std::vector<RetuneEvent> compact();

  std::optional<ChannelAllocation> lookup(std::uint16_t node_id) const;

  /// Total un-allocated spectrum: band width minus the sum of allocated
  /// bandwidths, i.e. the sum of all raw gap widths. Deliberately blind
  /// to fragmentation and guards — a demand of this size may still be
  /// unplaceable; see largest_gap_hz() and fragmentation().
  double free_bandwidth_hz() const;

  /// Largest single allocatable channel right now (respects guards
  /// against both gap neighbours; band edges need no guard). 0 when the
  /// band is full or every gap is narrower than its guard overhead; the
  /// full band width when empty.
  double largest_gap_hz() const;

  /// How much of the free spectrum is unusable as one block:
  /// 1 - widest_raw_gap / free_bandwidth. 0 when the band is empty or
  /// all free spectrum is contiguous; -> 1 as the free space shatters.
  /// 0 when nothing is free (a full band is not fragmented). Raw gap
  /// widths (guards not subtracted) keep the ratio consistent with
  /// free_bandwidth_hz().
  double fragmentation() const;

  /// largest_gap_hz() as it would read after release(node_id), without
  /// mutating: the larger of the current largest gap and the gap the
  /// release would open between the node's two neighbours, computed with
  /// largest_gap_hz()'s own expressions so the two agree bit for bit.
  /// The current largest gap when the node holds nothing.
  double largest_gap_after_release_hz(std::uint16_t node_id) const;

  /// Largest channel allocatable after a compact(): the single
  /// top-of-band gap a fully slid band leaves, minus the one guard the
  /// new channel needs against its down-band neighbour. This is the
  /// admission controller's "would compaction help?" test.
  double compacted_headroom_hz() const;

  /// Packing-rule violations in the current map: channels reaching past
  /// a band edge, and neighbours closer than the guard (overlaps
  /// included), each judged with restore()'s rounding slack. Always 0.
  std::size_t invariant_violations() const;

  std::size_t num_allocations() const { return by_node_.size(); }
  const std::map<std::uint16_t, ChannelAllocation>& allocations() const { return by_node_; }

  AllocPolicy policy() const { return policy_; }
  void set_policy(AllocPolicy p) { policy_ = p; }

  double band_low_hz() const { return low_; }
  double band_high_hz() const { return high_; }
  double guard_hz() const { return guard_; }

 private:
  /// The occupied intervals sorted by low edge, and the largest gap
  /// between them. Built on the first read after a mutation and kept
  /// until the next one, so admission's many queries between two
  /// mutations share one sort. allocate(), largest_gap_hz(),
  /// fragmentation() and invariant_violations() all read through it.
  /// The gap is filled on the first largest_gap_hz() read: first-fit
  /// allocate() stops at the first fitting gap and never needs it.
  /// transfer() keeps the view: the occupied set does not change.
  struct View {
    std::vector<ChannelAllocation> by_low;
    std::optional<double> largest_gap_hz;
  };
  const View& view() const;
  /// Sum of allocated widths in node id order, the order
  /// free_bandwidth_hz() and compacted_headroom_hz() have always summed
  /// in. Memoized until the next mutation; a running sum would round
  /// differently.
  double used_bandwidth_hz() const;
  /// Every mutator calls this; the next read rebuilds the view and the
  /// used-bandwidth sum.
  void invalidate() {
    view_valid_ = false;
    used_hz_.reset();
  }

  double low_;
  double high_;
  double guard_;
  AllocPolicy policy_;
  std::map<std::uint16_t, ChannelAllocation> by_node_;
  // Const queries fill the memo, so one allocator must not be queried
  // from two threads at once.
  mutable View view_;
  mutable bool view_valid_ = false;
  mutable std::optional<double> used_hz_;
};

}  // namespace mmx::mac
