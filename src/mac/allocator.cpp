#include "mmx/mac/allocator.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace mmx::mac {

double required_bandwidth_hz(double rate_bps, double spectral_efficiency) {
  if (!std::isfinite(rate_bps))
    throw std::invalid_argument("required_bandwidth_hz: rate must be finite");
  if (rate_bps <= 0.0) throw std::invalid_argument("required_bandwidth_hz: rate must be > 0");
  if (!(spectral_efficiency > 0.0))
    throw std::invalid_argument("required_bandwidth_hz: efficiency must be > 0");
  return rate_bps / spectral_efficiency;
}

FdmAllocator::FdmAllocator(double band_low_hz, double band_high_hz, double guard_hz,
                           AllocPolicy policy)
    : low_(band_low_hz), high_(band_high_hz), guard_(guard_hz), policy_(policy) {
  // Phrased to fail on NaN.
  if (!(band_low_hz < band_high_hz)) throw std::invalid_argument("FdmAllocator: empty band");
  if (!(guard_hz >= 0.0)) throw std::invalid_argument("FdmAllocator: guard must be >= 0");
}

const FdmAllocator::View& FdmAllocator::view() const {
  if (view_valid_) return view_;
  std::vector<ChannelAllocation>& used = view_.by_low;
  used.clear();
  for (const auto& [id, ch] : by_node_) used.push_back(ch);
  std::sort(used.begin(), used.end(),
            [](const auto& a, const auto& b) { return a.low_hz() < b.low_hz(); });
  view_.largest_gap_hz.reset();
  view_valid_ = true;
  return view_;
}

std::optional<ChannelAllocation> FdmAllocator::allocate(std::uint16_t node_id,
                                                        double bandwidth_hz) {
  if (!(bandwidth_hz > 0.0)) throw std::invalid_argument("FdmAllocator: bandwidth must be > 0");
  if (by_node_.contains(node_id))
    throw std::invalid_argument("FdmAllocator: node already holds a channel");

  const std::vector<ChannelAllocation>& used = view().by_low;

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
  invalidate();
  return ch;
}

bool FdmAllocator::release(std::uint16_t node_id) {
  if (by_node_.erase(node_id) == 0) return false;
  invalidate();
  return true;
}

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
  invalidate();
  return true;
}

bool FdmAllocator::transfer(std::uint16_t from, std::uint16_t to) {
  const auto it = by_node_.find(from);
  if (it == by_node_.end() || by_node_.contains(to)) return false;
  const ChannelAllocation ch = it->second;
  by_node_.erase(it);
  by_node_[to] = ch;
  // Same channels, so the sorted view stands; the id-order sum moves.
  used_hz_.reset();
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
  if (!moved.empty()) invalidate();
  return moved;
}

std::size_t FdmAllocator::invariant_violations() const {
  // restore()'s slack: compact() packs neighbours at exactly guard
  // distance, and the re-derived edges can land a few ulps (~4e-6 Hz
  // each at 24 GHz) inside it. That is rounding, not a violation.
  const double kEps = 1e-9 * std::max(1.0, high_);
  const std::vector<ChannelAllocation>& used = view().by_low;
  std::size_t n = 0;
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i].low_hz() < low_ - kEps || used[i].high_hz() > high_ + kEps) ++n;
    if (i > 0 && used[i].low_hz() + kEps < used[i - 1].high_hz() + guard_) ++n;
  }
  return n;
}

std::optional<ChannelAllocation> FdmAllocator::lookup(std::uint16_t node_id) const {
  const auto it = by_node_.find(node_id);
  if (it == by_node_.end()) return std::nullopt;
  return it->second;
}

double FdmAllocator::used_bandwidth_hz() const {
  if (used_hz_) return *used_hz_;
  double used = 0.0;
  for (const auto& [id, ch] : by_node_) used += ch.bandwidth_hz;
  used_hz_ = used;
  return used;
}

double FdmAllocator::free_bandwidth_hz() const { return (high_ - low_) - used_bandwidth_hz(); }

double FdmAllocator::largest_gap_hz() const {
  const View& v = view();
  if (v.largest_gap_hz) return *v.largest_gap_hz;
  const std::vector<ChannelAllocation>& used = v.by_low;
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
  view_.largest_gap_hz = std::max(0.0, best);
  return *view_.largest_gap_hz;
}

double FdmAllocator::largest_gap_after_release_hz(std::uint16_t node_id) const {
  const double largest = largest_gap_hz();
  const auto it = by_node_.find(node_id);
  if (it == by_node_.end()) return largest;
  const View& v = view();
  // Releasing a channel merges the gaps on either side of it into one;
  // every other gap stays. Each side gap is no wider than the merged one,
  // so the merged gap and the current largest cover every candidate.
  const auto pos = std::lower_bound(
      v.by_low.begin(), v.by_low.end(), it->second.low_hz(),
      [](const ChannelAllocation& c, double low_hz) { return c.low_hz() < low_hz; });
  const double cursor = pos == v.by_low.begin() ? low_ : std::prev(pos)->high_hz() + guard_;
  const auto next = std::next(pos);
  const double gap_end = next == v.by_low.end() ? high_ : next->low_hz() - guard_;
  return std::max(largest, gap_end - cursor);
}

double FdmAllocator::fragmentation() const {
  const std::vector<ChannelAllocation>& used = view().by_low;
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
  const double used = used_bandwidth_hz();
  // Packed: n channels consume n-1 inter-channel guards; an appended
  // channel pays one more against the packed block.
  const double n = static_cast<double>(by_node_.size());
  return std::max(0.0, (high_ - low_) - used - n * guard_);
}

}  // namespace mmx::mac
