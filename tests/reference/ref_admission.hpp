// Frozen ("reference") form of the AP admission path: FdmAllocator and
// InitProtocol as they stood before the per-holder record refactor, when
// one grant holder's state lived in four id-keyed maps (grants,
// bearings, requested rates, priorities) and the allocator copied and
// re-sorted every allocation on each lookup.
//
// Admission is a pure function of the request sequence, so this copy is
// the oracle for the lockstep equivalence test
// (tests/mac/admission_lockstep_test.cpp): any rewrite of the production
// allocator or init protocol must reproduce it reply for reply and grant
// for grant. The code is verbatim except for the namespace, the dropped
// observability counters (they never touched state), the dropped
// serve() (transport only), and the admission settings production
// turned into constants, which it holds as its own literal copies. Do
// not optimize it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "mmx/mac/allocator.hpp"
#include "mmx/mac/init_protocol.hpp"
#include "mmx/mac/side_channel.hpp"
#include "mmx/rf/vco.hpp"

namespace mmx::refmac {

using mac::AllocPolicy;
using mac::ChannelAllocation;
using mac::ChannelDeny;
using mac::ChannelGrant;
using mac::ChannelRequest;
using mac::HarmonicSlot;
using mac::InitConfig;
using mac::OverloadConfig;
using mac::OverloadStats;
using mac::RetuneEvent;
using mac::SideChannelMessage;

class FdmAllocator {
 public:
  FdmAllocator(double band_low_hz, double band_high_hz, double guard_hz = 1e6,
               AllocPolicy policy = AllocPolicy::kFirstFit);

  std::optional<ChannelAllocation> allocate(std::uint16_t node_id, double bandwidth_hz);
  bool release(std::uint16_t node_id);
  bool restore(std::uint16_t node_id, const ChannelAllocation& ch);
  bool transfer(std::uint16_t from, std::uint16_t to);
  std::vector<RetuneEvent> compact();
  std::optional<ChannelAllocation> lookup(std::uint16_t node_id) const;
  double free_bandwidth_hz() const;
  double largest_gap_hz() const;
  double fragmentation() const;
  double compacted_headroom_hz() const;

  std::size_t num_allocations() const { return by_node_.size(); }
  const std::map<std::uint16_t, ChannelAllocation>& allocations() const { return by_node_; }

  AllocPolicy policy() const { return policy_; }
  void set_policy(AllocPolicy p) { policy_ = p; }

  double band_low_hz() const { return low_; }
  double band_high_hz() const { return high_; }
  double guard_hz() const { return guard_; }

 private:
  std::vector<ChannelAllocation> sorted_used() const;

  double low_;
  double high_;
  double guard_;
  AllocPolicy policy_;
  std::map<std::uint16_t, ChannelAllocation> by_node_;
};

class InitProtocol {
 public:
  InitProtocol(FdmAllocator allocator, rf::Vco node_vco, InitConfig cfg = {});

  SideChannelMessage handle(const ChannelRequest& request);
  const std::map<std::uint16_t, ChannelGrant>& grants() const { return grants_; }
  bool release(std::uint16_t node_id);
  SideChannelMessage modify_rate(std::uint16_t node_id, double new_rate_bps);
  std::size_t compact_spectrum();
  std::vector<ChannelGrant> promote_demoted();
  std::vector<ChannelGrant> take_retunes();
  std::optional<double> granted_rate_bps(std::uint16_t node_id) const;
  const OverloadStats& overload_stats() const { return overload_stats_; }
  const FdmAllocator& allocator() const { return allocator_; }

 private:
  struct SharedChannel {
    ChannelAllocation channel;
    std::vector<std::uint16_t> members;
    std::vector<double> bearings;
    std::vector<int> harmonics;
  };

  ChannelGrant make_grant(std::uint16_t node_id, const ChannelAllocation& ch, int harmonic) const;
  std::optional<ChannelGrant> try_fdm(std::uint16_t node_id, double bandwidth_hz);
  SideChannelMessage try_sdm(const ChannelRequest& request);
  SideChannelMessage handle_overload(const ChannelRequest& request, double bandwidth_hz);
  std::optional<ChannelGrant> admit_demoted(const ChannelRequest& request,
                                            double start_rate_bps);
  bool shed_for(const ChannelRequest& request, double needed_hz);
  double deny_hint_s() const;
  void retune_channel(const ChannelAllocation& from, const ChannelAllocation& to);
  void verify_allocator_invariants();
  bool channel_shared(const ChannelAllocation& ch) const;
  std::optional<int> best_free_slot(const std::vector<int>& used, double bearing_rad) const;

  FdmAllocator allocator_;
  rf::Vco node_vco_;
  InitConfig cfg_;
  std::vector<HarmonicSlot> sdm_slots_;
  std::map<std::uint16_t, ChannelGrant> grants_;
  std::map<std::uint16_t, double> holder_bearings_;
  std::vector<SharedChannel> shared_;
  std::map<std::uint16_t, double> requested_rate_bps_;
  std::map<std::uint16_t, std::uint8_t> priority_;
  std::vector<ChannelGrant> pending_retunes_;
  OverloadStats overload_stats_;
  std::uint64_t deny_streak_ = 0;
};

}  // namespace mmx::refmac
