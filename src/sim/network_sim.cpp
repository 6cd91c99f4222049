#include "mmx/sim/network_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmx/channel/propagation.hpp"
#include "mmx/common/units.hpp"
#include "mmx/obs/trace.hpp"
#include "mmx/sim/sweep.hpp"

namespace mmx::sim {

namespace {
// Trace parameters behind gains(); the cache's blocker-free traces use the
// same ones, so the paths it keeps are a superset of the priced ones.
constexpr double kTraceMaxExcessLossDb = 60.0;
constexpr int kTraceMaxBounces = 1;
static_assert(kTraceMaxBounces == 1, "LinkCache::PathRecord holds one reflection point");

// Nodes per refill batch: big enough to amortize the per-batch image
// table and workspace reuse, small enough that for_each_chunk still
// load-balances a 10^4-node refresh across workers.
constexpr std::size_t kRefillBlock = 64;

// Suppression of other FDM channels by the AP's channelization filters
// (adjacent-channel rejection), seen by sinr_all_db.
constexpr double kAdjacentChannelRejectionDb = 50.0;

// Per-thread trace workspace: after warm-up every cached trace through
// the RoomPlan is allocation-free (docs/GEOMETRY.md).
channel::PathList& tls_path_list() {
  thread_local channel::PathList ws;
  return ws;
}

// The gains of `e`'s paths under the plan's blockers. Each dirty leg gets
// a fresh RoomPlan::leg_blocker_loss_db term; a clean leg keeps its
// stored one (docs/SCALING.md, "Stale, not erased"). A path whose terms
// moved is re-priced by RoomPlan::priced_loss_db, then trace_into's cull
// (keep iff loss <= the bound) and path_gain; any other path keeps its
// stored cull and gain. compute_beam_gains' accumulation then runs in
// path order. The blockers-applied paths are the culled subset of the
// blocker-free ones, in the same order, so the gains are the trace's bit
// for bit. `counts` gains the legs priced and the clean legs reused.
channel::BeamGains price_paths(const channel::RoomPlan& plan, LinkCache::Entry& e, Vec2 ap,
                               channel::PathList& ws, LinkCache::LegCounts& counts) {
  const Vec2 node = e.pose.position;
  channel::BeamGains g{};
  for (LinkCache::PathRecord& p : e.paths) {
    const unsigned legs = p.legs();
    if (p.dirty_legs != 0) {
      const std::array<Vec2, 3> corners{node, p.reflected ? p.via : ap, ap};
      const channel::PathKind kind =
          p.reflected ? channel::PathKind::kReflected : channel::PathKind::kLineOfSight;
      bool moved = false;
      int crossings = 0;
      for (unsigned l = 0; l < legs; ++l) {
        if ((p.dirty_legs & (1u << l)) == 0) {
          ++counts.reused;
          continue;
        }
        const double b = plan.leg_blocker_loss_db(corners[l], corners[l + 1], kind, ws, crossings);
        moved |= b != p.leg_blocker_db[l];  // always true for an unpriced NaN
        p.leg_blocker_db[l] = b;
        ++counts.priced;
      }
      if (moved) {
        const double loss =
            channel::RoomPlan::priced_loss_db(p.walls, {p.leg_blocker_db.data(), legs});
        p.kept = loss <= kTraceMaxExcessLossDb;
        p.gain = p.kept ? channel::path_gain_from(p.spreading_db, p.phasor, loss) * p.ap_amp
                        : std::complex<double>{};
      }
    } else {
      counts.reused += legs;
    }
    if (!p.kept) continue;
    g.h0 += p.beam0_field * p.gain;
    g.h1 += p.beam1_field * p.gain;
    ++g.paths_used;
  }
  return g;
}
}  // namespace

NetworkSimulator::NetworkSimulator(channel::Room room, channel::Pose ap_pose, SimConfig cfg)
    : room_(std::move(room)),
      ap_pose_(ap_pose),
      cfg_(cfg),
      budget_(cfg.budget),
      beams_(antenna::BeamPairSpec{.freq_hz = cfg.freq_hz}),
      ap_antenna_(),
      tma_(antenna::ap_tma()),
      init_(mac::FdmAllocator(cfg.band_low_hz, cfg.band_high_hz, cfg.init.guard_hz),
            rf::Vco(cfg.node_vco), cfg.init),
      cache_(ap_pose.position) {
  if (!room_.contains(ap_pose.position))
    throw std::invalid_argument("NetworkSimulator: AP outside the room");
  if (cfg.band_low_hz >= cfg.band_high_hz)
    throw std::invalid_argument("NetworkSimulator: band_low_hz must be < band_high_hz");
}

std::optional<std::uint16_t> NetworkSimulator::add_node(const channel::Pose& pose,
                                                        double rate_bps) {
  return admit(pose, rate_bps).id;
}

NetworkSimulator::Admission NetworkSimulator::admit(const channel::Pose& pose,
                                                    double rate_bps, std::uint8_t priority) {
  check_node_position(pose.position);
  const std::uint16_t id = issue_id();
  const auto reply =
      init_.handle(mac::ChannelRequest{id, rate_bps, ap_bearing(pose.position), priority});
  if (const auto* grant = std::get_if<mac::ChannelGrant>(&reply)) {
    store_node(id, NodeState{pose});
    return Admission{id, 0.0,
                     grant->channel.bandwidth_hz * cfg_.init.spectral_efficiency};
  }
  const auto* deny = std::get_if<mac::ChannelDeny>(&reply);
  return Admission{std::nullopt, deny != nullptr ? deny->retry_after_s : 0.0, 0.0};
}

void NetworkSimulator::promote_demoted() { init_.promote_demoted(); }

std::vector<mac::ChannelGrant> NetworkSimulator::drain_retunes() { return init_.take_retunes(); }

std::uint16_t NetworkSimulator::add_tracked_node(const channel::Pose& pose) {
  check_node_position(pose.position);
  const std::uint16_t id = issue_id();
  store_node(id, NodeState{pose});
  return id;
}

void NetworkSimulator::check_node_position(Vec2 position) const {
  if (!room_.contains(position))
    throw std::invalid_argument("NetworkSimulator: node outside the room");
  // A node on the AP has no path to trace: every refill would throw.
  if (position == ap_pose_.position)
    throw std::invalid_argument("NetworkSimulator: node on the AP position");
}

std::uint16_t NetworkSimulator::issue_id() {
  // next_id_ starts at 1, so 0 means the counter wrapped past 65535.
  if (next_id_ == 0)
    throw std::overflow_error("NetworkSimulator: node id space exhausted (65535 ids issued, " +
                              std::to_string(num_nodes_) + " live)");
  return next_id_++;
}

void NetworkSimulator::store_node(std::uint16_t id, NodeState state) {
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  nodes_[id] = NodeSlot{std::move(state), /*present=*/true};
  ++num_nodes_;
  if (cfg_.link_cache) cache_.note_new(id);
}

void NetworkSimulator::remove_node(std::uint16_t id) {
  if (id >= nodes_.size() || !nodes_[id].present) return;
  nodes_[id] = NodeSlot{};
  --num_nodes_;
  init_.release(id);
  cache_.erase(id);
}

void NetworkSimulator::note_activity(std::uint16_t id, double now_s) {
  if (id >= nodes_.size() || !nodes_[id].present)
    throw std::out_of_range("NetworkSimulator: unknown node");
  nodes_[id].state.last_active_s = now_s;
}

std::vector<std::uint16_t> NetworkSimulator::reap_inactive(double now_s,
                                                           double silence_timeout_s) {
  if (silence_timeout_s <= 0.0)
    throw std::invalid_argument("NetworkSimulator: silence_timeout_s must be > 0");
  // One pass over the flat table, in id order. A node never noted is
  // skipped without a lookup; every noted node that has gone silent pays
  // one holder lookup per call, so a caller should note holders only.
  std::vector<std::uint16_t> reaped;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (!nodes_[id].present) continue;
    const double last_active_s = nodes_[id].state.last_active_s;
    if (last_active_s >= 0.0 && now_s - last_active_s >= silence_timeout_s &&
        init_.holders().contains(static_cast<std::uint16_t>(id)))
      reaped.push_back(static_cast<std::uint16_t>(id));
  }
  for (const std::uint16_t id : reaped) remove_node(id);
  MMX_OBS_COUNT("sim.ap.reaped", reaped.size());
  return reaped;
}

bool NetworkSimulator::revoke_grant(std::uint16_t id) {
  if (!init_.release(id)) return false;
  MMX_OBS_COUNT("sim.ap.revocations", 1);
  return true;
}

void NetworkSimulator::set_node_pose(std::uint16_t id, const channel::Pose& pose) {
  check_node_position(pose.position);
  if (id >= nodes_.size() || !nodes_[id].present)
    throw std::out_of_range("NetworkSimulator: unknown node");
  if (nodes_[id].state.pose == pose) return;
  nodes_[id].state.pose = pose;
  cache_.erase(id);  // exactly this entry; everyone else stays warm
}

const NetworkSimulator::NodeState& NetworkSimulator::node(std::uint16_t id) const {
  if (id >= nodes_.size() || !nodes_[id].present)
    throw std::out_of_range("NetworkSimulator: unknown node");
  return nodes_[id].state;
}

channel::BeamGains NetworkSimulator::compute_gains(const channel::Pose& pose) const {
  // A fresh plan and workspace per call: the uncached path shares no
  // state with the cache (or another thread) and compiles the live room.
  const channel::RoomPlan plan(room_);
  channel::PathList ws;
  const auto paths = plan.trace_into(pose.position, ap_pose_.position, ws, kTraceMaxExcessLossDb,
                                     kTraceMaxBounces);
  return channel::compute_beam_gains(paths, pose, beams_, ap_pose_, ap_antenna_, cfg_.freq_hz);
}

const NetworkSimulator::TraceContext& NetworkSimulator::trace_context() const {
  if (!ctx_.plan.compiled() || ctx_.plan.room_epoch() != room_.epoch()) {
    ctx_.plan.rebuild(room_);
    ctx_.plan.build_images(ap_pose_.position, kTraceMaxBounces, ctx_.ap_images);
  }
  return ctx_;
}

LinkCache::LegCounts NetworkSimulator::refill_block(const TraceContext& ctx,
                                                   std::span<const RefillJob> jobs) const {
  channel::PathList& ws = tls_path_list();
  thread_local std::vector<Vec2> txs;
  thread_local std::vector<std::uint32_t> offs;
  ws.clear();
  txs.clear();
  for (const RefillJob& job : jobs)
    if (!job.reprice) txs.push_back(job.pose.position);
  if (!txs.empty()) {
    offs.resize(txs.size() + 1);
    ctx.plan.trace_batch_into(ap_pose_.position, txs, ctx.ap_images, ws, offs,
                              kTraceMaxExcessLossDb, kTraceMaxBounces);
  }

  std::size_t traced = 0;
  LinkCache::LegCounts counts;
  for (const RefillJob& job : jobs) {
    LinkCache::Entry& e = *job.entry;
    if (!job.reprice) {
      // Keep every blocker-free path with the terms a reprice reuses: its
      // wall terms, both beams' pattern fields, the AP element amplitude
      // and the distance terms of path_gain. Every leg starts dirty.
      const auto paths = ws.slice(offs[traced], offs[traced + 1]);
      ++traced;
      e.paths.clear();
      e.paths.reserve(paths.size());
      for (const channel::Path& p : paths) {
        const double dep = wrap_angle(p.departure_rad - job.pose.orientation_rad);
        const double arr = wrap_angle(p.arrival_rad - ap_pose_.orientation_rad);
        LinkCache::PathRecord& r = e.paths.emplace_back();
        r.via = p.via;
        r.walls = p.walls;
        r.beam0_field = beams_.field(0, dep);
        r.beam1_field = beams_.field(1, dep);
        r.ap_amp = ap_antenna_.amplitude(arr);
        r.phasor = channel::path_phasor(p.length_m, cfg_.freq_hz);
        r.spreading_db = channel::spreading_loss_db(p.length_m, cfg_.freq_hz);
        r.reflected = p.kind == channel::PathKind::kReflected;
        r.dirty_legs = r.reflected ? 0b11 : 0b01;
      }
    }
    const channel::BeamGains g = price_paths(ctx.plan, e, ap_pose_.position, ws, counts);
    // The memoized links are functions of the gains alone.
    if (!(g.h0 == e.gains.h0 && g.h1 == e.gains.h1 && g.paths_used == e.gains.paths_used)) {
      e.has_otam = false;
      e.has_fixed = false;
    }
    e.gains = g;
  }
  return counts;
}

LinkCache::Entry& NetworkSimulator::cache_entry(std::uint16_t id, const NodeState& n) const {
  cache_.reconcile(room_);
  // A miss is a one-job refill; the hit path never builds the fill.
  return cache_.ensure(id, n.pose, [&](LinkCache::Entry& e, bool reprice) {
    const RefillJob job{id, n.pose, reprice, &e};
    cache_.count_legs(refill_block(trace_context(), {&job, 1}));
  });
}

channel::BeamGains NetworkSimulator::gains(std::uint16_t id) const {
  const NodeState& n = node(id);
  if (!cfg_.link_cache) return compute_gains(n.pose);
  return cache_entry(id, n).gains;
}

channel::BeamGains NetworkSimulator::gains_uncached(std::uint16_t id) const {
  return compute_gains(node(id).pose);
}

OtamLink NetworkSimulator::link(std::uint16_t id) const {
  const NodeState& n = node(id);
  if (!cfg_.link_cache) return budget_.evaluate_otam(compute_gains(n.pose), spdt_);
  LinkCache::Entry& e = cache_entry(id, n);
  if (!e.has_otam) {
    e.otam = budget_.evaluate_otam(e.gains, spdt_);
    e.has_otam = true;
  }
  return e.otam;
}

OtamLink NetworkSimulator::link_uncached(std::uint16_t id) const {
  return budget_.evaluate_otam(gains_uncached(id), spdt_);
}

OtamLink NetworkSimulator::fixed_beam_link(std::uint16_t id) const {
  const NodeState& n = node(id);
  if (!cfg_.link_cache) return budget_.evaluate_fixed_beam(compute_gains(n.pose));
  LinkCache::Entry& e = cache_entry(id, n);
  if (!e.has_fixed) {
    e.fixed = budget_.evaluate_fixed_beam(e.gains);
    e.has_fixed = true;
  }
  return e.fixed;
}

std::size_t NetworkSimulator::refresh_cache(std::size_t threads) {
  if (!cfg_.link_cache) return 0;
  MMX_OBS_SPAN("sim.refresh_cache", refresh_gen_++);
  cache_.reconcile(room_);
  // The cache names every id that may lack a valid entry, ascending: the
  // jobs commit in id order without a scan of the whole node table.
  std::vector<RefillJob> jobs;
  for (const std::uint16_t id : cache_.take_pending()) {
    if (id >= nodes_.size() || !nodes_[id].present) continue;
    const channel::Pose& pose = nodes_[id].state.pose;
    if (!cache_.valid(id, pose)) jobs.push_back({id, pose});
  }
  if (jobs.empty()) return 0;

  // Compile the plan + AP image table once, serially: the parallel
  // workers below only read it. Open every slot before taking entry
  // pointers, since opening may grow the cache's slot table.
  const TraceContext& ctx = trace_context();
  for (RefillJob& job : jobs) job.reprice = cache_.open_refill(job.id, job.pose);
  for (RefillJob& job : jobs) job.entry = &cache_.entry(job.id);

  // Fan block refills over the chunk loop: each entry is a pure function
  // of (pose, room) written to its own slot, and each block's leg counts
  // to its own slot, so any schedule leaves identical bits, and the
  // commit below runs in job order. Blocks (not single nodes) are the
  // work unit so each worker amortizes the batched trace across
  // kRefillBlock nodes.
  const std::size_t blocks = (jobs.size() + kRefillBlock - 1) / kRefillBlock;
  std::vector<LinkCache::LegCounts> counts(blocks);
  const std::span<const RefillJob> all(jobs);
  for_each_chunk(blocks, threads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t lo = b * kRefillBlock;
      counts[b] = refill_block(ctx, all.subspan(lo, std::min(kRefillBlock, jobs.size() - lo)));
    }
  });
  for (const RefillJob& job : jobs) cache_.commit_refill(job.id, job.reprice);
  for (const LinkCache::LegCounts& c : counts) cache_.count_legs(c);
  return jobs.size();
}

const mac::ChannelGrant& NetworkSimulator::grant(std::uint16_t id) const {
  // Read the live grant: the init protocol may re-point a node's SDM
  // harmonic when its channel later becomes shared.
  const auto it = init_.holders().find(id);
  if (it == init_.holders().end()) throw std::out_of_range("NetworkSimulator: unknown node");
  return it->second.grant;
}

bool NetworkSimulator::is_associated(std::uint16_t id) const {
  node(id);  // unknown ids throw
  return init_.holders().contains(id);
}

std::size_t NetworkSimulator::num_associated() const { return init_.holders().size(); }

const channel::Pose& NetworkSimulator::node_pose(std::uint16_t id) const {
  return node(id).pose;
}

double NetworkSimulator::bearing_at_ap(std::uint16_t id) const {
  return ap_bearing(node(id).pose.position);
}

double NetworkSimulator::ap_bearing(Vec2 position) const {
  return wrap_angle((position - ap_pose_.position).angle() - ap_pose_.orientation_rad);
}

std::map<std::uint16_t, double> NetworkSimulator::sinr_all_db() const {
  // Received power (stronger OTAM level) per node, in watts.
  std::map<std::uint16_t, double> rx_w;
  std::map<std::uint16_t, double> bearing;
  for (const auto& [id, holder] : init_.holders()) {
    const OtamLink l = link(id);
    rx_w[id] = dbm_to_watt(std::max(l.rx1_dbm, l.rx0_dbm));
    bearing[id] = bearing_at_ap(id);
  }

  const double noise_w = dbm_to_watt(budget_.noise_floor_dbm());
  const double aclr = db_to_lin(-kAdjacentChannelRejectionDb);

  // Per-group power control: every member of a shared channel backs off
  // to the weakest member's receive level (the AP commands per-node
  // duty-cycle backoff over the side channel during init), taming the
  // near-far problem co-channel TMA groups otherwise have.
  std::map<std::pair<double, double>, double> group_min;  // (centre, bw) -> min rx
  for (const auto& [id, w] : rx_w) {
    const auto& ch = grant(id).channel;
    const auto key = std::make_pair(ch.center_hz, ch.bandwidth_hz);
    const auto it = group_min.find(key);
    if (it == group_min.end() || w < it->second) group_min[key] = w;
  }
  for (auto& [id, w] : rx_w) {
    const auto& ch = grant(id).channel;
    w = group_min.at(std::make_pair(ch.center_hz, ch.bandwidth_hz));
  }

  const auto share_count = [&](const mac::ChannelAllocation& ch) {
    std::size_t n = 0;
    for (const auto& [jd, wj] : rx_w)
      if (grant(jd).channel == ch) ++n;
    return n;
  };

  std::map<std::uint16_t, double> out;
  for (const auto& [id, wi] : rx_w) {
    const mac::ChannelGrant& gi = grant(id);
    const int m_i = gi.sdm_harmonic;
    // The TMA gain applies only to SDM groups; plain FDM nodes are
    // received on the AP's static antenna (gain already in the budget).
    const bool shared_i = share_count(gi.channel) > 1;
    const double g_own =
        shared_i ? tma_.harmonic_power(m_i, bearing.at(id)) : 1.0;
    const double wanted = wi * std::max(g_own, 1e-12);

    double interference = 0.0;
    for (const auto& [jd, wj] : rx_w) {
      if (jd == id) continue;
      if (grant(jd).channel == gi.channel) {
        // Co-channel: leakage through the harmonic-m_i pattern toward j.
        const double g_leak = tma_.harmonic_power(m_i, bearing.at(jd));
        interference += wj * g_leak;
      } else {
        interference += wj * aclr * (shared_i ? g_own : 1.0);
      }
    }
    const double noise = noise_w * (shared_i ? g_own : 1.0);
    out[id] = lin_to_db(wanted / (interference + noise));
  }
  return out;
}

}  // namespace mmx::sim
