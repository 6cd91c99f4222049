#include "mmx/sim/scale_scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmx/channel/blockage.hpp"
#include "mmx/common/units.hpp"
#include "mmx/mac/rate_control.hpp"
#include "mmx/obs/obs.hpp"
#include "mmx/obs/trace.hpp"
#include "mmx/sim/event_queue.hpp"

namespace mmx::sim {

ScaleConfig make_scale_config(std::size_t nodes) {
  ScaleConfig cfg;
  cfg.nodes = nodes;
  // V-band deployment (paper §10's scaling direction; cf. the band60
  // ablation): 7 GHz of spectrum instead of the 250 MHz ISM sliver, a VCO
  // spec covering it with margin for the FSK tone offsets, and a tight
  // guard so O(10^4) half-megabit channels fit.
  cfg.sim.freq_hz = 60.5e9;
  cfg.sim.band_low_hz = 57.0e9;
  cfg.sim.band_high_hz = 64.0e9;
  cfg.sim.node_vco.f_min_hz = 56.5e9;
  cfg.sim.node_vco.f_max_hz = 64.5e9;
  cfg.sim.init.guard_hz = 0.25e6;
  return cfg;
}

ScaleConfig make_overload_config(double oversubscription) {
  // NaN and inf fail no `<= 0` test, and llround() of either is garbage.
  if (!std::isfinite(oversubscription) || oversubscription <= 0.0)
    throw std::invalid_argument("make_overload_config: oversubscription must be finite and > 0");
  ScaleConfig cfg = make_scale_config(1);
  // A 70 MHz V-band slice: ~80 full-rate (0.5 Mb/s -> 625 kHz + guard)
  // channels. Population = oversubscription x that capacity, so at the
  // default 3x two thirds of the demand cannot be served at full rate.
  cfg.sim.band_low_hz = 57.0e9;
  cfg.sim.band_high_hz = 57.07e9;
  const double per_node_hz =
      cfg.node_rate_bps / cfg.sim.init.spectral_efficiency + cfg.sim.init.guard_hz;
  const double capacity =
      (cfg.sim.band_high_hz - cfg.sim.band_low_hz) / per_node_hz;
  cfg.nodes = static_cast<std::size_t>(std::llround(oversubscription * capacity));
  // Short, churn-heavy timeline: leaves punch holes the admission ladder
  // must reuse, which is what drives demotion and compaction.
  cfg.duration_s = 2.0;
  cfg.join_window_s = 0.5;
  cfg.churn_interval_s = 0.25;
  cfg.measure_interval_s = 0.0625;
  cfg.move_fraction = 0.01;
  cfg.leave_fraction = 0.03;
  cfg.sim.init.overload.enabled = true;
  cfg.sim.init.overload.min_rate_bps = cfg.node_rate_bps / 4.0;  // 125 kb/s floor
  cfg.sim.init.overload.shedding = true;
  cfg.high_priority_period = 7;  // every 7th thing joins at priority 2
  cfg.promote_every_rounds = 4;
  return cfg;
}

bool ScaleReport::operator==(const ScaleReport& o) const {
  return joins == o.joins && granted == o.granted && denied == o.denied &&
         leaves == o.leaves && moves == o.moves && blocker_updates == o.blocker_updates &&
         measure_rounds == o.measure_rounds && link_evals == o.link_evals &&
         arq.transmissions == o.arq.transmissions && arq.delivered == o.arq.delivered &&
         arq.gave_up == o.arq.gave_up && arq.duplicate_acks == o.arq.duplicate_acks &&
         faults == o.faults && overload == o.overload &&
         mean_snr_db == o.mean_snr_db && mean_joint_ber == o.mean_joint_ber &&
         mean_rate_bps == o.mean_rate_bps && delivery_ratio == o.delivery_ratio;
  // Cache traffic (cache_refills, cache.*), frame_evals, admission_work
  // and measure_wall_s are intentionally excluded: the cached and
  // uncached arms must agree on every simulated quantity, and only those
  // — cache counters are zero with the cache off, frame_evals and
  // admission_work count work rather than outcome, and timing is
  // machine-dependent.
}

namespace {

// Where a thing stands with the AP. Associated and Tracked hold a slot in
// the simulator (with and without a grant); Detached holds none (fresh,
// reaped, or escalated, awaiting its rejoin); Down is powered off by a
// fault (no slot, no timers).
enum class State : std::uint8_t { kAssociated, kTracked, kDetached, kDown };

// One thing and its per-node protocol state. Every stochastic choice it
// makes draws from its own counter-derived stream, so the sequence is
// independent of the other things and of thread count.
struct Thing {
  Thing(Rng r, double initial_rate_bps, mac::RateControlConfig rc,
        mac::ArqConfig arq_cfg, mac::BackoffConfig backoff_cfg)
      : rng(r), rate(initial_rate_bps, rc), arq(arq_cfg), backoff(backoff_cfg) {}

  bool holds_slot() const { return state == State::kAssociated || state == State::kTracked; }

  Rng rng;
  mac::RateController rate;
  mac::ArqSender arq;
  mac::RejoinBackoff backoff;
  channel::Pose pose{};
  std::uint16_t id = 0;
  std::uint16_t next_seq = 0;
  State state = State::kDetached;
  /// Outage bracket: set when connectivity is lost to a fault, cleared —
  /// and accounted — on the next successful grant.
  bool in_outage = false;
  std::uint64_t outage_start_round = 0;
  /// Measurement round before which retry pacing holds transmission
  /// (derived from the ARQ's backed-off ack wait). 0 = no gate.
  std::uint64_t next_tx_round = 0;
  int giveup_streak = 0;  ///< consecutive ARQ give-ups (escalation trigger)
  EventQueue::EventId rejoin_timer = EventQueue::kInvalidEvent;
  /// Latest AP deny backoff hint (0 unless overload control issued one):
  /// consumed by the next schedule_rejoin, which floors the backoff
  /// schedule with it.
  double hint_s = 0.0;
  /// Frame-success memo: the joint BER this thing's last frame was priced
  /// at and (1 - BER)^frame_bits for it. A poll whose BER compares equal
  /// reuses the price; NaN compares equal to nothing, so the first
  /// transmission always prices.
  double priced_ber = std::numeric_limits<double>::quiet_NaN();
  double priced_p_frame = 0.0;
};

}  // namespace

ScaleScenario::ScaleScenario(ScaleConfig cfg) : cfg_(std::move(cfg)) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("ScaleScenario: ") + what);
  };
  // NaN fails every comparison, so each test is phrased to fail on it.
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto fraction = [](double v) { return v >= 0.0 && v <= 1.0; };
  require(cfg_.nodes > 0, "nodes must be > 0");
  require(positive(cfg_.measure_interval_s), "measure_interval_s must be finite and > 0");
  require(positive(cfg_.churn_interval_s), "churn_interval_s must be finite and > 0");
  require(positive(cfg_.duration_s), "duration_s must be finite and > 0");
  require(positive(cfg_.node_rate_bps), "node_rate_bps must be finite and > 0");
  require(positive(cfg_.frame_bits), "frame_bits must be finite and > 0");
  require(std::isfinite(cfg_.join_window_s) && cfg_.join_window_s >= 0.0,
          "join_window_s must be finite and >= 0");
  require(fraction(cfg_.move_fraction), "move_fraction must lie in [0, 1]");
  require(fraction(cfg_.leave_fraction), "leave_fraction must lie in [0, 1]");
  // A polled thing is heard once per round, so a shorter reap timeout
  // would reclaim healthy grants every round. The reaper always runs, so
  // this holds for the disabled layer's default timeout too.
  const FaultConfig fc = cfg_.faults.enabled ? cfg_.faults : FaultConfig{};
  require(fc.reap_timeout_s > cfg_.measure_interval_s,
          "faults.reap_timeout_s must exceed measure_interval_s");
}

ScaleReport ScaleScenario::run(std::uint64_t seed) const {
  const ScaleConfig& c = cfg_;
  // A disabled fault layer is the zero-rate layer: an empty plan, no
  // per-frame fault draws, the default ARQ and backoff. Every fault path
  // below runs either way; at zero rates each is a no-op.
  const FaultConfig fc = c.faults.enabled ? c.faults : FaultConfig{};
  const mac::OverloadConfig& ov = c.sim.init.overload;
  const double margin_m = 0.5;  // keep poses off the walls

  channel::Room room(c.room_width_m, c.room_height_m);
  const channel::Pose ap{{c.room_width_m / 2.0, c.room_height_m / 2.0}, 0.0};

  SimConfig sim_cfg = c.sim;
  sim_cfg.link_cache = c.use_cache;
  NetworkSimulator sim(std::move(room), ap, sim_cfg);

  // Dedicated streams: 0 = crowd, 1 = churn decisions, 2+i = thing i. The
  // fault plan draws from its own derived domain (faults.cpp), so fault
  // events never perturb these streams.
  Rng crowd_rng = Rng::stream(seed, 0);
  Rng churn_rng = Rng::stream(seed, 1);
  channel::WalkingCrowd crowd(sim.room(), c.walkers, c.walker_speed_mps, crowd_rng);

  const mac::RateControlConfig rc{.min_rate_bps = c.node_rate_bps / 4.0,
                                  .max_rate_bps = c.node_rate_bps,
                                  .recovery_step_bps = c.node_rate_bps / 8.0};

  ScaleReport rep;
  std::vector<Thing> things;
  things.reserve(c.nodes);
  EventQueue q;

  // `id_to_thing` maps a live sim id back to its thing (index + 1; 0 =
  // unmapped) so AP-side reaping and re-tunes can find the owner;
  // `fade_depth` counts overlapping storms covering each thing.
  std::vector<std::uint32_t> id_to_thing;
  std::vector<std::uint16_t> fade_depth(c.nodes, 0);

  const auto random_pose = [&](Rng& rng) {
    const Vec2 p{rng.uniform(margin_m, c.room_width_m - margin_m),
                 rng.uniform(margin_m, c.room_height_m - margin_m)};
    // Face roughly at the AP — things are installed pointing at the hub.
    const double aim = (ap.position - p).angle() + rng.uniform(-0.3, 0.3);
    return channel::Pose{p, aim};
  };

  // Drop a thing's slot in the simulator; a no-op if it holds none.
  const auto unregister = [&](Thing& t) {
    if (!t.holds_slot()) return;
    id_to_thing[t.id] = 0;
    sim.remove_node(t.id);
    t.state = State::kDetached;
  };

  // Admission priority: every Nth thing (by join index) asks at priority
  // 2 so overload shedding has beneficiaries. Index-derived — no draws.
  const auto priority_of = [&](std::size_t idx) -> std::uint8_t {
    return (c.high_priority_period > 0 && idx % c.high_priority_period == 0)
               ? std::uint8_t{2}
               : std::uint8_t{1};
  };

  // Register `thing` at `pose`: channel request first, tracked (resident
  // but unassociated) fallback on deny. A grant ends any fault outage.
  const auto register_thing = [&](Thing& thing, std::size_t idx, const channel::Pose& pose) {
    ++rep.joins;
    MMX_OBS_COUNT("scale.joins", 1);
    thing.pose = pose;
    const NetworkSimulator::Admission adm =
        sim.admit(pose, c.node_rate_bps, priority_of(idx));
    thing.hint_s = adm.retry_after_s;
    if (adm.id) {
      thing.id = *adm.id;
      thing.state = State::kAssociated;
      ++rep.granted;
      MMX_OBS_COUNT("scale.granted", 1);
      // A demoted admission caps the AIMD controller at the granted
      // rate; retunes/promotions move the cap later.
      thing.rate.set_max_rate_bps(adm.granted_rate_bps);
    } else {
      thing.id = sim.add_tracked_node(pose);
      thing.state = State::kTracked;
      ++rep.denied;
      MMX_OBS_COUNT("scale.denied", 1);
    }
    if (thing.id >= id_to_thing.size()) id_to_thing.resize(thing.id + 1u, 0);
    id_to_thing[thing.id] = static_cast<std::uint32_t>(idx) + 1;
    if (thing.state != State::kAssociated) return;
    // Only a holder is noted. The reaper reclaims grants, and a tracked
    // id is never granted in place (every rejoin takes a fresh id), so an
    // un-noted tracked node costs the reaper no holder lookup.
    sim.note_activity(thing.id, q.now());
    thing.backoff.reset();
    thing.giveup_streak = 0;
    // Another path (churn retry, reaper rejoin) may have re-granted us
    // while a backoff timer was pending — retire it.
    if (thing.rejoin_timer != EventQueue::kInvalidEvent) {
      q.cancel(thing.rejoin_timer);
      thing.rejoin_timer = EventQueue::kInvalidEvent;
    }
    if (!thing.in_outage) return;
    thing.in_outage = false;
    ++rep.faults.recoveries;
    const std::uint64_t rounds = rep.measure_rounds - thing.outage_start_round;
    rep.faults.recovery_rounds_sum += rounds;
    MMX_OBS_RECORD("faults.time_to_recover_rounds", rounds);
  };

  // Re-acquisition with capped exponential backoff + deterministic jitter
  // (the thing's own stream): schedule_rejoin arms the timer,
  // attempt_rejoin runs the init protocol and re-arms on deny.
  std::function<void(std::size_t)> attempt_rejoin;
  const auto schedule_rejoin = [&](std::size_t idx) {
    Thing& t = things[idx];
    if (t.rejoin_timer != EventQueue::kInvalidEvent) return;  // already pending
    // The AP's deny hint floors the backoff schedule (the thing still
    // jitters it from its own stream).
    const double hint_s = std::exchange(t.hint_s, 0.0);
    const double delay_s = t.backoff.next_delay_s(t.rng, hint_s);
    t.rejoin_timer = q.schedule_in(delay_s, [&, idx] { attempt_rejoin(idx); });
  };

  // Every (re)join — the first, a churn leave, a churn retry, a backoff
  // timer — sheds whatever slot the thing holds and registers it afresh.
  // With overload control a denied joiner retries on its hint-floored
  // backoff timer; without it, on the churn retry scan.
  const auto rejoin = [&](std::size_t idx, channel::Pose pose) {
    Thing& t = things[idx];
    unregister(t);
    register_thing(t, idx, pose);
    if (ov.enabled && t.state != State::kAssociated) schedule_rejoin(idx);
  };
  attempt_rejoin = [&](std::size_t idx) {
    Thing& t = things[idx];
    t.rejoin_timer = EventQueue::kInvalidEvent;
    // Stale timer: powered off again, or re-granted through another path.
    if (t.state == State::kDown || t.state == State::kAssociated) return;
    ++rep.faults.rejoin_attempts;
    if (ov.enabled) ++rep.overload.backoff_retries;
    rejoin(idx, t.pose);
    if (t.state != State::kAssociated) schedule_rejoin(idx);  // denied: back off harder
  };

  // A fault cut thing `idx` off the AP (revocation, reap, escalation or
  // power-cycle); the caller has settled its slot in the simulator. Open
  // the outage, forget the id unless the thing stays tracked, and retry
  // unless it went dark.
  const auto lose_link = [&](std::size_t idx, State next) {
    Thing& t = things[idx];
    if (t.state == State::kAssociated && !t.in_outage) {
      t.in_outage = true;
      t.outage_start_round = rep.measure_rounds;
    }
    if (t.holds_slot() && next != State::kTracked) id_to_thing[t.id] = 0;
    t.state = next;
    if (next != State::kDown) schedule_rejoin(idx);
  };

  // Join storm: all things arrive spread over the join window.
  for (std::size_t i = 0; i < c.nodes; ++i) {
    const double t = c.join_window_s * static_cast<double>(i + 1) / static_cast<double>(c.nodes);
    q.schedule_at(t, [&, i] {
      Rng thing_rng = Rng::stream(seed, 2 + i);
      mac::ArqConfig arq_cfg = fc.arq;
      // Cheap node clocks drift: skew this node's ack wait once for life.
      if (fc.timeout_skew_frac > 0.0)
        arq_cfg.timeout_s *=
            thing_rng.uniform(1.0 - fc.timeout_skew_frac, 1.0 + fc.timeout_skew_frac);
      things.emplace_back(thing_rng, c.node_rate_bps, rc, arq_cfg, fc.rejoin_backoff);
      rejoin(things.size() - 1, random_pose(things.back().rng));
    });
  }

  // Arm the fault plan: storms fade a random slice of links, power-cycles
  // kill nodes silently (their grants become zombies the AP must reap),
  // revocations yank grants back. Victim choice draws from each event's
  // own plan-indexed stream, so it cannot perturb any other draw.
  FaultInjector injector{FaultPlan::compile(fc, c.duration_s, seed)};
  FaultHooks hooks;
  hooks.storm_begin = [&](Rng& rng, double fade_s) {
    ++rep.faults.storms;
    if (things.empty()) return;
    auto faded = std::make_shared<std::vector<std::uint32_t>>();
    for (std::size_t i = 0; i < things.size(); ++i) {
      if (rng.chance(fc.storm_fraction)) {
        ++fade_depth[i];
        faded->push_back(static_cast<std::uint32_t>(i));
      }
    }
    q.schedule_in(fade_s, [&, faded] {
      for (const std::uint32_t i : *faded) --fade_depth[i];
    });
  };
  hooks.power_cycle = [&](Rng& rng, double down_s) {
    if (things.empty()) return;
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(things.size()) - 1));
    Thing& t = things[idx];
    if (t.state == State::kDown) return;  // already dark
    ++rep.faults.power_cycles;
    if (t.rejoin_timer != EventQueue::kInvalidEvent) {
      q.cancel(t.rejoin_timer);
      t.rejoin_timer = EventQueue::kInvalidEvent;
    }
    // Silent death: no clean leave, so the AP keeps a holder's grant — a
    // zombie squatting on spectrum until reap_inactive() notices the
    // silence; the node reboots with no memory of the session and
    // rejoins as a fresh identity. A tracked thing just vanishes.
    if (t.state == State::kTracked) sim.remove_node(t.id);
    lose_link(idx, State::kDown);
    q.schedule_in(down_s, [&, idx] {
      things[idx].state = State::kDetached;
      attempt_rejoin(idx);
    });
  };
  hooks.revoke = [&](Rng& rng) {
    std::vector<std::uint32_t> candidates;
    for (std::size_t i = 0; i < things.size(); ++i)
      if (things[i].state == State::kAssociated)
        candidates.push_back(static_cast<std::uint32_t>(i));
    if (candidates.empty()) return;
    const std::size_t idx = candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(candidates.size()) - 1))];
    ++rep.faults.revocations;
    sim.revoke_grant(things[idx].id);
    lose_link(idx, State::kTracked);
  };
  injector.arm(q, std::move(hooks));

  // Churn ticks: crowd walks, a slice of things re-pose, a slice
  // power-cycles, and unassociated things retry the freed spectrum.
  // Scheduled before the measurement ticks so that at equal timestamps
  // the FIFO tie-break runs geometry changes first, measurements second.
  std::size_t retry_cursor = 0;
  std::uint64_t churn_tick = 0;
  for (double t = c.churn_interval_s; t <= c.duration_s; t += c.churn_interval_s) {
    q.schedule_at(t, [&] {
      MMX_OBS_SPAN("scale.churn_tick", churn_tick++);
      crowd.update(c.churn_interval_s, crowd_rng);
      ++rep.blocker_updates;
      if (things.empty()) return;

      const auto slice = [&](double frac) {
        return static_cast<std::size_t>(
            std::llround(frac * static_cast<double>(things.size())));
      };

      for (std::size_t k = 0; k < slice(c.move_fraction); ++k) {
        Thing& thing = things[static_cast<std::size_t>(
            churn_rng.uniform_int(0, static_cast<int>(things.size()) - 1))];
        const channel::Pose pose = random_pose(thing.rng);
        // A dark thing has no slot to move; the draws above still
        // happen, keeping the streams aligned across fault configs.
        if (!thing.holds_slot()) continue;
        sim.set_node_pose(thing.id, pose);
        thing.pose = pose;
        ++rep.moves;
        MMX_OBS_COUNT("scale.moves", 1);
      }

      const std::size_t n_leave = slice(c.leave_fraction);
      for (std::size_t k = 0; k < n_leave; ++k) {
        const auto victim = static_cast<std::size_t>(
            churn_rng.uniform_int(0, static_cast<int>(things.size()) - 1));
        Thing& thing = things[victim];
        if (!thing.holds_slot()) continue;  // already dark
        ++rep.leaves;
        MMX_OBS_COUNT("scale.leaves", 1);
        rejoin(victim, random_pose(thing.rng));  // power-cycle: rejoin
      }

      // Denied things retry as departures free spectrum. With overload
      // control every deny armed a hint-floored backoff timer, so the
      // round-robin scan would double-retry — it runs only without it.
      if (!ov.enabled) {
        std::size_t retries = n_leave;
        for (std::size_t scanned = 0; retries > 0 && scanned < things.size(); ++scanned) {
          const std::size_t ti = retry_cursor++ % things.size();
          if (things[ti].state != State::kTracked) continue;
          rejoin(ti, things[ti].pose);
          --retries;
          MMX_OBS_COUNT("scale.retries", 1);
        }
      }
    });
  }

  // Measurement ticks: the AP reaps dead residents, applies overload
  // re-tunes, refreshes stale cache entries in one batch, then polls
  // every resident link and runs each thing's ARQ + AIMD step.
  double snr_sum_db = 0.0;
  double ber_sum = 0.0;
  for (double t = c.measure_interval_s; t <= c.duration_s; t += c.measure_interval_s) {
    q.schedule_at(t, [&] {
      const auto t0 = std::chrono::steady_clock::now();
      ++rep.measure_rounds;
      MMX_OBS_SPAN("scale.measure_round", rep.measure_rounds);
      std::uint64_t round_timeouts = 0;

      // AP housekeeping: reclaim grants whose holders went silent. A
      // zombie (power-cycled holder) is already orphaned; a live thing
      // reaped for being quiet notices the lost beacon and rejoins.
      for (const std::uint16_t id : sim.reap_inactive(q.now(), fc.reap_timeout_s)) {
        ++rep.faults.reaped;
        const std::uint32_t slot = id_to_thing[id];
        if (slot == 0) continue;  // zombie: owner is gone
        lose_link(slot - 1, State::kDetached);
      }

      // Promotion pass: grow demoted grants back as spectrum frees. Then
      // apply re-tunes (compaction slides, shed shrinks, promotions) to
      // the affected things' AIMD caps. Serial, id-ordered per the
      // retune queue — deterministic at any refresh_threads. Both are
      // empty without overload control.
      if (c.promote_every_rounds > 0 && rep.measure_rounds % c.promote_every_rounds == 0)
        sim.promote_demoted();
      for (const mac::ChannelGrant& g : sim.drain_retunes()) {
        const std::uint32_t slot = id_to_thing[g.node_id];
        if (slot != 0)
          things[slot - 1].rate.set_max_rate_bps(
              g.channel.bandwidth_hz * c.sim.init.spectral_efficiency);
      }
      // The ladder gauges walk the whole allocator every round. With obs
      // on, that walk slows the 10^4-node fault-free lane by ~10%, far
      // past its < 2% enabled-cost budget (docs/OBSERVABILITY.md), so
      // only a run with overload control, whose ladder they show, pays it.
      if (ov.enabled) {
        const double band_hz = c.sim.band_high_hz - c.sim.band_low_hz;
        MMX_OBS_GAUGE_SET(
            "scale.overload.occupancy_pct",
            100.0 * (1.0 - sim.init().allocator().free_bandwidth_hz() / band_hz));
        MMX_OBS_GAUGE_SET("scale.overload.fragmentation_pct",
                          100.0 * sim.init().allocator().fragmentation());
      }

      rep.cache_refills += sim.refresh_cache(c.refresh_threads);
      for (std::size_t i = 0; i < things.size(); ++i) {
        Thing& thing = things[i];
        if (!thing.holds_slot()) continue;  // dark: nothing to poll
        const OtamLink l = sim.link(thing.id);
        ++rep.link_evals;
        snr_sum_db += l.snr_db;
        ber_sum += l.joint_ber;
        if (thing.state != State::kAssociated) continue;

        if (thing.arq.next_action() == mac::ArqSender::Action::kIdle)
          thing.arq.offer(thing.next_seq++);
        if (thing.arq.next_action() != mac::ArqSender::Action::kTransmit) continue;
        // Retry pacing: the backed-off ack wait holds retransmission for
        // whole measurement rounds, spreading retries past a storm.
        if (rep.measure_rounds < thing.next_tx_round) continue;
        thing.arq.on_transmitted();
        sim.note_activity(thing.id, q.now());
        if (l.joint_ber != thing.priced_ber) {
          thing.priced_ber = l.joint_ber;
          thing.priced_p_frame = std::pow(1.0 - l.joint_ber, c.frame_bits);
          ++rep.frame_evals;
        }
        double p_frame = thing.priced_p_frame;
        if (fade_depth[i] > 0) p_frame *= fc.storm_delivery_frac;
        const bool delivered = thing.rng.chance(p_frame);
        bool acked = delivered;
        if (acked && fc.ack_loss_frac > 0.0 && thing.rng.chance(fc.ack_loss_frac)) {
          acked = false;  // frame arrived; the ack never did
          ++rep.faults.acks_lost;
        }
        if (acked && fc.ack_corrupt_frac > 0.0 && thing.rng.chance(fc.ack_corrupt_frac)) {
          // The ack returns mangled: the sender sees a wrong-seq ack
          // (counted as a duplicate), discards it, and times out anyway.
          thing.arq.on_ack(static_cast<std::uint16_t>(thing.arq.current_seq() + 0x8000u));
          acked = false;
          ++rep.faults.acks_corrupted;
        }
        if (acked) {
          thing.arq.on_ack(thing.arq.current_seq());
          thing.rate.on_success();
          thing.giveup_streak = 0;
          thing.next_tx_round = 0;
          continue;
        }
        thing.arq.on_timeout();
        thing.rate.on_failure();
        ++round_timeouts;
        if (thing.arq.next_action() == mac::ArqSender::Action::kTransmit) {
          const double wait_s = thing.arq.current_timeout_s();
          thing.next_tx_round =
              rep.measure_rounds +
              std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                             std::llround(wait_s / c.measure_interval_s)));
          continue;
        }
        // Gave the payload up. A streak of give-ups means the link is
        // dead, not unlucky: escalate to a full re-acquisition.
        ++thing.giveup_streak;
        thing.next_tx_round = rep.measure_rounds + 1;
        if (fc.arq_giveups_to_rejoin > 0 && thing.giveup_streak >= fc.arq_giveups_to_rejoin) {
          ++rep.faults.escalations;
          sim.remove_node(thing.id);
          lose_link(i, State::kDetached);
        }
      }
      // Timeouts clustered per measurement round: the trace signal that
      // shows retry bursts following blocker moves (docs/OBSERVABILITY.md).
      MMX_OBS_SAMPLE("scale.retry_burst", rep.measure_rounds, round_timeouts);
      rep.measure_wall_s += std::chrono::duration<double>(
          std::chrono::steady_clock::now() - t0).count();
    });
  }

  q.run_until(c.duration_s);

  rep.cache = sim.cache_stats();
  double rate_sum_bps = 0.0;
  std::size_t rate_count = 0;
  std::uint64_t rate_backoffs = 0;
  for (const Thing& thing : things) {
    rep.arq.transmissions += thing.arq.stats().transmissions;
    rep.arq.delivered += thing.arq.stats().delivered;
    rep.arq.gave_up += thing.arq.stats().gave_up;
    rep.arq.duplicate_acks += thing.arq.stats().duplicate_acks;
    rate_backoffs += thing.rate.backoffs();
    if (thing.state == State::kAssociated) {
      rate_sum_bps += thing.rate.rate_bps();
      ++rate_count;
      // Final AIMD operating point per thing: the backoff histogram the
      // paper-scale lane exports (log2 buckets, so 125k/250k/500k bps
      // land in distinct bins).
      MMX_OBS_RECORD("scale.thing_rate_bps",
                     static_cast<std::uint64_t>(thing.rate.rate_bps()));
    }
  }
  // Hot-path stats reach the obs registry here, as one bulk add per run:
  // the per-event sites (cache lookups, ARQ frames, AIMD steps) run a
  // million-plus times per lane and would eat the <2% enabled-cost
  // budget if each mirrored its increment individually.
  rep.cache.publish_obs();
  rep.arq.publish_obs();
  rep.faults.publish_obs();
  MMX_OBS_COUNT("mac.rate.backoffs", rate_backoffs);
  if (rep.link_evals > 0) {
    rep.mean_snr_db = snr_sum_db / static_cast<double>(rep.link_evals);
    rep.mean_joint_ber = ber_sum / static_cast<double>(rep.link_evals);
  }
  if (rate_count > 0) rep.mean_rate_bps = rate_sum_bps / static_cast<double>(rate_count);
  rep.admission_work = sim.init().work();
  // The overload lane's report stays all-zero without overload control.
  if (ov.enabled) {
    const mac::OverloadStats& os = sim.init().overload_stats();
    rep.overload.demotions = os.demotions;
    rep.overload.shed_demotions = os.shed_demotions;
    rep.overload.promotions = os.promotions;
    rep.overload.compactions = os.compactions;
    rep.overload.retunes = os.retunes;
    rep.overload.hinted_denies = os.hinted_denies;
    rep.overload.hint_delay_sum_s = os.hint_delay_sum_s;
    rep.overload.invariant_violations = os.invariant_violations;
    // Admitted-vs-floor rate distribution over the final population.
    double min_rate_bps = 0.0;
    double admitted_rate_sum = 0.0;
    for (const Thing& thing : things) {
      if (thing.state != State::kAssociated) continue;
      const auto granted = sim.init().granted_rate_bps(thing.id);
      if (!granted) continue;
      ++rep.overload.admitted;
      admitted_rate_sum += *granted;
      if (rep.overload.admitted == 1 || *granted < min_rate_bps) min_rate_bps = *granted;
      if (*granted < c.node_rate_bps * (1.0 - 1e-9)) ++rep.overload.admitted_below_request;
    }
    if (rep.overload.admitted > 0) {
      rep.overload.min_admitted_rate_bps = min_rate_bps;
      rep.overload.mean_admitted_rate_bps =
          admitted_rate_sum / static_cast<double>(rep.overload.admitted);
    }
    MMX_OBS_GAUGE_SET("scale.overload.admitted", rep.overload.admitted);
    MMX_OBS_COUNT("scale.overload.backoff_retries", rep.overload.backoff_retries);
  }
  const std::uint64_t resolved = rep.arq.delivered + rep.arq.gave_up;
  if (resolved > 0)
    rep.delivery_ratio = static_cast<double>(rep.arq.delivered) / static_cast<double>(resolved);
  return rep;
}

}  // namespace mmx::sim
