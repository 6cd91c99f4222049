#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "mmx/channel/blockage.hpp"
#include "mmx/mac/rate_control.hpp"
#include "mmx/sim/event_queue.hpp"

// This file follows ScaleScenario::run (src/sim/scale_scenario.cpp)
// statement for statement, so the two can be read side by side. The
// differences are the spans, the counters the per-layer table needs, the
// dropped MMX_OBS_* sites, and one reordering inside a measurement round:
// every resident link is polled first, then every thing takes its MAC
// step. No MAC step changes another thing's residency or link, so the
// order does not change the report; the equality check proves it.

namespace perfbench {

using mmx::Rng;
using mmx::Vec2;
using mmx::channel::Pose;
using mmx::sim::EventQueue;
using mmx::sim::NetworkSimulator;
using mmx::sim::ScaleConfig;
using mmx::sim::ScaleReport;
using Span = Profiler::Span;
namespace mac = mmx::mac;
namespace sim = mmx::sim;

namespace {

// Per-thing state, identical to ScaleScenario's private Thing.
struct Thing {
  Thing(Rng r, double initial_rate_bps, mac::RateControlConfig rc, mac::ArqConfig arq_cfg,
        mac::BackoffConfig backoff_cfg)
      : rng(r), rate(initial_rate_bps, rc), arq(arq_cfg), backoff(backoff_cfg) {}

  Rng rng;
  mac::RateController rate;
  mac::ArqSender arq;
  mac::RejoinBackoff backoff;
  Pose pose{};
  std::uint16_t id = 0;
  std::uint16_t next_seq = 0;
  bool associated = false;
  bool resident = false;
  bool down = false;
  bool in_outage = false;
  std::uint64_t outage_start_round = 0;
  std::uint64_t next_tx_round = 0;
  int giveup_streak = 0;
  EventQueue::EventId rejoin_timer = EventQueue::kInvalidEvent;
  double hint_s = 0.0;
};

}  // namespace

TraceResult traced_replay(const ScaleConfig& c, std::uint64_t seed) {
  TraceResult res;
  Profiler prof;
  const auto wall_start = Profiler::Clock::now();

  const sim::FaultConfig& fc = c.faults;
  const mac::OverloadConfig& ov = c.sim.init.overload;
  const double margin_m = 0.5;

  mmx::channel::Room room(c.room_width_m, c.room_height_m);
  const Pose ap{{c.room_width_m / 2.0, c.room_height_m / 2.0}, 0.0};

  sim::SimConfig sim_cfg = c.sim;
  sim_cfg.link_cache = c.use_cache;
  NetworkSimulator sim(std::move(room), ap, sim_cfg);

  Rng crowd_rng = Rng::stream(seed, 0);
  Rng churn_rng = Rng::stream(seed, 1);
  mmx::channel::WalkingCrowd crowd(sim.room(), c.walkers, c.walker_speed_mps, crowd_rng);

  const mac::RateControlConfig rc{.min_rate_bps = c.node_rate_bps / 4.0,
                                  .max_rate_bps = c.node_rate_bps,
                                  .recovery_step_bps = c.node_rate_bps / 8.0};

  ScaleReport rep;
  std::vector<Thing> things;
  things.reserve(c.nodes);
  EventQueue q;

  std::vector<std::uint32_t> id_to_thing;
  std::vector<std::uint16_t> fade_depth(fc.enabled ? c.nodes : 0, 0);

  // --- Traced wrappers around each layer's public calls ----------------
  const auto count = [&](Layer l) { ++res.calls[static_cast<std::size_t>(l)]; };

  // Every handler runs inside a scenario span, so run_until's self time
  // is the queue's own cost. `round` handlers also log their wall.
  const auto handler = [&](auto fn, bool round) {
    return [&prof, &res, fn = std::move(fn), round]() mutable {
      prof.open(Layer::kScenario);
      fn();
      const double dur = prof.close();
      if (round) res.round_ms.push_back(dur * 1e3);
    };
  };
  const auto schedule_at = [&](double t, auto fn, bool round = false) {
    Span s(prof, Layer::kEventQueue);
    count(Layer::kEventQueue);
    return q.schedule_at(t, handler(std::move(fn), round));
  };
  const auto schedule_in = [&](double dt, auto fn) {
    Span s(prof, Layer::kEventQueue);
    count(Layer::kEventQueue);
    return q.schedule_in(dt, handler(std::move(fn), false));
  };
  const auto cancel = [&](EventQueue::EventId id) {
    Span s(prof, Layer::kEventQueue);
    count(Layer::kEventQueue);
    if (q.cancel(id)) ++res.cancels;
  };

  const auto note_id = [&](std::uint16_t id) {
    res.id_high_water = std::max<std::uint64_t>(res.id_high_water, id);
    res.live_peak = std::max<std::uint64_t>(res.live_peak, sim.num_nodes());
  };
  const auto admit = [&](const Pose& pose, std::uint8_t priority) {
    NetworkSimulator::Admission adm;
    {
      Span s(prof, Layer::kAdmission);
      adm = sim.admit(pose, c.node_rate_bps, priority);
    }
    count(Layer::kAdmission);
    ++res.admits;
    if (adm.id) {
      ++res.grants;
      if (sim.grant(*adm.id).sdm_harmonic != 0) ++res.sdm_grants;
      if (adm.granted_rate_bps < c.node_rate_bps * (1.0 - 1e-9)) ++res.demoted;
      note_id(*adm.id);
    }
    return adm;
  };
  const auto add_tracked = [&](const Pose& pose) {
    std::uint16_t id = 0;
    {
      Span s(prof, Layer::kAdmission);
      id = sim.add_tracked_node(pose);
    }
    count(Layer::kAdmission);
    note_id(id);
    return id;
  };
  const auto remove_node = [&](std::uint16_t id) {
    Span s(prof, Layer::kRelease);
    count(Layer::kRelease);
    sim.remove_node(id);
  };

  // --- Scenario, as in ScaleScenario::run ------------------------------
  const auto random_pose = [&](Rng& rng) {
    const Vec2 p{rng.uniform(margin_m, c.room_width_m - margin_m),
                 rng.uniform(margin_m, c.room_height_m - margin_m)};
    const double aim = (ap.position - p).angle() + rng.uniform(-0.3, 0.3);
    return Pose{p, aim};
  };

  const auto record_recovery = [&](Thing& t) {
    t.backoff.reset();
    t.giveup_streak = 0;
    if (!t.in_outage) return;
    t.in_outage = false;
    ++rep.faults.recoveries;
    rep.faults.recovery_rounds_sum += rep.measure_rounds - t.outage_start_round;
  };

  const auto begin_outage = [&](Thing& t) {
    if (t.in_outage) return;
    t.in_outage = true;
    t.outage_start_round = rep.measure_rounds;
  };

  const auto unregister = [&](Thing& t) {
    if (!t.resident) return;
    if (t.id < id_to_thing.size()) id_to_thing[t.id] = 0;
    remove_node(t.id);
    t.resident = false;
    t.associated = false;
  };

  const auto priority_of = [&](std::size_t idx) -> std::uint8_t {
    return (ov.enabled && c.high_priority_period > 0 && idx % c.high_priority_period == 0)
               ? std::uint8_t{2}
               : std::uint8_t{1};
  };

  const auto register_thing = [&](Thing& thing, std::size_t idx, const Pose& pose) {
    ++rep.joins;
    thing.pose = pose;
    const NetworkSimulator::Admission adm = admit(pose, priority_of(idx));
    if (adm.id) {
      thing.id = *adm.id;
      thing.associated = true;
      ++rep.granted;
      if (ov.enabled) {
        thing.hint_s = 0.0;
        thing.rate.set_max_rate_bps(adm.granted_rate_bps);
      }
    } else {
      thing.id = add_tracked(pose);
      thing.associated = false;
      ++rep.denied;
      if (ov.enabled) thing.hint_s = adm.retry_after_s;
    }
    thing.resident = true;
    if (!fc.enabled && !ov.enabled) return;
    if (thing.id >= id_to_thing.size()) id_to_thing.resize(thing.id + 1u, 0);
    id_to_thing[thing.id] = static_cast<std::uint32_t>(idx) + 1;
    if (fc.enabled) sim.note_activity(thing.id, q.now());
    if (thing.associated) {
      if (fc.enabled)
        record_recovery(thing);
      else
        thing.backoff.reset();
      if (thing.rejoin_timer != EventQueue::kInvalidEvent) {
        cancel(thing.rejoin_timer);
        thing.rejoin_timer = EventQueue::kInvalidEvent;
      }
    }
  };

  std::function<void(std::size_t)> attempt_rejoin;
  const auto schedule_rejoin = [&](std::size_t idx) {
    Thing& t = things[idx];
    if (t.rejoin_timer != EventQueue::kInvalidEvent) return;
    const double hint_s = std::exchange(t.hint_s, 0.0);
    const double delay_s = t.backoff.next_delay_s(t.rng, hint_s);
    t.rejoin_timer = schedule_in(delay_s, [&, idx] { attempt_rejoin(idx); });
  };
  attempt_rejoin = [&](std::size_t idx) {
    Thing& t = things[idx];
    t.rejoin_timer = EventQueue::kInvalidEvent;
    if (t.down || t.associated) return;
    ++rep.faults.rejoin_attempts;
    if (ov.enabled) ++rep.overload.backoff_retries;
    if (t.resident) unregister(t);
    register_thing(t, idx, t.pose);
    if (!t.associated) schedule_rejoin(idx);
  };

  // Join storm.
  for (std::size_t i = 0; i < c.nodes; ++i) {
    const double t = c.join_window_s * static_cast<double>(i + 1) / static_cast<double>(c.nodes);
    schedule_at(t, [&, i] {
      Rng thing_rng = Rng::stream(seed, 2 + i);
      mac::ArqConfig arq_cfg;
      mac::BackoffConfig backoff_cfg;
      if (fc.enabled) {
        arq_cfg = fc.arq;
        backoff_cfg = fc.rejoin_backoff;
        if (fc.timeout_skew_frac > 0.0)
          arq_cfg.timeout_s *=
              thing_rng.uniform(1.0 - fc.timeout_skew_frac, 1.0 + fc.timeout_skew_frac);
      }
      things.emplace_back(thing_rng, c.node_rate_bps, rc, arq_cfg, backoff_cfg);
      Thing& thing = things.back();
      register_thing(thing, things.size() - 1, random_pose(thing.rng));
      if (ov.enabled && !thing.associated) schedule_rejoin(things.size() - 1);
    });
  }

  // Fault plan. The injector schedules its own queue events; arming is
  // queue work, and each hook body runs as a scenario handler.
  sim::FaultInjector injector{sim::FaultPlan::compile(fc, c.duration_s, seed)};
  if (fc.enabled) {
    sim::FaultHooks hooks;
    hooks.storm_begin = [&](Rng& rng, double fade_s) {
      Span h(prof, Layer::kScenario);
      ++rep.faults.storms;
      if (things.empty()) return;
      auto faded = std::make_shared<std::vector<std::uint32_t>>();
      for (std::size_t i = 0; i < things.size(); ++i) {
        if (rng.chance(fc.storm_fraction)) {
          ++fade_depth[i];
          faded->push_back(static_cast<std::uint32_t>(i));
        }
      }
      schedule_in(fade_s, [&, faded] {
        for (const std::uint32_t i : *faded) --fade_depth[i];
      });
    };
    hooks.power_cycle = [&](Rng& rng, double down_s) {
      Span h(prof, Layer::kScenario);
      if (things.empty()) return;
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(things.size()) - 1));
      Thing& t = things[idx];
      if (t.down) return;
      ++rep.faults.power_cycles;
      t.down = true;
      if (t.rejoin_timer != EventQueue::kInvalidEvent) {
        cancel(t.rejoin_timer);
        t.rejoin_timer = EventQueue::kInvalidEvent;
      }
      if (t.associated) {
        begin_outage(t);
        if (t.id < id_to_thing.size()) id_to_thing[t.id] = 0;
        t.resident = false;
        t.associated = false;
      } else if (t.resident) {
        unregister(t);
      }
      schedule_in(down_s, [&, idx] {
        things[idx].down = false;
        attempt_rejoin(idx);
      });
    };
    hooks.revoke = [&](Rng& rng) {
      Span h(prof, Layer::kScenario);
      std::vector<std::uint32_t> candidates;
      for (std::size_t i = 0; i < things.size(); ++i)
        if (things[i].associated) candidates.push_back(static_cast<std::uint32_t>(i));
      if (candidates.empty()) return;
      const std::size_t idx = candidates[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(candidates.size()) - 1))];
      Thing& t = things[idx];
      ++rep.faults.revocations;
      {
        Span s(prof, Layer::kRelease);
        count(Layer::kRelease);
        sim.revoke_grant(t.id);
      }
      t.associated = false;
      begin_outage(t);
      schedule_rejoin(idx);
    };
    Span s(prof, Layer::kEventQueue);
    count(Layer::kEventQueue);
    injector.arm(q, std::move(hooks));
  }

  // Churn ticks.
  std::size_t retry_cursor = 0;
  for (double t = c.churn_interval_s; t <= c.duration_s; t += c.churn_interval_s) {
    schedule_at(t, [&] {
      {
        Span s(prof, Layer::kMutation);
        count(Layer::kMutation);
        crowd.update(c.churn_interval_s, crowd_rng);
      }
      ++rep.blocker_updates;
      if (things.empty()) return;

      const auto slice = [&](double frac) {
        return static_cast<std::size_t>(std::llround(frac * static_cast<double>(things.size())));
      };

      for (std::size_t k = 0; k < slice(c.move_fraction); ++k) {
        Thing& thing = things[static_cast<std::size_t>(
            churn_rng.uniform_int(0, static_cast<int>(things.size()) - 1))];
        const Pose pose = random_pose(thing.rng);
        if (fc.enabled && !thing.resident) continue;
        {
          Span s(prof, Layer::kMutation);
          count(Layer::kMutation);
          sim.set_node_pose(thing.id, pose);
        }
        thing.pose = pose;
        ++rep.moves;
      }

      const std::size_t n_leave = slice(c.leave_fraction);
      for (std::size_t k = 0; k < n_leave; ++k) {
        const auto victim = static_cast<std::size_t>(
            churn_rng.uniform_int(0, static_cast<int>(things.size()) - 1));
        Thing& thing = things[victim];
        if (fc.enabled && (thing.down || !thing.resident)) continue;
        if (fc.enabled) {
          unregister(thing);
        } else {
          if (thing.id < id_to_thing.size()) id_to_thing[thing.id] = 0;
          remove_node(thing.id);
        }
        ++rep.leaves;
        register_thing(thing, victim, random_pose(thing.rng));
        if (ov.enabled && !thing.associated) schedule_rejoin(victim);
      }

      if (!ov.enabled) {
        std::size_t retries = n_leave;
        for (std::size_t scanned = 0; retries > 0 && scanned < things.size(); ++scanned) {
          const std::size_t ti = retry_cursor++ % things.size();
          Thing& thing = things[ti];
          if (thing.associated) continue;
          if (fc.enabled && (thing.down || !thing.resident)) continue;
          const Pose pose = sim.node_pose(thing.id);
          if (fc.enabled) unregister(thing); else remove_node(thing.id);
          register_thing(thing, ti, pose);
          --retries;
        }
      }
    });
  }

  // Measurement ticks: links polled first, then the per-thing MAC steps.
  double snr_sum_db = 0.0;
  double ber_sum = 0.0;
  std::vector<double> round_ber;           // joint BER per thing, this round
  std::vector<std::uint8_t> round_polled;  // thing was resident at poll time
  for (double t = c.measure_interval_s; t <= c.duration_s; t += c.measure_interval_s) {
    schedule_at(
        t,
        [&] {
          ++rep.measure_rounds;

          if (fc.enabled) {
            std::vector<std::uint16_t> reaped;
            {
              Span s(prof, Layer::kRelease);
              count(Layer::kRelease);
              reaped = sim.reap_inactive(q.now(), fc.reap_timeout_s);
            }
            for (const std::uint16_t id : reaped) {
              ++rep.faults.reaped;
              const std::uint32_t slot = id < id_to_thing.size() ? id_to_thing[id] : 0;
              if (slot == 0) continue;
              Thing& th = things[slot - 1];
              id_to_thing[id] = 0;
              th.resident = false;
              if (th.associated) {
                th.associated = false;
                begin_outage(th);
              }
              if (!th.down) schedule_rejoin(slot - 1);
            }
          }

          if (ov.enabled) {
            if (c.promote_every_rounds > 0 && rep.measure_rounds % c.promote_every_rounds == 0) {
              Span s(prof, Layer::kLadder);
              count(Layer::kLadder);
              sim.promote_demoted();
            }
            std::vector<mac::ChannelGrant> retunes;
            {
              Span s(prof, Layer::kLadder);
              count(Layer::kLadder);
              retunes = sim.drain_retunes();
            }
            res.retunes += retunes.size();
            for (const mac::ChannelGrant& g : retunes) {
              const std::uint32_t slot =
                  g.node_id < id_to_thing.size() ? id_to_thing[g.node_id] : 0;
              if (slot != 0)
                things[slot - 1].rate.set_max_rate_bps(g.channel.bandwidth_hz *
                                                       c.sim.init.spectral_efficiency);
            }
          }

          {
            Span s(prof, Layer::kLinkCache);
            count(Layer::kLinkCache);
            const std::size_t refilled = sim.refresh_cache(c.refresh_threads);
            rep.cache_refills += refilled;
            res.refills += refilled;
          }

          round_ber.resize(things.size());
          round_polled.assign(things.size(), 0);
          {
            Span s(prof, Layer::kLink);
            for (std::size_t i = 0; i < things.size(); ++i) {
              const Thing& thing = things[i];
              if (fc.enabled && !thing.resident) continue;
              const sim::OtamLink l =
                  c.use_cache ? sim.link(thing.id) : sim.link_uncached(thing.id);
              ++rep.link_evals;
              count(Layer::kLink);
              snr_sum_db += l.snr_db;
              ber_sum += l.joint_ber;
              round_ber[i] = l.joint_ber;
              round_polled[i] = 1;
            }
          }

          Span s(prof, Layer::kThing);
          for (std::size_t i = 0; i < things.size(); ++i) {
            Thing& thing = things[i];
            if (round_polled[i] == 0 || !thing.associated) continue;
            count(Layer::kThing);

            if (thing.arq.next_action() == mac::ArqSender::Action::kIdle)
              thing.arq.offer(thing.next_seq++);
            if (thing.arq.next_action() != mac::ArqSender::Action::kTransmit) continue;
            if (fc.enabled && rep.measure_rounds < thing.next_tx_round) continue;
            thing.arq.on_transmitted();
            if (fc.enabled) sim.note_activity(thing.id, q.now());
            double p_frame = std::pow(1.0 - round_ber[i], c.frame_bits);
            if (fc.enabled && fade_depth[i] > 0) p_frame *= fc.storm_delivery_frac;
            const bool delivered = thing.rng.chance(p_frame);
            bool acked = delivered;
            if (acked && fc.ack_loss_frac > 0.0 && thing.rng.chance(fc.ack_loss_frac)) {
              acked = false;
              ++rep.faults.acks_lost;
            }
            if (acked && fc.ack_corrupt_frac > 0.0 && thing.rng.chance(fc.ack_corrupt_frac)) {
              thing.arq.on_ack(static_cast<std::uint16_t>(thing.arq.current_seq() + 0x8000u));
              acked = false;
              ++rep.faults.acks_corrupted;
            }
            if (acked) {
              thing.arq.on_ack(thing.arq.current_seq());
              thing.rate.on_success();
              thing.giveup_streak = 0;
              thing.next_tx_round = 0;
            } else {
              thing.arq.on_timeout();
              thing.rate.on_failure();
              const bool retransmit =
                  thing.arq.next_action() == mac::ArqSender::Action::kTransmit;
              if (retransmit) ++res.retx;
              if (fc.enabled) {
                if (retransmit) {
                  const double wait_s = thing.arq.current_timeout_s();
                  thing.next_tx_round =
                      rep.measure_rounds +
                      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(
                                                     wait_s / c.measure_interval_s)));
                } else {
                  ++thing.giveup_streak;
                  thing.next_tx_round = rep.measure_rounds + 1;
                  if (fc.arq_giveups_to_rejoin > 0 &&
                      thing.giveup_streak >= fc.arq_giveups_to_rejoin) {
                    ++rep.faults.escalations;
                    begin_outage(thing);
                    unregister(thing);
                    schedule_rejoin(i);
                  }
                }
              }
            }
          }
        },
        /*round=*/true);
  }

  {
    Span s(prof, Layer::kEventQueue);
    res.events = q.run_until(c.duration_s);
  }

  // Report assembly, as in ScaleScenario::run.
  rep.cache = sim.cache_stats();
  double rate_sum_bps = 0.0;
  std::size_t rate_count = 0;
  for (const Thing& thing : things) {
    rep.arq.transmissions += thing.arq.stats().transmissions;
    rep.arq.delivered += thing.arq.stats().delivered;
    rep.arq.gave_up += thing.arq.stats().gave_up;
    rep.arq.duplicate_acks += thing.arq.stats().duplicate_acks;
    if (thing.associated) {
      rate_sum_bps += thing.rate.rate_bps();
      ++rate_count;
    }
  }
  if (rep.link_evals > 0) {
    rep.mean_snr_db = snr_sum_db / static_cast<double>(rep.link_evals);
    rep.mean_joint_ber = ber_sum / static_cast<double>(rep.link_evals);
  }
  if (rate_count > 0) rep.mean_rate_bps = rate_sum_bps / static_cast<double>(rate_count);
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
    double min_rate_bps = 0.0;
    double admitted_rate_sum = 0.0;
    for (const Thing& thing : things) {
      if (!thing.associated) continue;
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
  }
  const std::uint64_t resolved = rep.arq.delivered + rep.arq.gave_up;
  if (resolved > 0)
    rep.delivery_ratio = static_cast<double>(rep.arq.delivered) / static_cast<double>(resolved);

  res.wall_s = std::chrono::duration<double>(Profiler::Clock::now() - wall_start).count();
  res.hit_rate = rep.cache.hit_rate();
  res.report = rep;
  for (std::size_t l = 0; l < res.self_s.size(); ++l) {
    res.self_s[l] = prof.self_s(static_cast<Layer>(l));
    res.span_s[l] = prof.span_s(static_cast<Layer>(l));
  }
  return res;
}

}  // namespace perfbench
