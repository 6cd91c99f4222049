#include "mmx/sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

#include "mmx/obs/obs.hpp"

namespace mmx::sim {

EventQueue::EventId EventQueue::schedule_at(double t, Handler fn) {
  // Phrased to fail on NaN, which would break the heap's ordering.
  if (!(t >= now_)) throw std::invalid_argument("EventQueue: cannot schedule in the past");
  if (!fn) throw std::invalid_argument("EventQueue: null handler");
  const EventId id = next_id_++;
  live_.emplace(id, LiveEvent{std::move(fn), 0});
  queue_.push({t, seq_++, id, 0});
  MMX_OBS_COUNT("event_queue.scheduled", 1);
  MMX_OBS_GAUGE_SET("event_queue.depth", live_.size());
  return id;
}

EventQueue::EventId EventQueue::schedule_in(double dt, Handler fn) {
  return schedule_at(now_ + dt, std::move(fn));
}

bool EventQueue::cancel(EventId id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  live_.erase(it);  // heap entry becomes a tombstone, skipped at pop
  MMX_OBS_COUNT("event_queue.cancelled", 1);
  MMX_OBS_GAUGE_SET("event_queue.depth", live_.size());
  return true;
}

bool EventQueue::reschedule(EventId id, double t) {
  if (!(t >= now_)) throw std::invalid_argument("EventQueue: cannot reschedule into the past");
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  ++it->second.gen;  // the old heap entry is now stale
  queue_.push({t, seq_++, id, it->second.gen});
  MMX_OBS_COUNT("event_queue.rescheduled", 1);
  return true;
}

bool EventQueue::settle_top() {
  while (!queue_.empty()) {
    const QueueEntry& top = queue_.top();
    const auto it = live_.find(top.id);
    if (it != live_.end() && it->second.gen == top.gen) return true;
    queue_.pop();  // cancelled or superseded by a reschedule
  }
  return false;
}

std::size_t EventQueue::run_until(double t_end) {
  std::size_t executed = 0;
  while (settle_top() && queue_.top().time <= t_end) {
    const QueueEntry ev = queue_.top();
    queue_.pop();
    // Retire before running: the handler may cancel(ev.id) — a no-op by
    // then — or schedule fresh events under new ids.
    Handler fn = std::move(live_.at(ev.id).fn);
    live_.erase(ev.id);
    now_ = ev.time;
    fn();
    ++executed;
  }
  MMX_OBS_COUNT("event_queue.executed", executed);
  MMX_OBS_GAUGE_SET("event_queue.depth", live_.size());
  if (now_ < t_end) now_ = t_end;
  return executed;
}

std::size_t EventQueue::run_all() {
  std::size_t executed = 0;
  while (settle_top()) {
    const QueueEntry ev = queue_.top();
    queue_.pop();
    Handler fn = std::move(live_.at(ev.id).fn);
    live_.erase(ev.id);
    now_ = ev.time;
    fn();
    ++executed;
  }
  MMX_OBS_COUNT("event_queue.executed", executed);
  MMX_OBS_GAUGE_SET("event_queue.depth", 0);
  return executed;
}

}  // namespace mmx::sim
