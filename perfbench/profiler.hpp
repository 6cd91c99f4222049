// Span stack for the traced replay: attributes host time to the layer
// whose public call is running, net of nested spans.
//
// A span is opened around a call into a layer (or around a batch of
// fine-grained calls) and closed when it returns. Its duration is added
// to its parent's child time, and its duration minus its own child time
// is the layer's self time. Event handlers are spans of the scenario glue
// layer, so the event queue's self time is run_until's wall minus the
// handlers it ran.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kAdmission,   ///< mac.admission: NetworkSimulator::admit, add_tracked_node
  kRelease,     ///< mac.release: remove_node, revoke_grant, reap_inactive
  kLadder,      ///< mac.ladder: promote_demoted, drain_retunes
  kMutation,    ///< channel.mutation: WalkingCrowd::update, set_node_pose
  kLinkCache,   ///< sim.link_cache: refresh_cache
  kLink,        ///< sim.link: link() polls, one span per round
  kThing,       ///< mac.thing: ARQ/AIMD/backoff steps, one span per round
  kEventQueue,  ///< sim.event_queue: run_until self time, schedule, cancel
  kScenario,    ///< scenario glue (event handlers, bookkeeping): not a layer
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)> kLayerNames = {
    "mac.admission", "mac.release", "mac.ladder", "channel.mutation", "sim.link_cache",
    "sim.link",      "mac.thing",   "sim.event_queue", "scenario"};

class Profiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// RAII span around one call (or one batch of calls) into a layer.
  class Span {
   public:
    Span(Profiler& p, Layer layer) : p_(p) { p_.open(layer); }
    ~Span() { p_.close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Profiler& p_;
  };

  void open(Layer layer) { stack_.push_back({layer, Clock::now(), 0.0}); }

  /// Close the innermost span; returns its inclusive duration in seconds.
  double close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = std::chrono::duration<double>(Clock::now() - f.start).count();
    const auto l = static_cast<std::size_t>(f.layer);
    self_s_[l] += dur - f.child_s;
    span_s_[l].push_back(dur);
    if (!stack_.empty()) stack_.back().child_s += dur;
    return dur;
  }

  double self_s(Layer layer) const { return self_s_[static_cast<std::size_t>(layer)]; }
  /// Inclusive duration of every closed span of `layer`, in close order.
  const std::vector<double>& span_s(Layer layer) const {
    return span_s_[static_cast<std::size_t>(layer)];
  }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };

  std::vector<Frame> stack_;
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_s_{};
  std::array<std::vector<double>, static_cast<std::size_t>(Layer::kCount)> span_s_{};
};

}  // namespace perfbench
