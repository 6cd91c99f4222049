// Trace spans and per-thread event buffers with a deterministic merge.
//
// A TraceEvent is (interned name, ordering key, kind, value, start/end
// timestamps). Each thread writes into its own fixed-capacity buffer —
// emission is a bounds check plus a struct store, never an allocation or
// a lock — and TraceSink::merged() interleaves the buffers afterwards by
// a stable sort on the *ordering key* the instrumentation site supplied
// (trial index, measure-round index), never on wall-clock time or
// thread identity. As long as all events for one key are emitted by one
// thread (true for SweepRunner trials and for the event-loop-driven
// scenarios), the merged sequence — names, keys, kinds, values, order —
// is bit-identical at any --threads; only the timestamps vary, and
// merged_digest() excludes them so tests can pin the invariant.
//
// Timestamps are steady-clock nanoseconds since the process trace epoch
// (first use). Buffers that fill up drop further events and count them;
// nothing ever blocks the simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mmx/obs/obs.hpp"

namespace mmx::obs {

enum class EventKind : std::uint8_t {
  kSpan = 0,     ///< duration [t0_ns, t1_ns] (chrome "X")
  kInstant = 1,  ///< point event at t0_ns (chrome "i")
  kSample = 2,   ///< counter sample `value` at t0_ns (chrome "C")
};

struct TraceEvent {
  std::uint32_t name_id = 0;  ///< index into TraceSink name table
  EventKind kind = EventKind::kSpan;
  std::uint64_t key = 0;    ///< deterministic ordering key (trial/round index)
  std::uint64_t value = 0;  ///< kSample payload; unused otherwise
  std::uint64_t t0_ns = 0;  ///< start (or instant) time, trace-epoch relative
  std::uint64_t t1_ns = 0;  ///< end time for kSpan; == t0_ns otherwise
};

/// Collects every thread's events. Buffer registration and merging are
/// mutex-guarded (cold); emission touches only this thread's buffer.
class TraceSink {
 public:
  static TraceSink& global();

  /// Intern `name`, returning its stable id. Cold path (macro statics).
  std::uint32_t intern(std::string_view name);
  const std::string& name(std::uint32_t id) const;

  /// Append an event to this thread's buffer (registering the buffer on
  /// first use). Drops and counts when the buffer is full.
  void emit(const TraceEvent& e);

  /// Steady-clock nanoseconds since the trace epoch.
  static std::uint64_t now_ns();

  /// All events, stable-sorted by ordering key (see file header). Each
  /// event is paired with the display id of the thread that emitted it.
  struct MergedEvent {
    TraceEvent event;
    std::uint32_t tid = 0;  ///< per-buffer display id; NOT deterministic
  };
  std::vector<MergedEvent> merged() const;

  /// FNV-1a over the merged sequence excluding timestamps and tids: the
  /// thread-count-invariance fingerprint.
  std::uint64_t merged_digest() const;

  /// Events dropped across all buffers (capacity exhausted).
  std::uint64_t dropped() const;

  /// Per-thread buffer capacity: applies to buffers registered after
  /// this call, and to existing buffers at the next clear().
  void set_buffer_capacity(std::size_t events);

  /// Discard all buffered events and drop counts (names stay interned).
  void clear();

 private:
  TraceSink() = default;
  struct Impl;
  Impl& impl() const;
};

/// One instrumentation site's identity: interned trace name plus the
/// histogram its span durations feed ("span.<name>.ns"). Constructed
/// once per site (function-local static in MMX_OBS_SPAN).
class SpanId {
 public:
  explicit SpanId(std::string_view name);
  std::uint32_t name_id() const { return name_id_; }
  Histogram& durations() const { return *durations_; }

 private:
  std::uint32_t name_id_;
  Histogram* durations_;  // owned by the global Registry
};

/// RAII span: records start on construction (when collection is enabled)
/// and on destruction emits a kSpan event plus a duration-histogram
/// sample. Disabled cost is one branch.
class ScopedTimer {
 public:
  ScopedTimer(const SpanId& id, std::uint64_t key)
      : id_(&id),
        key_(key),
        armed_(enabled()),
        t0_ns_(armed_ ? TraceSink::now_ns() : 0) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (!armed_) return;
    const std::uint64_t t1_ns = TraceSink::now_ns();
    id_->durations().record(t1_ns - t0_ns_);
    TraceSink::global().emit(
        {id_->name_id(), EventKind::kSpan, key_, /*value=*/0, t0_ns_, t1_ns});
  }

 private:
  const SpanId* id_;
  std::uint64_t key_;
  bool armed_;  // declared before t0_ns_: its init gates the clock read
  std::uint64_t t0_ns_;
};

/// Emit a kSample counter event (chrome "C" row): `value` at key `key`.
void emit_sample(const SpanId& id, std::uint64_t key, std::uint64_t value);

// A named RAII span covering the rest of the enclosing scope, keyed for
// the deterministic merge.
#define MMX_OBS_SPAN(name, key)                                               \
  static const ::mmx::obs::SpanId MMX_OBS_CAT(mmx_obs_sid_, __LINE__){name};  \
  const ::mmx::obs::ScopedTimer MMX_OBS_CAT(mmx_obs_span_, __LINE__)(         \
      MMX_OBS_CAT(mmx_obs_sid_, __LINE__), static_cast<std::uint64_t>(key))

// A counter-sample trace event (renders as a chrome://tracing counter
// track; the retry-burst lane in docs/OBSERVABILITY.md uses this).
#define MMX_OBS_SAMPLE(name, key, value)                                     \
  do {                                                                       \
    if (::mmx::obs::enabled()) {                                             \
      static const ::mmx::obs::SpanId MMX_OBS_CAT(mmx_obs_sid_, __LINE__){   \
          name};                                                             \
      ::mmx::obs::emit_sample(MMX_OBS_CAT(mmx_obs_sid_, __LINE__),           \
                              static_cast<std::uint64_t>(key),               \
                              static_cast<std::uint64_t>(value));            \
    }                                                                        \
  } while (0)

}  // namespace mmx::obs
