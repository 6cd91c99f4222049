#include "mmx/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>

namespace mmx::obs {

namespace {

// Sized so the default scale lane (~76k refill spans, all on one thread
// when the refresh runs serially) fits in a single buffer with headroom;
// 5 MB per registered buffer. Deeper lanes drop-and-count, never grow.
constexpr std::size_t kDefaultCapacity = std::size_t{1} << 17;

struct Buffer {
  explicit Buffer(std::size_t capacity) { events.reserve(capacity); }
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

}  // namespace

struct TraceSink::Impl {
  mutable std::mutex mu;
  std::deque<std::string> names;        // id -> name; addresses stable
  std::deque<std::unique_ptr<Buffer>> buffers;  // owned here so they outlive their threads
  std::size_t capacity = kDefaultCapacity;

  Buffer& thread_buffer() {
    // One buffer per thread for the sink's lifetime; registration is the
    // only locked step on the emit path and runs once per thread.
    thread_local Buffer* tls = nullptr;
    if (tls == nullptr) {
      const std::lock_guard<std::mutex> lock(mu);
      buffers.push_back(std::make_unique<Buffer>(capacity));
      tls = buffers.back().get();
    }
    return *tls;
  }
};

TraceSink& TraceSink::global() {
  static TraceSink s;
  return s;
}

TraceSink::Impl& TraceSink::impl() const {
  static Impl impl;
  return impl;
}

std::uint32_t TraceSink::intern(std::string_view name) {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mu);
  for (std::size_t i = 0; i < im.names.size(); ++i)
    if (im.names[i] == name) return static_cast<std::uint32_t>(i);
  im.names.emplace_back(name);
  return static_cast<std::uint32_t>(im.names.size() - 1);
}

const std::string& TraceSink::name(std::uint32_t id) const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mu);
  static const std::string kUnknown = "<unknown>";
  return id < im.names.size() ? im.names[id] : kUnknown;
}

void TraceSink::emit(const TraceEvent& e) {
  Buffer& buf = impl().thread_buffer();
  if (buf.events.size() >= buf.events.capacity()) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(e);
}

std::uint64_t TraceSink::now_ns() {
  // Process-wide epoch at first use keeps timestamps small and uniform
  // across threads.
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

std::vector<TraceSink::MergedEvent> TraceSink::merged() const {
  Impl& im = impl();
  std::vector<MergedEvent> out;
  {
    const std::lock_guard<std::mutex> lock(im.mu);
    std::size_t total = 0;
    for (const auto& b : im.buffers) total += b->events.size();
    out.reserve(total);
    for (std::size_t tid = 0; tid < im.buffers.size(); ++tid)
      for (const TraceEvent& e : im.buffers[tid]->events)
        out.push_back({e, static_cast<std::uint32_t>(tid)});
  }
  // Stable sort on the ordering key only: events sharing a key come from
  // one thread (the contract in trace.hpp) and keep their emission
  // order, so the result is independent of buffer registration order.
  std::stable_sort(out.begin(), out.end(), [](const MergedEvent& a, const MergedEvent& b) {
    return a.event.key < b.event.key;
  });
  return out;
}

std::uint64_t TraceSink::merged_digest() const {
  // FNV-1a over (name, kind, key, value) in merged order — timestamps
  // and thread ids excluded, so equal digests mean an identical merged
  // event sequence.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const MergedEvent& m : merged()) {
    for (const char c : name(m.event.name_id)) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    mix(static_cast<std::uint64_t>(m.event.kind));
    mix(m.event.key);
    mix(m.event.value);
  }
  return h;
}

std::uint64_t TraceSink::dropped() const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mu);
  std::uint64_t n = 0;
  for (const auto& b : im.buffers) n += b->dropped;
  return n;
}

void TraceSink::set_buffer_capacity(std::size_t events) {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mu);
  im.capacity = events;
}

void TraceSink::clear() {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mu);
  for (auto& b : im.buffers) {
    // Re-reserve so a set_buffer_capacity() call takes effect for
    // already-registered buffers at the next run scope (the emit path
    // treats vector capacity as the drop threshold).
    b->events.clear();
    b->events.shrink_to_fit();
    b->events.reserve(im.capacity);
    b->dropped = 0;
  }
}

SpanId::SpanId(std::string_view name)
    : name_id_(TraceSink::global().intern(name)),
      durations_(&Registry::global().histogram("span." + std::string(name) + ".ns")) {}

void emit_sample(const SpanId& id, std::uint64_t key, std::uint64_t value) {
  const std::uint64_t t = TraceSink::now_ns();
  TraceSink::global().emit({id.name_id(), EventKind::kSample, key, value, t, t});
}

}  // namespace mmx::obs
