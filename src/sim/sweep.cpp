#include "mmx/sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "mmx/sim/stats.hpp"

namespace mmx::sim {

MetricSummary summarize(std::string name, const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("summarize: empty sample");
  MetricSummary s;
  s.name = std::move(name);
  s.count = samples.size();
  s.mean = mean(samples);
  s.median = median(samples);
  s.p10 = percentile(samples, 10.0);
  s.p90 = percentile(samples, 90.0);
  s.min = min_of(samples);
  s.max = max_of(samples);
  return s;
}

namespace {
std::size_t resolve_threads(std::size_t threads) {
  return threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

SweepRunner::SweepRunner(SweepConfig config)
    : config_(config), threads_(resolve_threads(config.threads)) {}

std::uint64_t SweepRunner::next_trace_run() {
  static std::atomic<std::uint64_t> gen{0};
  return gen.fetch_add(1, std::memory_order_relaxed);
}

void for_each_chunk(std::size_t count, std::size_t threads,
                    const std::function<void(std::size_t, std::size_t)>& body) {
  threads = resolve_threads(threads);
  if (threads <= 1 || count <= 1) {
    body(0, count);
    return;
  }
  // Contiguous chunks (~8 per worker) amortize the counter traffic for
  // microsecond-scale trials while leaving enough chunks to even out
  // uneven trial costs. Dividing twice equals count / (threads * 8)
  // without the product's overflow. Chunking cannot change results:
  // trial i still draws from stream i and writes slot i whichever worker
  // claims its chunk.
  const std::size_t chunk = std::max<std::size_t>(1, count / threads / 8);
  const std::size_t chunks = count / chunk + (count % chunk != 0 ? 1 : 0);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (std::size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      try {
        body(c * chunk, std::min(count, (c + 1) * chunk));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const std::size_t workers = std::min(threads, chunks);
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  try {
    while (helpers.size() + 1 < workers) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Fewer helpers only costs parallelism: the calling thread below
    // still drains every chunk the others leave.
  }
  work();
  for (std::thread& t : helpers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mmx::sim
