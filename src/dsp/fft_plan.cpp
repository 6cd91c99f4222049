#include "mmx/dsp/fft_plan.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "mmx/common/units.hpp"

namespace mmx::dsp {
namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");
  bitrev_.resize(n);
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }
  // One forward twiddle block per stage: stage `len` needs
  // w^k = e^{-2*pi*i*k/len} for k in [0, len/2). Each factor is computed
  // directly (not by recurrence), so the table is correctly rounded.
  twiddle_.reserve(n > 0 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -kTwoPi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double ph = ang * static_cast<double>(k);
      twiddle_.emplace_back(std::cos(ph), std::sin(ph));  // mmx-analyze: allow(trig-per-sample) -- one-time plan construction, amortized over every transform of this size
    }
  }
}

void FftPlan::transform(std::span<Complex> x, bool inverse) const {
  if (x.size() != n_) throw std::invalid_argument("FftPlan: span size does not match plan");
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  // __restrict: the butterfly stores write Complex and the twiddle reads
  // are Complex too, so without it the compiler must assume every store
  // may clobber the table and re-load/serialize — that alone costs ~2x.
  const Complex* __restrict tw = twiddle_.data();
  Complex* __restrict xp = x.data();
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const Complex w = inverse ? std::conj(tw[k]) : tw[k];
        const Complex u = xp[i + k];
        const Complex v = cmul(xp[i + k + half], w);
        xp[i + k] = u + v;
        xp[i + k + half] = u - v;
      }
    }
    tw += half;
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n_);
    for (Complex& s : x) s *= inv;
  }
}

void FftPlan::forward(std::span<Complex> x) const { transform(x, /*inverse=*/false); }
void FftPlan::inverse(std::span<Complex> x) const { transform(x, /*inverse=*/true); }

const FftPlan& fft_plan(std::size_t n) {
  if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");
  // Indexed by log2(n): at most ~64 slots, no hashing on the hot path.
  thread_local std::vector<std::unique_ptr<FftPlan>> cache;
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  if (cache.size() <= log2n) cache.resize(log2n + 1);
  if (!cache[log2n]) cache[log2n] = std::make_unique<FftPlan>(n);
  return *cache[log2n];
}

}  // namespace mmx::dsp
