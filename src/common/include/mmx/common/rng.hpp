// Deterministic random-number utilities.
//
// All stochastic parts of the simulator draw from an explicitly seeded
// `Rng` so experiments are reproducible run-to-run; nothing in the library
// touches global random state.
//
// The engine (MT19937-64) and the bounded-integer method are written out
// here rather than taken from <random>, so a stream is specified by this
// file alone and does not depend on the standard library. They draw the
// same values as std::mt19937_64 (whose output the standard specifies)
// and as libstdc++ 12's std::uniform_int_distribution<int> on it;
// tests/common/rng_test.cpp checks both against the standard library and
// pins first draws as literals.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace mmx {

/// MT19937-64 (Matsumoto & Nishimura), with the parameters and seeding
/// the C++ standard specifies for std::mt19937_64: the same 312-word
/// state and the same output, bit for bit. The twist is branchless (the
/// conditional xor of `a` is a mask), which is what makes it cheaper per
/// draw than libstdc++'s.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed = 5489) {
    x_[0] = seed;
    for (std::size_t k = 1; k < kN; ++k) x_[k] = kF * (x_[k - 1] ^ (x_[k - 1] >> 62)) + k;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ >= kN) twist();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kF = 6364136223846793005ULL;
  static constexpr result_type kUpper = ~result_type{0} << 31;  // top 33 bits
  static constexpr result_type kLower = ~kUpper;

  static result_type mix(result_type hi, result_type lo, result_type far) {
    const result_type y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
  }

  // Regenerate all kN words in place. From k = kN - kM on, the far term
  // wraps to the front of the array (k + kM - kN), already regenerated.
  void twist() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = mix(x_[kN - 1], x_[0], x_[kM - 1]);
    p_ = 0;
  }

  std::array<result_type, kN> x_;  // every word set by the constructor
  std::size_t p_ = kN;              // next word to temper; kN: twist first
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x6d6d5821ULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  ///
  /// Top 53 bits of one engine draw scaled by 2^-53 — the same value
  /// grid as std::generate_canonical but without its per-draw floating
  /// divide, which dominates AWGN synthesis cost.
  double uniform(double lo = 0.0, double hi = 1.0) {
    const double u = static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    return lo + u * (hi - lo);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    const std::uint64_t range = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    // Modular, as libstdc++ adds the offset back: the sum's low 32 bits.
    return static_cast<int>(bounded(engine_, range) + static_cast<std::uint64_t>(lo));
  }

  /// Uniform integer in [0, range), range >= 1, from full-width 64-bit
  /// draws: Lemire's multiply-shift with rejection ("Fast random integer
  /// generation in an interval", ACM TOMACS 29(1), 2019), written as
  /// libstdc++ 12 writes it for a 64-bit engine, so it consumes the same
  /// draws and returns the same value. A low product word is rejected
  /// only below 2^64 mod range (< range), so that modulo is taken only
  /// when the word falls below `range`.
  template <class Draw>
  static std::uint64_t bounded(Draw& draw, std::uint64_t range) {
    unsigned __int128 product = static_cast<unsigned __int128>(draw()) * range;
    auto low = static_cast<std::uint64_t>(product);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(draw()) * range;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Gaussian with the given standard deviation and mean.
  ///
  /// Marsaglia polar method with the second variate of each pair cached:
  /// AWGN synthesis draws one Gaussian per I/Q component, so a
  /// per-call `std::normal_distribution` temporary (which must discard
  /// its spare) would do every rejection loop and log/sqrt twice. The
  /// cached spare is scaled by the sigma/mean of the call that consumes
  /// it, so interleaved sigmas stay correct.
  double gaussian(double sigma = 1.0, double mean = 0.0) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + sigma * spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return mean + sigma * u * m;
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Counter-based seed derivation (splitmix64 of root + index*gamma):
  /// a pure function of (root_seed, index), touching no engine state.
  /// Stream `i` is therefore the same value no matter how many other
  /// streams exist, in what order they are created, or on which thread —
  /// the property parallel sweeps need for bit-identical results at any
  /// thread count (a stream forked from a parent's draws cannot give
  /// this: stream i would depend on the i-1 forks before it).
  static std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t index) {
    std::uint64_t z = root_seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// The `index`-th independent stream of `root_seed` (see derive_seed).
  static Rng stream(std::uint64_t root_seed, std::uint64_t index) {
    return Rng(derive_seed(root_seed, index));
  }

 private:
  Mt19937_64 engine_;
  double spare_ = 0.0;      // second variate of the last Marsaglia pair
  bool have_spare_ = false;
};

}  // namespace mmx
