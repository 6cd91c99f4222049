// Deterministic random-number utilities.
//
// All stochastic parts of the simulator draw from an explicitly seeded
// `Rng` so experiments are reproducible run-to-run; nothing in the library
// touches global random state.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace mmx {

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
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
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

  /// Fork an independent stream (e.g. one per node) without correlating
  /// draws with the parent.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  /// Counter-based seed derivation (splitmix64 of root + index*gamma):
  /// a pure function of (root_seed, index), touching no engine state.
  /// Stream `i` is therefore the same value no matter how many other
  /// streams exist, in what order they are created, or on which thread —
  /// the property parallel sweeps need for bit-identical results at any
  /// thread count (sequential fork() cannot give this: stream i would
  /// depend on the i-1 forks before it).
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
  std::mt19937_64 engine_;
  double spare_ = 0.0;      // second variate of the last Marsaglia pair
  bool have_spare_ = false;
};

}  // namespace mmx
