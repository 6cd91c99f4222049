#include "mmx/common/rng.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace mmx {
namespace {

using StdMt = std::mt19937_64;  // mmx-analyze: allow(rng-discipline) -- oracle for the in-tree engine

// A 64-bit source replaying a fixed script, to drive the bounded-int
// method and the standard distribution down the same rejection path.
struct Script {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return words.at(next++); }
  std::vector<result_type> words;
  std::size_t next = 0;
};

// x with x * r == target (mod 2^64), for odd r: Newton's iteration for
// r's inverse doubles its correct low bits per step (3 -> 96).
std::uint64_t solve_mod_2_64(std::uint64_t r, std::uint64_t target) {
  std::uint64_t inv = r;
  for (int i = 0; i < 5; ++i) inv *= 2 - r * inv;
  return target * inv;
}

const std::uint64_t kSeeds[] = {0, 1, 4242, ~std::uint64_t{0}};

// Every scale-lane thing owns an Rng: the in-tree engine is no larger.
static_assert(sizeof(Mt19937_64) == sizeof(StdMt));

TEST(RngEngine, TenThousandthDrawFromSeed5489IsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
  EXPECT_EQ(Mt19937_64()(), Mt19937_64(5489)());
}

TEST(RngEngine, MatchesTheStandardEngineAcrossTwists) {
  // 1250 draws span four twists (a twist per 312 words).
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 engine(seed);
    StdMt oracle(seed);
    for (int i = 0; i < 1250; ++i) ASSERT_EQ(engine(), oracle()) << "seed " << seed << " draw " << i;
  }
}

// One Rng::uniform draw as the oracle engine gives it: the top 53 bits.
double oracle_uniform(StdMt& oracle) {
  return static_cast<double>(oracle() >> 11) * 0x1.0p-53;
}

// `rng` draws what `oracle` draws: 400 draws, then a mid-stream copy of
// each (which must carry the whole state), then 600 more from all four.
void expect_tracks(Rng rng, StdMt oracle, std::uint64_t label) {
  for (int i = 0; i < 400; ++i) ASSERT_EQ(rng.uniform(), oracle_uniform(oracle)) << label;
  Rng copy = rng;
  StdMt oracle_copy = oracle;
  for (int i = 0; i < 600; ++i) {
    ASSERT_EQ(rng.uniform(), oracle_uniform(oracle)) << label;
    ASSERT_EQ(copy.uniform(), oracle_uniform(oracle_copy)) << label;
  }
}

TEST(Rng, DrawsMatchTheStandardEngineIncludingAfterACopy) {
  for (const std::uint64_t seed : kSeeds) expect_tracks(Rng(seed), StdMt(seed), seed);
}

TEST(Rng, StreamsMatchTheStandardEngineSeededByDeriveSeed) {
  for (std::uint64_t i = 0; i < 64; ++i)
    expect_tracks(Rng::stream(4242, i), StdMt(Rng::derive_seed(4242, i)), i);
}

TEST(Rng, UniformIntMatchesTheStandardDistribution) {
  const std::pair<int, int> ranges[] = {{0, 0}, {-5, 5}, {0, 9999}, {INT_MIN, INT_MAX}};
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& [lo, hi] : ranges) {
      Rng rng(seed);
      StdMt oracle(seed);
      std::uniform_int_distribution<int> dist(lo, hi);
      for (int i = 0; i < 1250; ++i)
        ASSERT_EQ(rng.uniform_int(lo, hi), dist(oracle)) << seed << " [" << lo << ", " << hi << "]";
    }
    // Interleaved ranges and doubles consume the same draws as the oracle.
    Rng rng(seed);
    StdMt oracle(seed);
    for (int i = 0; i < 1250; ++i) {
      const auto& [lo, hi] = ranges[i % 4];
      ASSERT_EQ(rng.uniform_int(lo, hi), std::uniform_int_distribution<int>(lo, hi)(oracle));
      ASSERT_EQ(rng.uniform(), oracle_uniform(oracle));
    }
  }
}

TEST(Rng, BoundedRejectsExactlyWhereTheStandardDistributionDoes) {
  // Rejection needs a low product word below 2^64 mod range: about one
  // draw in 2^32 even for the widest int range, so random draws never
  // reach it. Scripted words put the low word on either side of the
  // threshold, then accept with the top word.
  for (const std::uint64_t range : {3ULL, 10001ULL, 2147483647ULL}) {
    const std::uint64_t threshold = (0 - range) % range;
    ASSERT_GT(threshold, 0u);
    const std::vector<std::uint64_t> words = {
        0,                                          // low 0: rejected
        solve_mod_2_64(range, threshold - 1),       // just below: rejected
        solve_mod_2_64(range, threshold),           // at the threshold: accepted
        ~std::uint64_t{0}};
    Script ours{words};
    Script theirs{words};
    std::uniform_int_distribution<int> dist(0, static_cast<int>(range - 1));
    EXPECT_EQ(Rng::bounded(ours, range), static_cast<std::uint64_t>(dist(theirs))) << range;
    EXPECT_EQ(ours.next, 3u) << range;
    EXPECT_EQ(theirs.next, 3u) << range;
    // The same two rejections before an accepting top word.
    Script ours_top{{0, words[1], ~std::uint64_t{0}}};
    Script theirs_top{ours_top.words};
    EXPECT_EQ(Rng::bounded(ours_top, range), range - 1);
    EXPECT_EQ(static_cast<std::uint64_t>(dist(theirs_top)), range - 1);
  }
}

TEST(Rng, UniformIntDrawsArePinned) {
  // Churn picks victims with uniform_int; these literals keep a library
  // or compiler change from moving a pick.
  Rng rng(4242);
  const int expected[] = {4128, 8359, 8139, 4746, 5296, 4872, 5834, 9428};
  for (const int want : expected) EXPECT_EQ(rng.uniform_int(0, 9999), want);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(0, 4);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
    saw_lo |= (v == 0);
    saw_hi |= (v == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(3);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(2.0, 1.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ChanceProbability) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, StreamsDecorrelate) {
  // A derived stream should not equal its root's stream, nor a sibling's.
  Rng root(5);
  Rng child = Rng::stream(5, 0);
  Rng sibling = Rng::stream(5, 1);
  int same_as_root = 0;
  int same_as_sibling = 0;
  for (int i = 0; i < 100; ++i) {
    const double c = child.uniform();
    if (root.uniform() == c) ++same_as_root;
    if (sibling.uniform() == c) ++same_as_sibling;
  }
  EXPECT_LT(same_as_root, 5);
  EXPECT_LT(same_as_sibling, 5);
}

}  // namespace
}  // namespace mmx
