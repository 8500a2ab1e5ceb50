#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rng/rng.h"
#include "rng/stat_tests.h"

namespace lightrw::rng {
namespace {

TEST(SplitMix64Test, DeterministicAndDistinct) {
  SplitMix64 a(1), b(1), c(2);
  const uint64_t a1 = a.Next();
  EXPECT_EQ(a1, b.Next());
  EXPECT_NE(a1, c.Next());
  EXPECT_NE(a1, a.Next());
}

TEST(XoshiroTest, Deterministic) {
  Xoshiro256StarStar a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(XoshiroTest, NextBoundedStaysInRange) {
  Xoshiro256StarStar gen(9);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(gen.NextBounded(bound), bound);
    }
  }
}

TEST(XoshiroTest, NextUnitInHalfOpenInterval) {
  Xoshiro256StarStar gen(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.NextUnit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(XoshiroTest, UniformityChiSquare) {
  Xoshiro256StarStar gen(77);
  std::vector<uint32_t> samples(100000);
  for (auto& s : samples) {
    s = gen.Next32();
  }
  const auto result = ChiSquareUniform32(samples, 64);
  EXPECT_GT(result.p_value, 1e-4) << "statistic=" << result.statistic;
}

TEST(XoshiroTest, NextBoundedUniformity) {
  Xoshiro256StarStar gen(31);
  constexpr uint64_t kBound = 7;
  std::vector<uint64_t> counts(kBound, 0);
  constexpr int kSamples = 70000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[gen.NextBounded(kBound)];
  }
  std::vector<double> expected(kBound, double{kSamples} / kBound);
  const auto result = ChiSquareTest(counts, expected);
  EXPECT_GT(result.p_value, 1e-4);
}

TEST(ThunderingRngTest, DeterministicPerSeed) {
  ThunderingRng a(4, 99), b(4, 99);
  for (int i = 0; i < 64; ++i) {
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(a.Next(s), b.Next(s));
    }
  }
  ThunderingRng fresh(4, 99), other_seed(4, 100);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    any_diff |= fresh.Next(0) != other_seed.Next(0);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ThunderingRngTest, StreamsAdvanceIndependently) {
  ThunderingRng rng(2, 5);
  // Drawing from stream 0 must not perturb stream 1's sequence.
  ThunderingRng reference(2, 5);
  std::vector<uint32_t> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(reference.Next(1));
  }
  for (int i = 0; i < 100; ++i) {
    rng.Next(0);
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng.Next(1), expected[i]);
  }
}

TEST(ThunderingRngTest, EachStreamUniform) {
  constexpr size_t kStreams = 8;
  ThunderingRng rng(kStreams, 2024);
  for (size_t s = 0; s < kStreams; ++s) {
    std::vector<uint32_t> samples(40000);
    for (auto& x : samples) {
      x = rng.Next(s);
    }
    const auto result = ChiSquareUniform32(samples, 32);
    EXPECT_GT(result.p_value, 1e-4) << "stream " << s;
  }
}

TEST(ThunderingRngTest, CrossStreamDecorrelation) {
  // The ThundeRiNG construction shares one LCG sequence; the per-stream
  // decorrelators must remove the cross-stream correlation.
  constexpr size_t kStreams = 8;
  constexpr size_t kSamples = 20000;
  ThunderingRng rng(kStreams, 7);
  std::vector<std::vector<uint32_t>> streams(kStreams,
                                             std::vector<uint32_t>(kSamples));
  for (size_t i = 0; i < kSamples; ++i) {
    for (size_t s = 0; s < kStreams; ++s) {
      streams[s][i] = rng.Next(s);
    }
  }
  for (size_t a = 0; a < kStreams; ++a) {
    for (size_t b = a + 1; b < kStreams; ++b) {
      const double corr = PearsonCorrelation32(streams[a], streams[b]);
      EXPECT_LT(std::abs(corr), 0.03)
          << "streams " << a << " and " << b << " correlate";
    }
  }
}

TEST(ThunderingRngTest, LowSerialCorrelation) {
  ThunderingRng rng(1, 11);
  std::vector<uint32_t> samples(50000);
  for (auto& x : samples) {
    x = rng.Next(0);
  }
  EXPECT_LT(std::abs(SerialCorrelation32(samples)), 0.02);
}

TEST(StatTestsTest, ChiSquareDetectsBias) {
  // Heavily biased counts must produce a tiny p-value.
  std::vector<uint64_t> observed = {900, 100};
  std::vector<double> expected = {500, 500};
  const auto result = ChiSquareTest(observed, expected);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(StatTestsTest, ChiSquareAcceptsExactMatch) {
  std::vector<uint64_t> observed = {500, 500};
  std::vector<double> expected = {500, 500};
  const auto result = ChiSquareTest(observed, expected);
  EXPECT_GT(result.p_value, 0.5);
}

TEST(StatTestsTest, PearsonOfIdenticalSequencesIsOne) {
  std::vector<uint32_t> a = {1u << 20, 2u << 20, 3u << 20, 4u << 20,
                             5u << 20};
  EXPECT_NEAR(PearsonCorrelation32(a, a), 1.0, 1e-9);
}

TEST(StatTestsTest, StdNormalUpperTail) {
  EXPECT_NEAR(StdNormalUpperTail(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalUpperTail(1.96), 0.025, 1e-3);
  EXPECT_LT(StdNormalUpperTail(6.0), 1e-8);
}

}  // namespace
}  // namespace lightrw::rng
