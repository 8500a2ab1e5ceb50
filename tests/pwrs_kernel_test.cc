// Differential fuzz test of the PWRS sampler's SIMD kernel against
// OfferBatchReference. Three identically seeded generators feed one
// sampler each: one offers every k-weight batch through OfferBatch (the
// kernel over a one-batch stream), one offers each whole stream through
// SampleAll (the kernel over the whole stream), and one runs the
// reference loop. The batch twin must match the reference after every
// batch, the stream twin after every stream, and at the end every stream
// of the three generators must produce the same next 64 draws, which
// holds only if every stream state is equal.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "rng/rng.h"
#include "sampling/parallel_wrs.h"
#include "sampling/sampler.h"

namespace lightrw::sampling {
namespace {

constexpr Weight kMaxWeight = std::numeric_limits<Weight>::max();
// Streams beyond stream_base + k that no lane may touch.
constexpr size_t kGuardStreams = 3;
constexpr size_t kDrawsPerStream = 64;

using WeightStream = std::vector<Weight>;
using StreamMaker =
    std::function<WeightStream(rng::Xoshiro256StarStar&, size_t k)>;

// Offers `streams` (one Reset per stream) to the batch, stream and
// reference twins over three generators and checks they stay
// indistinguishable.
void ExpectPathsAgree(size_t k, size_t stream_base, uint64_t seed,
                      const std::vector<WeightStream>& streams) {
  const size_t num_streams = stream_base + k + kGuardStreams;
  rng::ThunderingRng fast_rng(num_streams, seed);
  rng::ThunderingRng stream_rng(num_streams, seed);
  rng::ThunderingRng ref_rng(num_streams, seed);
  ParallelWrsSampler fast(k, &fast_rng, stream_base);
  ParallelWrsSampler stream(k, &stream_rng, stream_base);
  ParallelWrsSampler ref(k, &ref_rng, stream_base);

  for (size_t s = 0; s < streams.size(); ++s) {
    const WeightStream& weights = streams[s];
    fast.Reset();
    ref.Reset();
    for (size_t offset = 0; offset < weights.size(); offset += k) {
      const size_t n = std::min(k, weights.size() - offset);
      const std::span<const Weight> batch(weights.data() + offset, n);
      fast.OfferBatch(batch, offset);
      ref.OfferBatchReference(batch, offset);
      ASSERT_EQ(fast.selected(), ref.selected())
          << "stream " << s << " offset " << offset;
      ASSERT_EQ(fast.weight_sum(), ref.weight_sum())
          << "stream " << s << " offset " << offset;
      ASSERT_EQ(fast.batches_consumed(), ref.batches_consumed())
          << "stream " << s << " offset " << offset;
    }
    ASSERT_EQ(stream.SampleAll(weights), ref.selected()) << "stream " << s;
    ASSERT_EQ(stream.selected(), ref.selected()) << "stream " << s;
    ASSERT_EQ(stream.weight_sum(), ref.weight_sum()) << "stream " << s;
    ASSERT_EQ(stream.batches_consumed(), ref.batches_consumed())
        << "stream " << s;
  }
  for (size_t i = 0; i < num_streams; ++i) {
    for (size_t d = 0; d < kDrawsPerStream; ++d) {
      const uint32_t want = ref_rng.Next(i);
      ASSERT_EQ(fast_rng.Next(i), want) << "rng stream " << i << " draw " << d;
      ASSERT_EQ(stream_rng.Next(i), want)
          << "rng stream " << i << " draw " << d;
    }
  }
}

// Runs `make` for several seeds at this k, with stream_base 0 and a
// nonzero stream_base.
void FuzzWith(size_t k, uint64_t family, const StreamMaker& make) {
  constexpr int kSeeds = 12;
  constexpr int kStreamsPerSeed = 4;
  for (int seed = 0; seed < kSeeds; ++seed) {
    rng::Xoshiro256StarStar gen(family * 1000003 + k * 101 + seed);
    std::vector<WeightStream> streams;
    for (int i = 0; i < kStreamsPerSeed; ++i) {
      streams.push_back(make(gen, k));
    }
    for (const size_t stream_base : {size_t{0}, size_t{5}}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " seed=" << seed
                                      << " stream_base=" << stream_base);
      ExpectPathsAgree(k, stream_base, 0x5eed0000 + seed, streams);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// A length that usually leaves a short final batch.
size_t RandomLength(rng::Xoshiro256StarStar& gen, size_t k) {
  return 1 + gen.NextBounded(5 * k + 40);
}

class PwrsKernelTest : public testing::TestWithParam<size_t> {};

TEST_P(PwrsKernelTest, SmallWeightsMatchReference) {
  // LiveJournal-like weights 1..16.
  FuzzWith(GetParam(), 1, [](rng::Xoshiro256StarStar& gen, size_t k) {
    WeightStream w(RandomLength(gen, k));
    for (Weight& x : w) {
      x = static_cast<Weight>(1 + gen.NextBounded(16));
    }
    return w;
  });
}

TEST_P(PwrsKernelTest, ZeroAndMixedZeroBatchesMatchReference) {
  // Per stream, a zero probability of 0, 1/2 or 1: all-zero streams,
  // MetaPath-like half-masked streams, and zero-free ones.
  FuzzWith(GetParam(), 2, [](rng::Xoshiro256StarStar& gen, size_t k) {
    const uint64_t zero_in_4 = 2 * gen.NextBounded(3);
    WeightStream w(RandomLength(gen, k));
    for (Weight& x : w) {
      x = gen.NextBounded(4) < zero_in_4
              ? 0
              : static_cast<Weight>(1 + gen.NextBounded(1000));
    }
    return w;
  });
}

TEST_P(PwrsKernelTest, RunningSumCrossing2To32MatchesReference) {
  // Weights of 2^22..2^27 push the running sum across 2^32 somewhere in
  // the middle of the stream, often in the middle of a batch.
  FuzzWith(GetParam(), 3, [](rng::Xoshiro256StarStar& gen, size_t k) {
    WeightStream w(k + 64 + gen.NextBounded(4 * k + 1100));
    const uint32_t shift = 22 + static_cast<uint32_t>(gen.NextBounded(6));
    for (Weight& x : w) {
      x = gen.NextBounded(8) == 0
              ? 0
              : static_cast<Weight>(gen.NextBounded(uint64_t{1} << shift));
    }
    return w;
  });
}

TEST_P(PwrsKernelTest, MaxWeightsNear2To64MatchReference) {
  // UINT32_MAX weights drive r * S + w to just below 2^64 while the sum
  // is still under 2^32, then far past it. The first batch sums to
  // exactly 2^32 - 1 or 2^32, the two sides of the kernel's sum limit.
  FuzzWith(GetParam(), 4, [](rng::Xoshiro256StarStar& gen, size_t k) {
    WeightStream w(RandomLength(gen, k));
    for (Weight& x : w) {
      const uint64_t pick = gen.NextBounded(3);
      x = pick == 0 ? 0 : pick == 1 ? kMaxWeight : kMaxWeight - 1;
    }
    const size_t first = std::min(k, w.size());
    std::fill(w.begin(), w.begin() + first, 0);
    if (gen.NextBounded(2) == 0 && first >= 2) {
      w[first - 2] = Weight{1} << 31;  // with the next lane: exactly 2^32
      w[first - 1] = Weight{1} << 31;
    } else {
      w[first - 1] = kMaxWeight;
    }
    return w;
  });
}

TEST_P(PwrsKernelTest, ShortAndEmptyStreamsMatchReference) {
  // Degree 0..7: an empty span, and streams shorter than one vector.
  FuzzWith(GetParam(), 6, [](rng::Xoshiro256StarStar& gen, size_t) {
    WeightStream w(gen.NextBounded(8));
    for (Weight& x : w) {
      x = static_cast<Weight>(gen.NextBounded(9));
    }
    return w;
  });
}

TEST_P(PwrsKernelTest, ZeroRunsMatchReference) {
  // All-zero streams, and runs of zeros long enough to blank whole
  // batches between live edges.
  FuzzWith(GetParam(), 7, [](rng::Xoshiro256StarStar& gen, size_t k) {
    WeightStream w(RandomLength(gen, k), 0);
    if (gen.NextBounded(4) == 0) {
      return w;
    }
    for (size_t i = 0; i < w.size();) {
      const size_t run = 1 + gen.NextBounded(3 * k);
      if (gen.NextBounded(2) == 0) {
        for (size_t j = i; j < std::min(w.size(), i + run); ++j) {
          w[j] = static_cast<Weight>(1 + gen.NextBounded(100));
        }
      }
      i += run;
    }
    return w;
  });
}

TEST_P(PwrsKernelTest, StreamSumCrossing2To32PerBatchMatchesReference) {
  // Small weights with one big edge whose inclusive sum reaches 2^32
  // (exactly, or past it) in the first, a middle or the last batch: the
  // whole-stream kernel must refuse the stream and the batched fallback
  // must still match lane for lane.
  FuzzWith(GetParam(), 8, [](rng::Xoshiro256StarStar& gen, size_t k) {
    WeightStream w(1 + gen.NextBounded(6 * k + 20));
    for (Weight& x : w) {
      x = static_cast<Weight>(1 + gen.NextBounded(16));
    }
    const size_t batches = (w.size() + k - 1) / k;
    const uint64_t where = gen.NextBounded(3);
    const size_t batch =
        where == 0 ? 0 : where == 1 ? batches / 2 : batches - 1;
    const size_t first = batch * k;
    const size_t i = first + gen.NextBounded(std::min(k, w.size() - first));
    uint64_t before = 0;
    for (size_t j = 0; j < i; ++j) {
      before += w[j];
    }
    w[i] = before != 0 && gen.NextBounded(2) == 0
               ? static_cast<Weight>((uint64_t{1} << 32) - before)
               : kMaxWeight;
    return w;
  });
}

TEST(PwrsKernelDispatchTest, SimdPathActive) {
  rng::ThunderingRng rng(8, 1);
  const ParallelWrsSampler sampler(8, &rng);
  if (!sampler.simd_active()) {
    EXPECT_STREQ(PwrsKernelName(), "scalar");
    GTEST_SKIP() << "host lacks AVX-512F/DQ/VL: the SIMD PWRS kernel was "
                    "not exercised, only the reference path";
  }
  EXPECT_STREQ(PwrsKernelName(), "avx512");
}

TEST(PwrsKernelDispatchTest, Parallelism128MatchesReference) {
  // Full 128-lane batches exceed the kernel's 64-lane mask and take the
  // reference path; short final batches of up to 64 lanes take the
  // kernel. Both must stay exact.
  FuzzWith(128, 5, [](rng::Xoshiro256StarStar& gen, size_t k) {
    WeightStream w(1 + gen.NextBounded(3 * k));
    for (Weight& x : w) {
      x = static_cast<Weight>(gen.NextBounded(17));
    }
    return w;
  });
}

// Multiplicative inverse of an odd word mod 2^64 (Newton iteration).
uint64_t InverseMod2To64(uint64_t a) {
  uint64_t inv = a;  // correct to 3 bits; each step doubles that
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - a * inv;
  }
  return inv;
}

// Rewinds `stream` so that its next draw is `r`: picks the decorrelator
// output word r (high half zero, so the fold leaves r), then inverts the
// odd multiply, the xorshift and the LCG step.
void ForceNextDraw(rng::ThunderingRng& rng, size_t stream, uint32_t r) {
  using Rng = rng::ThunderingRng;
  static_assert(Rng::kDecorrelateMixShift * 2 < 64);
  const Rng::LaneView lane = rng.Lanes(stream, 1);
  const uint64_t mixed = uint64_t{r} * InverseMod2To64(lane.multipliers[0]);
  const uint64_t x = mixed ^ (mixed >> Rng::kDecorrelateMixShift) ^
                     (mixed >> (2 * Rng::kDecorrelateMixShift));
  const uint64_t advanced = x ^ lane.offsets[0];
  lane.states[0] =
      (advanced - Rng::kLcgIncrement) * InverseMod2To64(Rng::kLcgMultiplier);
}

TEST(PwrsKernelEq8Test, ForceNextDrawYieldsTheRequestedDraw) {
  rng::ThunderingRng rng(4, 9);
  for (const uint32_t r : {0u, 1u, 1431655765u, kMaxWeight}) {
    ForceNextDraw(rng, 2, r);
    EXPECT_EQ(rng.Next(2), r);
  }
}

// Offers one k-lane batch whose lane `lane` draws `r`, on both paths,
// and returns the (equal) selection.
size_t OfferForced(size_t k, const WeightStream& batch, size_t lane,
                   uint32_t r) {
  rng::ThunderingRng fast_rng(k, 3);
  rng::ThunderingRng ref_rng(k, 3);
  ForceNextDraw(fast_rng, lane, r);
  ForceNextDraw(ref_rng, lane, r);
  ParallelWrsSampler fast(k, &fast_rng);
  ParallelWrsSampler ref(k, &ref_rng);
  fast.OfferBatch(batch, 0);
  ref.OfferBatchReference(batch, 0);
  EXPECT_EQ(fast.selected(), ref.selected());
  for (size_t stream = 0; stream < k; ++stream) {
    EXPECT_EQ(fast_rng.Next(stream), ref_rng.Next(stream));
  }
  return fast.selected();
}

// Eq. (8) is a strict inequality: 2^32 * w == r * S + w must not select.
// Random draws almost never hit the tie, so these cases force it.
TEST_P(PwrsKernelTest, Eq8TiesAreNotSelected) {
  const size_t k = GetParam();
  constexpr uint32_t kThird = kMaxWeight / 3;  // (2^32 - 1) / 3
  for (const size_t lane : {size_t{0}, k / 2, k - 1}) {
    SCOPED_TRACE(testing::Message() << "k=" << k << " lane=" << lane);
    WeightStream batch(k, 0);
    // Alone in the batch, S = w: the tie is r = 2^32 - 1.
    batch[lane] = 7;
    EXPECT_EQ(OfferForced(k, batch, lane, kMaxWeight), kNoSample);
    EXPECT_EQ(OfferForced(k, batch, lane, kMaxWeight - 1), lane);
    // The largest product the 64-bit test sees: S = w = 2^32 - 1.
    batch[lane] = kMaxWeight;
    EXPECT_EQ(OfferForced(k, batch, lane, kMaxWeight), kNoSample);
    EXPECT_EQ(OfferForced(k, batch, lane, kMaxWeight - 1), lane);
    if (lane == 0) {
      continue;
    }
    // After an earlier lane of weight 2w, S = 3w: the tie is r = kThird.
    batch[0] = 14;
    batch[lane] = 7;
    EXPECT_NE(OfferForced(k, batch, lane, kThird), lane);
    EXPECT_EQ(OfferForced(k, batch, lane, kThird - 1), lane);
  }
}

// 3 and 12 leave a partial vector in every batch; 65 is past the
// kernel's 64-lane limit, so every full batch takes the reference path.
INSTANTIATE_TEST_SUITE_P(Lanes, PwrsKernelTest,
                         testing::Values(1, 2, 3, 4, 8, 12, 16, 32, 64, 65));

}  // namespace
}  // namespace lightrw::sampling
