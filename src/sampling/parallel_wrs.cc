#include "sampling/parallel_wrs.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LIGHTRW_PWRS_AVX512 1
#include <immintrin.h>
#endif

namespace lightrw::sampling {

namespace {

bool HostHasAvx512Kernel() {
#ifdef LIGHTRW_PWRS_AVX512
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
  }();
  return supported;
#else
  return false;
#endif
}

#ifdef LIGHTRW_PWRS_AVX512

// Lanes per kernel step: one 512-bit vector of 64-bit lanes.
constexpr size_t kVectorLanes = 8;
// Widest batch the kernel takes: its selected-lane mask is one word.
constexpr size_t kMaxKernelLanes = 64;
// The kernel's 64-bit Eq. (8) test is exact while every inclusive sum
// stays below 2^32 (then r * S + w < 2^64).
constexpr uint64_t kKernelSumLimit = uint64_t{1} << 32;

// GCC 12's AVX-512 intrinsics seed results with _mm512_undefined_*(),
// which -Wmaybe-uninitialized flags once inlined (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

using Rng = rng::ThunderingRng;

// Steps (a)-(c) of Alg. 4.1 for one batch of n <= 64 lanes, eight lanes
// per vector step. Returns false, having advanced no stream, when some
// inclusive sum would reach kKernelSumLimit. Otherwise advances exactly
// the nonzero-weight lanes' streams, sets *total to the batch sum and
// *selected to the mask of lanes whose Eq. (8) test passed.
__attribute__((target("avx512f,avx512dq,avx512vl"))) bool OfferBatchAvx512(
    const Weight* weights, size_t n, uint64_t weight_sum, Rng::LaneView lanes,
    uint64_t* total, uint64_t* selected) {
  constexpr size_t kMaxSteps = kMaxKernelLanes / kVectorLanes;
  const size_t steps = (n + kVectorLanes - 1) / kVectorLanes;
  __m512i weight[kMaxSteps];
  __m512i prefix[kMaxSteps];
  __mmask8 live[kMaxSteps];

  // (a) Inclusive prefix sums: a log-depth shift-and-add inside each
  // vector, plus the running total of the vectors before it. Lanes past
  // n load as weight 0.
  const __m512i zero = _mm512_setzero_si512();
  const __m512i last_lane = _mm512_set1_epi64(kVectorLanes - 1);
  __m512i carry = zero;
  for (size_t s = 0; s < steps; ++s) {
    const size_t lane = s * kVectorLanes;
    const size_t rest = std::min(n - lane, kVectorLanes);
    const __mmask8 in_range = static_cast<__mmask8>((1u << rest) - 1);
    const __m256i raw = _mm256_maskz_loadu_epi32(in_range, weights + lane);
    const __m512i w = _mm512_cvtepu32_epi64(raw);
    __m512i x = w;
    x = _mm512_add_epi64(x, _mm512_alignr_epi64(x, zero, 7));
    x = _mm512_add_epi64(x, _mm512_alignr_epi64(x, zero, 6));
    x = _mm512_add_epi64(x, _mm512_alignr_epi64(x, zero, 4));
    x = _mm512_add_epi64(x, carry);
    carry = _mm512_permutexvar_epi64(last_lane, x);
    weight[s] = w;
    prefix[s] = x;
    live[s] = _mm512_test_epi64_mask(w, w);
  }
  const uint64_t batch_total =
      static_cast<uint64_t>(_mm_cvtsi128_si64(_mm512_castsi512_si128(carry)));
  if (weight_sum >= kKernelSumLimit ||
      batch_total >= kKernelSumLimit - weight_sum) {
    return false;
  }

  // (b)-(c) Per lane: advance the shared LCG, store the state back for
  // nonzero lanes only (a zero-weight lane consumes no draw), decorrelate,
  // and test 2^32 * w > r * S + w in 64-bit arithmetic.
  const __m512i mul = _mm512_set1_epi64(Rng::kLcgMultiplier);
  const __m512i inc = _mm512_set1_epi64(Rng::kLcgIncrement);
  const __m512i sum_before = _mm512_set1_epi64(weight_sum);
  uint64_t chosen = 0;
  for (size_t s = 0; s < steps; ++s) {
    const size_t lane = s * kVectorLanes;
    const __mmask8 m = live[s];
    __m512i state = _mm512_maskz_loadu_epi64(m, lanes.states + lane);
    state = _mm512_add_epi64(_mm512_mullo_epi64(state, mul), inc);
    _mm512_mask_storeu_epi64(lanes.states + lane, m, state);
    const __m512i offset = _mm512_maskz_loadu_epi64(m, lanes.offsets + lane);
    const __m512i mult = _mm512_maskz_loadu_epi64(m, lanes.multipliers + lane);
    __m512i z = _mm512_xor_si512(state, offset);
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, Rng::kDecorrelateMixShift));
    z = _mm512_mullo_epi64(z, mult);
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, Rng::kDecorrelateFoldShift));
    // mul_epu32 multiplies the low 32 bits of each lane: r, and S < 2^32.
    const __m512i inclusive = _mm512_add_epi64(prefix[s], sum_before);
    const __m512i product = _mm512_mul_epu32(z, inclusive);
    const __m512i rhs = _mm512_add_epi64(product, weight[s]);
    const __m512i lhs = _mm512_slli_epi64(weight[s], 32);
    const __mmask8 pass = _mm512_mask_cmpgt_epu64_mask(m, lhs, rhs);
    chosen |= static_cast<uint64_t>(pass) << lane;
  }
  *total = batch_total;
  *selected = chosen;
  return true;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // LIGHTRW_PWRS_AVX512

}  // namespace

const char* PwrsKernelName() {
  return HostHasAvx512Kernel() ? "avx512" : "scalar";
}

ParallelWrsSampler::ParallelWrsSampler(size_t k, rng::ThunderingRng* rng,
                                       size_t stream_base)
    : k_(k),
      simd_(HostHasAvx512Kernel()),
      rng_(rng),
      stream_base_(stream_base) {
  LIGHTRW_CHECK(k >= 1);
  LIGHTRW_CHECK(rng != nullptr);
  LIGHTRW_CHECK(stream_base + k <= rng->num_streams());
}

void ParallelWrsSampler::OfferBatch(std::span<const Weight> weights,
                                    size_t base_index) {
#ifdef LIGHTRW_PWRS_AVX512
  const size_t n = weights.size();
  if (simd_ && n <= kMaxKernelLanes) {
    LIGHTRW_DCHECK(n >= 1 && n <= k_);
    uint64_t total = 0;
    uint64_t chosen = 0;
    if (OfferBatchAvx512(weights.data(), n, weight_sum_,
                         rng_->Lanes(stream_base_, n), &total, &chosen)) {
      // (d) The tree comparator: the highest selected lane wins.
      if (chosen != 0) {
        selected_ = base_index + std::bit_width(chosen) - 1;
      }
      weight_sum_ += total;
      ++batches_consumed_;
      return;
    }
  }
#endif
  OfferBatchReference(weights, base_index);
}

void ParallelWrsSampler::OfferBatchReference(std::span<const Weight> weights,
                                             size_t base_index) {
  LIGHTRW_DCHECK(!weights.empty());
  LIGHTRW_DCHECK(weights.size() <= k_);
  const size_t n = weights.size();

  // Steps (a)-(d) fused into one pass: the inclusive prefix sum of the
  // batch (log-depth in hardware, sequential here), each lane's
  // independent Eq. (8) test against its own random stream, and the
  // highest-selected-lane reduction ("the latest candidate replaces the
  // reservoir"). Zero-weight lanes are masked off and consume no random
  // number, exactly as before the fusion — the per-stream draw sequence
  // is part of the determinism contract.
  size_t selected_lane = kNoSample;
  uint64_t running = 0;
  for (size_t j = 0; j < n; ++j) {
    const Weight w = weights[j];
    running += w;
    if (w == 0) {
      continue;
    }
    const uint32_t r = rng_->Next(stream_base_ + j);
    if (WrsSelect(w, weight_sum_ + running, r)) {
      selected_lane = j;  // later lanes overwrite earlier ones
    }
  }
  if (selected_lane != kNoSample) {
    selected_ = base_index + selected_lane;
  }

  weight_sum_ += running;
  ++batches_consumed_;
}

size_t ParallelWrsSampler::SampleAll(std::span<const Weight> weights) {
  Reset();
  for (size_t offset = 0; offset < weights.size(); offset += k_) {
    const size_t n = std::min(k_, weights.size() - offset);
    OfferBatch(weights.subspan(offset, n), offset);
  }
  return selected_;
}

}  // namespace lightrw::sampling
