#include "sampling/parallel_wrs.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/cpu_features.h"

#ifdef LIGHTRW_AVX512_KERNELS
#include <immintrin.h>
#endif

namespace lightrw::sampling {

namespace {

#ifdef LIGHTRW_AVX512_KERNELS

// Lanes per vector: one 512-bit vector of 64-bit lanes.
constexpr size_t kVectorLanes = 8;
// Widest batch the kernel takes: its selected-lane mask is one word.
constexpr size_t kMaxKernelLanes = 64;
constexpr size_t kMaxVectors = kMaxKernelLanes / kVectorLanes;
// The kernel's 64-bit Eq. (8) test is exact while every inclusive sum
// stays below 2^32 (then r * S + w < 2^64).
constexpr uint64_t kKernelSumLimit = uint64_t{1} << 32;

// GCC 12's AVX-512 intrinsics seed results with _mm512_undefined_*(),
// which -Wmaybe-uninitialized and (in _mm512_castsi512_si128)
// -Wuninitialized flag once inlined (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

using Rng = rng::ThunderingRng;

// Mask of lanes [8v, min(lanes, 8v + 8)) within vector v.
inline __mmask8 VectorMask(size_t lanes, size_t v) {
  const size_t first = v * kVectorLanes;
  if (lanes <= first) {
    return 0;
  }
  const size_t count = std::min(lanes - first, kVectorLanes);
  return static_cast<__mmask8>((1u << count) - 1);
}

// Alg. 4.1 over a whole stream of n weights, offered as consecutive
// batches of k <= 8 * kVectors lanes (the last may be short). The lane
// states, decorrelator constants and prefix-sum carry stay in registers
// from the first batch to the last; the states are written back once.
// Returns false, having written nothing, when some inclusive sum would
// reach kKernelSumLimit. Otherwise sets *total to the stream sum and
// *picked to the highest selected stream index, or kNoSample.
template <size_t kVectors>
LIGHTRW_AVX512_TARGET bool StreamKernel(const Weight* weights, size_t n,
                                        size_t k, uint64_t weight_sum,
                                        Rng::LaneView lanes, uint64_t* total,
                                        size_t* picked) {
  __m512i state[kVectors];
  __m512i offset[kVectors];
  __m512i mult[kVectors];
#pragma GCC unroll 8
  for (size_t v = 0; v < kVectors; ++v) {
    const size_t lane = v * kVectorLanes;
    const __mmask8 m = VectorMask(k, v);
    state[v] = _mm512_maskz_loadu_epi64(m, lanes.states + lane);
    offset[v] = _mm512_maskz_loadu_epi64(m, lanes.offsets + lane);
    mult[v] = _mm512_maskz_loadu_epi64(m, lanes.multipliers + lane);
  }

  const __m512i zero = _mm512_setzero_si512();
  const __m512i last_lane = _mm512_set1_epi64(kVectorLanes - 1);
  const __m512i mul = _mm512_set1_epi64(Rng::kLcgMultiplier);
  const __m512i inc = _mm512_set1_epi64(Rng::kLcgIncrement);
  // Running inclusive sum, broadcast to every lane.
  __m512i carry = _mm512_set1_epi64(weight_sum);
  size_t best = kNoSample;
  for (size_t base = 0; base < n; base += k) {
    const size_t batch = std::min(k, n - base);
    uint64_t chosen = 0;
#pragma GCC unroll 8
    for (size_t v = 0; v < kVectors; ++v) {
      const __mmask8 in_range = VectorMask(batch, v);
      if (in_range == 0) {
        break;  // the rest of a short final batch is empty too
      }
      const __m256i raw = _mm256_maskz_loadu_epi32(
          in_range, weights + base + v * kVectorLanes);
      const __m512i w = _mm512_cvtepu32_epi64(raw);
      // (a) Inclusive prefix sum: a log-depth shift-and-add inside the
      // vector plus the carry of everything offered before it.
      __m512i x = w;
      x = _mm512_add_epi64(x, _mm512_alignr_epi64(x, zero, 7));
      x = _mm512_add_epi64(x, _mm512_alignr_epi64(x, zero, 6));
      x = _mm512_add_epi64(x, _mm512_alignr_epi64(x, zero, 4));
      const __m512i inclusive = _mm512_add_epi64(x, carry);
      carry = _mm512_add_epi64(carry, _mm512_permutexvar_epi64(last_lane, x));
      // (b) Advance the shared LCG; only nonzero-weight lanes keep the
      // new state (a zero-weight lane consumes no draw). Decorrelate.
      const __mmask8 live = _mm512_test_epi64_mask(w, w);
      const __m512i next =
          _mm512_add_epi64(_mm512_mullo_epi64(state[v], mul), inc);
      state[v] = _mm512_mask_mov_epi64(state[v], live, next);
      __m512i z = _mm512_xor_si512(next, offset[v]);
      z = _mm512_xor_si512(z, _mm512_srli_epi64(z, Rng::kDecorrelateMixShift));
      z = _mm512_mullo_epi64(z, mult[v]);
      z = _mm512_xor_si512(z, _mm512_srli_epi64(z, Rng::kDecorrelateFoldShift));
      // (c) 2^32 * w > r * S + w in 64-bit arithmetic; mul_epu32
      // multiplies the low 32 bits of each lane: r, and S < 2^32.
      const __m512i rhs = _mm512_add_epi64(_mm512_mul_epu32(z, inclusive), w);
      const __m512i lhs = _mm512_slli_epi64(w, 32);
      const __mmask8 pass = _mm512_mask_cmpgt_epu64_mask(live, lhs, rhs);
      chosen |= static_cast<uint64_t>(pass) << (v * kVectorLanes);
    }
    // (d) The tree comparator: the highest selected lane of the latest
    // batch with any selection wins.
    if (chosen != 0) {
      best = base + std::bit_width(chosen) - 1;
    }
  }

  // The carry only grows, so a final sum under the limit bounds every
  // inclusive sum the Eq. (8) tests saw.
  const uint64_t end_sum = static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm512_castsi512_si128(carry)));
  if (end_sum >= kKernelSumLimit) {
    return false;
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < kVectors; ++v) {
    _mm512_mask_storeu_epi64(lanes.states + v * kVectorLanes,
                             VectorMask(k, v), state[v]);
  }
  *total = end_sum - weight_sum;
  *picked = best;
  return true;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

using StreamKernelFn = bool (*)(const Weight*, size_t, size_t, uint64_t,
                                Rng::LaneView, uint64_t*, size_t*);

// StreamKernel<v + 1> at index v: the kernel for k in (8v, 8v + 8].
template <size_t... V>
constexpr std::array<StreamKernelFn, sizeof...(V)> MakeStreamKernels(
    std::index_sequence<V...>) {
  return {&StreamKernel<V + 1>...};
}
constexpr auto kStreamKernels =
    MakeStreamKernels(std::make_index_sequence<kMaxVectors>());

#endif  // LIGHTRW_AVX512_KERNELS

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

bool ParallelWrsSampler::OfferStream(
    [[maybe_unused]] std::span<const Weight> weights,
    [[maybe_unused]] size_t lanes, [[maybe_unused]] size_t base_index) {
#ifdef LIGHTRW_AVX512_KERNELS
  const size_t n = weights.size();
  // Past 2^32 - 1 weights the 64-bit carry itself could wrap.
  if (!simd_ || lanes == 0 || lanes > kMaxKernelLanes ||
      weight_sum_ >= kKernelSumLimit ||
      n > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  uint64_t total = 0;
  size_t picked = kNoSample;
  const StreamKernelFn kernel = kStreamKernels[(lanes - 1) / kVectorLanes];
  if (!kernel(weights.data(), n, lanes, weight_sum_,
              rng_->Lanes(stream_base_, lanes), &total, &picked)) {
    return false;
  }
  if (picked != kNoSample) {
    selected_ = base_index + picked;
  }
  weight_sum_ += total;
  batches_consumed_ += (n + lanes - 1) / lanes;
  return true;
#else
  return false;
#endif
}

void ParallelWrsSampler::OfferBatch(std::span<const Weight> weights,
                                    size_t base_index) {
  LIGHTRW_DCHECK(!weights.empty());
  LIGHTRW_DCHECK(weights.size() <= k_);
  if (!OfferStream(weights, weights.size(), base_index)) {
    OfferBatchReference(weights, base_index);
  }
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
  if (!OfferStream(weights, k_, 0)) {
    for (size_t offset = 0; offset < weights.size(); offset += k_) {
      const size_t n = std::min(k_, weights.size() - offset);
      OfferBatch(weights.subspan(offset, n), offset);
    }
  }
  return selected_;
}

}  // namespace lightrw::sampling
