// Parallel weighted reservoir sampling — the paper's Algorithm 4.1.
//
// Consumes the weight stream in batches of k. For each batch it computes
// the inclusive prefix sum W_ps (Eq. 5 decomposition), tests every lane j
// independently with the Eq. (8) integer comparison against lane j's own
// random stream, takes the maximum selected lane index (the tree comparator
// of Fig. 4, step d), and accumulates the batch total into w_sum.
//
// The result is distributed identically to the sequential sampler: item i
// is finally selected with probability w_i / sum(w).
//
// OfferBatch runs the lanes of a batch eight at a time with AVX-512 when
// the host has it, and otherwise (or when a batch does not qualify) runs
// OfferBatchReference, the lane-by-lane loop. Both paths select the same
// item, accumulate the same sum, and leave every RNG stream in the same
// state; DESIGN.md "PWRS kernel" states the contract.

#ifndef LIGHTRW_SAMPLING_PARALLEL_WRS_H_
#define LIGHTRW_SAMPLING_PARALLEL_WRS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.h"
#include "sampling/sampler.h"

namespace lightrw::sampling {

// k-lane parallel WRS with a one-slot reservoir.
// Lane j draws from rng stream (stream_base + j).
class ParallelWrsSampler {
 public:
  // `rng` must provide at least stream_base + k streams and outlive this
  // object.
  ParallelWrsSampler(size_t k, rng::ThunderingRng* rng,
                     size_t stream_base = 0);

  size_t parallelism() const { return k_; }

  void Reset() {
    weight_sum_ = 0;
    selected_ = kNoSample;
    batches_consumed_ = 0;
  }

  // Offers the next batch of the stream. weights.size() must be in [1, k];
  // the final batch of a stream may be short, matching the hardware which
  // masks off inactive lanes. `base_index` is the stream index of
  // weights[0].
  void OfferBatch(std::span<const Weight> weights, size_t base_index);

  // OfferBatch on the scalar path, whatever the host supports: the
  // fallback and the differential oracle of the SIMD kernel.
  void OfferBatchReference(std::span<const Weight> weights,
                           size_t base_index);

  // True when OfferBatch may take the SIMD kernel (chosen once, at
  // construction, from the host CPU).
  bool simd_active() const { return simd_; }

  // Convenience: streams an entire weight sequence through OfferBatch.
  // Returns selected().
  size_t SampleAll(std::span<const Weight> weights);

  size_t selected() const { return selected_; }
  uint64_t weight_sum() const { return weight_sum_; }
  uint64_t batches_consumed() const { return batches_consumed_; }

 private:
  size_t k_;
  bool simd_;
  rng::ThunderingRng* rng_;
  size_t stream_base_;
  uint64_t weight_sum_ = 0;
  size_t selected_ = kNoSample;
  uint64_t batches_consumed_ = 0;
};

// "avx512" when this host runs the SIMD PWRS kernel, else "scalar".
const char* PwrsKernelName();

}  // namespace lightrw::sampling

#endif  // LIGHTRW_SAMPLING_PARALLEL_WRS_H_
