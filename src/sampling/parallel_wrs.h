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
// SampleAll streams a whole weight sequence through one AVX-512 kernel
// call when the host has it: the lane RNG states stay in registers from
// the first batch to the last. OfferBatch is the same kernel over a
// one-batch stream. Either falls back to OfferBatchReference, the
// lane-by-lane loop, when the input does not qualify. All paths select
// the same item, accumulate the same sum, and leave every RNG stream in
// the same state; DESIGN.md "PWRS kernel" states the contract.

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

  // True when OfferBatch and SampleAll may take the SIMD kernel (chosen
  // once, at construction, from the host CPU).
  bool simd_active() const { return simd_; }

  // Reset, then OfferBatch over every k-weight chunk of `weights` (the
  // per-step entry point), in one SIMD kernel call where it qualifies.
  // Returns selected().
  size_t SampleAll(std::span<const Weight> weights);

  size_t selected() const { return selected_; }
  uint64_t weight_sum() const { return weight_sum_; }
  uint64_t batches_consumed() const { return batches_consumed_; }

 private:
  // Offers `weights` through the SIMD kernel as consecutive batches of
  // `lanes` lanes, the first at stream index `base_index`. Returns false,
  // having changed nothing, when the kernel cannot take the stream
  // exactly (no AVX-512, lanes > 64, or a sum reaching 2^32).
  bool OfferStream(std::span<const Weight> weights, size_t lanes,
                   size_t base_index);

  size_t k_;
  bool simd_;
  rng::ThunderingRng* rng_;
  size_t stream_base_;
  uint64_t weight_sum_ = 0;
  size_t selected_ = kNoSample;
  uint64_t batches_consumed_ = 0;
};

// "avx512" when this host runs the SIMD PWRS kernel (and, by the same
// probe, Node2Vec's block merge), else "scalar".
const char* PwrsKernelName();

}  // namespace lightrw::sampling

#endif  // LIGHTRW_SAMPLING_PARALLEL_WRS_H_
