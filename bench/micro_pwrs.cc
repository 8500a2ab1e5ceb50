// Host-speed microbenchmark of the PWRS sampler kernel, one walk step
// per iteration: the scalar reference loop (OfferBatchReference per
// k-edge batch) against SampleAll, which streams the whole row through
// the AVX-512 kernel where the host has it, at k = 8..64 lanes.
//
// Two weight streams, each a pool of adjacency rows offered one row per
// walk step:
//   livejournal  weights 1..16, degree 207 (the LiveJournal stand-in's
//                mean examined edges per step);
//   metapath     the same rows with half the weights zeroed, as a
//                relation-masked MetaPath step produces.
//
// Run: ./build/bench/micro_pwrs [--benchmark_filter=...]
// items_per_second counts offered edges. Simulated results are not
// measured here; tests/pwrs_kernel_test.cc proves both paths identical.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.h"
#include "sampling/parallel_wrs.h"

namespace lightrw::bench {
namespace {

using sampling::ParallelWrsSampler;
using sampling::Weight;

constexpr size_t kDegree = 207;
constexpr size_t kRows = 256;

enum class Stream { kLiveJournal, kMetaPath };
enum class Path { kReference, kStream };

std::vector<Weight> MakeRows(Stream stream) {
  rng::Xoshiro256StarStar gen(0x9a7e);
  std::vector<Weight> weights(kDegree * kRows);
  for (Weight& w : weights) {
    w = static_cast<Weight>(1 + gen.NextBounded(16));
    if (stream == Stream::kMetaPath && gen.NextBounded(2) == 0) {
      w = 0;
    }
  }
  return weights;
}

void BM_Pwrs(benchmark::State& state, Stream stream, Path path) {
  const size_t k = static_cast<size_t>(state.range(0));
  const std::vector<Weight> weights = MakeRows(stream);
  rng::ThunderingRng rng(k, 1);
  ParallelWrsSampler sampler(k, &rng);
  size_t row = 0;
  for (auto _ : state) {
    const std::span<const Weight> offered(weights.data() + row * kDegree,
                                          kDegree);
    if (path == Path::kStream) {
      sampler.SampleAll(offered);
    } else {
      sampler.Reset();
      for (size_t offset = 0; offset < kDegree; offset += k) {
        sampler.OfferBatchReference(
            offered.subspan(offset, std::min(k, kDegree - offset)), offset);
      }
    }
    benchmark::DoNotOptimize(sampler.selected());
    row = row + 1 == kRows ? 0 : row + 1;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kDegree));
  state.SetLabel(path == Path::kReference ? "scalar"
                                          : sampling::PwrsKernelName());
}

BENCHMARK_CAPTURE(BM_Pwrs, livejournal_reference, Stream::kLiveJournal,
                  Path::kReference)
    ->RangeMultiplier(2)
    ->Range(8, 64);
BENCHMARK_CAPTURE(BM_Pwrs, livejournal_stream, Stream::kLiveJournal,
                  Path::kStream)
    ->RangeMultiplier(2)
    ->Range(8, 64);
BENCHMARK_CAPTURE(BM_Pwrs, metapath_reference, Stream::kMetaPath,
                  Path::kReference)
    ->RangeMultiplier(2)
    ->Range(8, 64);
BENCHMARK_CAPTURE(BM_Pwrs, metapath_stream, Stream::kMetaPath,
                  Path::kStream)
    ->RangeMultiplier(2)
    ->Range(8, 64);

}  // namespace
}  // namespace lightrw::bench

BENCHMARK_MAIN();
