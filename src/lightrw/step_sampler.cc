#include "lightrw/step_sampler.h"

#include <span>

#include "common/check.h"
#include "sampling/parallel_wrs.h"
#include "sampling/sampler.h"

namespace lightrw::core {

StepSampler::StepSampler(size_t parallelism, rng::ThunderingRng* rng)
    : k_(parallelism), rng_(rng) {
  LIGHTRW_CHECK(parallelism >= 1);
}

VertexId StepSampler::SampleNext(const CsrGraph& graph, const WalkApp& app,
                                 const WalkState& state,
                                 rng::ThunderingRng& rng) {
  const uint32_t degree = graph.Degree(state.curr);
  if (degree == 0) {
    return graph::kInvalidVertex;
  }
  // Identity weight function: the WRS lanes consume the CSR weight array
  // directly. Otherwise one weight-updater call covers the whole
  // adjacency, and the lanes make one pass over its output.
  std::span<const Weight> weights = graph.NeighborWeights(state.curr);
  if (!app.has_static_weights()) {
    if (weights_.size() < degree) {
      weights_.resize(degree);
    }
    const std::span<Weight> dynamic(weights_.data(), degree);
    app.DynamicWeights(graph, state, 0, dynamic);
    weights = dynamic;
  }
  sampling::ParallelWrsSampler pwrs(k_, &rng);
  const size_t picked = pwrs.SampleAll(weights);
  return picked == sampling::kNoSample ? graph::kInvalidVertex
                                       : graph.Neighbors(state.curr)[picked];
}

}  // namespace lightrw::core
