#include "lightrw/step_sampler.h"

#include <algorithm>
#include <span>

#include "sampling/sampler.h"

namespace lightrw::core {

StepSampler::StepSampler(size_t parallelism, rng::ThunderingRng* rng)
    : pwrs_(parallelism, rng), batch_(parallelism) {}

VertexId StepSampler::SampleNext(const CsrGraph& graph, const WalkApp& app,
                                 const WalkState& state) {
  const uint32_t degree = graph.Degree(state.curr);
  if (degree == 0) {
    return graph::kInvalidVertex;
  }
  const auto neighbors = graph.Neighbors(state.curr);
  const auto static_weights = graph.NeighborWeights(state.curr);
  const size_t k = batch_.size();

  pwrs_.Reset();
  if (app.has_static_weights()) {
    // Identity weight function: the WRS lanes consume the CSR weight
    // array directly — same weights, same draws, same selection as the
    // generic path, minus one virtual call and one copy per neighbor.
    for (uint32_t offset = 0; offset < degree; offset += k) {
      const uint32_t n =
          std::min<uint32_t>(static_cast<uint32_t>(k), degree - offset);
      pwrs_.OfferBatch(static_weights.subspan(offset, n), offset);
    }
  } else {
    // One weight-updater call per k-edge chunk, into the k-entry batch
    // buffer the lanes then consume.
    for (uint32_t offset = 0; offset < degree; offset += k) {
      const uint32_t n =
          std::min<uint32_t>(static_cast<uint32_t>(k), degree - offset);
      const std::span<Weight> batch(batch_.data(), n);
      app.DynamicWeights(graph, state, offset, batch);
      pwrs_.OfferBatch(batch, offset);
    }
  }
  const size_t picked = pwrs_.selected();
  return picked == sampling::kNoSample ? graph::kInvalidVertex
                                       : neighbors[picked];
}

}  // namespace lightrw::core
