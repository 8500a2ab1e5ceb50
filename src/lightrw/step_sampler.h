// One-step sampling shared by the LightRW engines: streams the current
// vertex's neighbors through the application weight updater into the
// k-lane parallel WRS sampler, exactly as the hardware pipeline does
// (Weight Updater -> WRS Sampler, k items per cycle).

#ifndef LIGHTRW_LIGHTRW_STEP_SAMPLER_H_
#define LIGHTRW_LIGHTRW_STEP_SAMPLER_H_

#include <cstddef>
#include <vector>

#include "apps/walk_app.h"
#include "common/check.h"
#include "graph/csr.h"
#include "rng/rng.h"

namespace lightrw::core {

using apps::WalkApp;
using apps::WalkState;
using graph::CsrGraph;
using graph::VertexId;
using graph::Weight;

// Reusable per-engine sampling unit. Not thread-safe.
class StepSampler {
 public:
  // Lane j of the PWRS draws from rng stream j. `rng` serves the
  // three-argument SampleNext; it may be null when every call names its
  // own generator. Any generator used must expose at least `parallelism`
  // streams and outlive the call.
  StepSampler(size_t parallelism, rng::ThunderingRng* rng);

  // Samples the next vertex of the walk in `state`. Returns
  // graph::kInvalidVertex if the current vertex has no sampleable neighbor
  // (zero degree or all dynamic weights zero).
  VertexId SampleNext(const CsrGraph& graph, const WalkApp& app,
                      const WalkState& state) {
    LIGHTRW_DCHECK(rng_ != nullptr);
    return SampleNext(graph, app, state, *rng_);
  }

  // The same step drawing from `rng`: one sampler, and so one weight
  // buffer, serves walkers that each own their streams.
  VertexId SampleNext(const CsrGraph& graph, const WalkApp& app,
                      const WalkState& state, rng::ThunderingRng& rng);

  size_t parallelism() const { return k_; }

 private:
  size_t k_;
  rng::ThunderingRng* rng_;
  // Dynamic weights of the current step, grown to the largest degree met.
  std::vector<Weight> weights_;
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_STEP_SAMPLER_H_
