// Per-layer host-time attribution by replay.
//
// A run's paths determine every call it made into the layers below the
// event loop: each expansion of a walk (a visited vertex and the vertex
// before it) was one row lookup through the degree-aware cache, one
// adjacency fetch through the burst engine (plus Node2Vec's re-fetch of
// an oversized previous adjacency), one StepSampler::SampleNext, which
// fed the adjacency through WalkApp::DynamicWeight (dynamic apps only)
// into ParallelWrsSampler::OfferBatch, which drew one RNG number per
// nonzero-weight lane. The replay rebuilds that expansion list and calls
// each layer's public entry point on it, in spans, to get host
// nanoseconds per operation.
//
// For the engine workloads the replayed operation counts must equal the
// run's own counters (steps, edges examined, cache lookups, burst
// requests and bursts, previous-adjacency re-fetches); the replay is
// refused otherwise. The order of cache lookups and DRAM requests within
// an instance follows the paths rather than the engine's interleaving, so
// the replayed hit pattern, and hence the DRAM request count, is close to
// the run's but not equal; shares use the run's own DRAM request count.

#ifndef HOSTBENCH_REPLAY_H_
#define HOSTBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "span_log.h"
#include "workloads.h"

namespace hostbench {

// Operations of one layer: the run's exact count, and the replay's
// measured cost per operation.
struct LayerCost {
  uint64_t run_ops = 0;
  double ns_per_op = 0.0;
  double Seconds() const {
    return static_cast<double>(run_ops) * ns_per_op * 1e-9;
  }
};

struct ReplayResult {
  std::string error;  // non-empty if the replay does not match the run

  LayerCost sampling;  // OfferBatch, per edge offered
  LayerCost rng;       // ThunderingRng::NextStreams, per draw
  LayerCost apps;      // WalkApp::DynamicWeight, per (state, neighbour)
  LayerCost sampler;   // StepSampler::SampleNext, per expansion sampled
  LayerCost cache;     // DegreeAwareCache Probe + Install, per lookup
  LayerCost burst;     // DynamicBurstEngine::Fetch, per fetch
  LayerCost dram;      // DramChannel::Access, per call
  // DRAM accesses the burst engine made (its bursts), which its per-fetch
  // cost includes.
  uint64_t burst_dram_ops = 0;
  // Steps and edges read from the paths (exact for every workload).
  uint64_t steps = 0;
  uint64_t edges = 0;

  // Host seconds of each layer's own work in the run, each excluding the
  // layers it calls (sampler excludes sampling and apps, sampling
  // excludes rng, burst excludes its DRAM accesses).
  double SamplerSelf() const;
  double SamplingSelf() const;
  double BurstSelf() const;
  double Attributed() const;  // sum of every layer's own work
};

// Replays `run` (a run of `in`) layer by layer, recording one span per
// layer and chunk of expansions under `parent`.
ReplayResult ReplayLayers(const Inputs& in, const RunOutcome& run,
                          SpanLog* log, int64_t parent);

}  // namespace hostbench

#endif  // HOSTBENCH_REPLAY_H_
