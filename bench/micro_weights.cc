// Host-speed microbenchmark of the weight updater (the apps layer): the
// per-edge WalkApp::DynamicWeight loop against the batch DynamicWeights
// call, both over curr's adjacency in k = 16 edge chunks (the default
// accelerator's sampler width), as StepSampler consumes them.
//
//   node2vec  p=2, q=0.5, one (curr, prev) pair per run with |N(curr)|
//             and |N(prev)| each 16, 207 (the LiveJournal stand-in's mean
//             examined edges per step) or 4096 (a hub); up to a quarter
//             of N(curr) is shared with N(prev) and the return edge exists;
//   metapath  the same N(curr) rows under a 4-relation MetaPath step.
//
// Neighbor ids spread over a LiveJournal stand-in sized id range.
//
// Run: ./build/bench/micro_weights [--benchmark_filter=...]
// items_per_second counts weighted edges. tests/dynamic_weights_test.cc
// proves both forms produce identical weights.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "apps/walk_app.h"
#include "graph/builder.h"
#include "rng/rng.h"

namespace lightrw::bench {
namespace {

using apps::WalkApp;
using apps::WalkState;
using graph::CsrGraph;
using graph::VertexId;
using graph::Weight;

constexpr VertexId kVertices = 37500;
constexpr VertexId kCurr = 0;
constexpr VertexId kPrev = 1;
constexpr uint32_t kChunk = 16;
constexpr uint32_t kRelations = 4;

enum class Form { kPerEdge, kBatch };

// Vertex kPrev gets `prev_degree` distinct random out-neighbors; vertex
// kCurr gets `curr_degree`: the return edge to kPrev, a quarter (at most
// all of N(prev)) shared with N(prev), and the rest in neither list.
CsrGraph MakePair(uint32_t curr_degree, uint32_t prev_degree) {
  rng::Xoshiro256StarStar gen(0x3e1647 + curr_degree * 7919 + prev_degree);
  graph::GraphBuilder builder(kVertices, /*undirected=*/false);
  std::vector<bool> taken(kVertices, false);
  taken[kCurr] = taken[kPrev] = true;
  const auto fresh_vertex = [&] {
    VertexId v;
    do {
      v = static_cast<VertexId>(gen.NextBounded(kVertices));
    } while (taken[v]);
    taken[v] = true;
    return v;
  };
  std::vector<VertexId> prev_neighbors(prev_degree);
  for (VertexId& v : prev_neighbors) {
    v = fresh_vertex();
    builder.AddEdge(kPrev, v);
  }
  const auto add_curr_edge = [&](VertexId v) {
    builder.AddEdge(kCurr, v, static_cast<Weight>(1 + gen.NextBounded(16)),
                    static_cast<graph::Relation>(gen.NextBounded(kRelations)));
  };
  add_curr_edge(kPrev);
  const uint32_t shared = std::min(curr_degree / 4, prev_degree);
  for (uint32_t i = 0; i < shared; ++i) {
    add_curr_edge(prev_neighbors[i]);
  }
  for (uint32_t e = 1 + shared; e < curr_degree; ++e) {
    add_curr_edge(fresh_vertex());
  }
  return std::move(builder).Build();
}

void RunWeights(benchmark::State& state, const WalkApp& app, Form form,
                uint32_t curr_degree, uint32_t prev_degree) {
  const CsrGraph graph = MakePair(curr_degree, prev_degree);
  const WalkState walk{/*step=*/1, kCurr, kPrev};
  const uint32_t degree = graph.Degree(kCurr);
  const auto neighbors = graph.Neighbors(kCurr);
  const auto weights = graph.NeighborWeights(kCurr);
  const auto relations = graph.NeighborRelations(kCurr);
  std::vector<Weight> batch(kChunk);
  for (auto _ : state) {
    for (uint32_t offset = 0; offset < degree; offset += kChunk) {
      const uint32_t n = std::min(kChunk, degree - offset);
      if (form == Form::kPerEdge) {
        for (uint32_t j = 0; j < n; ++j) {
          batch[j] = app.DynamicWeight(graph, walk, neighbors[offset + j],
                                       weights[offset + j],
                                       relations[offset + j]);
        }
      } else {
        app.DynamicWeights(graph, walk, offset, {batch.data(), n});
      }
      benchmark::DoNotOptimize(batch.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * degree));
  state.counters["curr_degree"] = degree;
  state.counters["prev_degree"] = graph.Degree(kPrev);
}

void BM_Node2Vec(benchmark::State& state, Form form) {
  const std::unique_ptr<WalkApp> app =
      std::make_unique<apps::Node2VecApp>(2.0, 0.5);
  RunWeights(state, *app, form, static_cast<uint32_t>(state.range(0)),
             static_cast<uint32_t>(state.range(1)));
}

void BM_MetaPath(benchmark::State& state, Form form) {
  const std::unique_ptr<WalkApp> app =
      std::make_unique<apps::MetaPathApp>(std::vector<graph::Relation>{0, 1});
  RunWeights(state, *app, form, static_cast<uint32_t>(state.range(0)),
             /*prev_degree=*/16);
}

const std::vector<int64_t> kDegrees = {16, 207, 4096};

BENCHMARK_CAPTURE(BM_Node2Vec, per_edge, Form::kPerEdge)
    ->ArgsProduct({kDegrees, kDegrees});
BENCHMARK_CAPTURE(BM_Node2Vec, batch, Form::kBatch)
    ->ArgsProduct({kDegrees, kDegrees});
BENCHMARK_CAPTURE(BM_MetaPath, per_edge, Form::kPerEdge)
    ->ArgsProduct({kDegrees});
BENCHMARK_CAPTURE(BM_MetaPath, batch, Form::kBatch)->ArgsProduct({kDegrees});

}  // namespace
}  // namespace lightrw::bench

BENCHMARK_MAIN();
