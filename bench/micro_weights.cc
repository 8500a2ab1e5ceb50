// Host-speed microbenchmark of the weight updater (the apps layer), timed
// the way StepSampler calls it: once per step over curr's whole
// adjacency.
//
//   per_edge   the per-edge WalkApp::DynamicWeight loop (the definition);
//   batch      one WalkApp::DynamicWeights call (what the engines run);
//   galloping  Node2VecApp::DynamicWeightsGalloping, the galloping merge;
//   blocks     Node2VecApp::DynamicWeightsBlocks, the AVX-512 block merge
//              (skipped on hosts without AVX-512).
//
//   node2vec  p=2, q=0.5, with |N(curr)| and |N(prev)| each 16, 207 (the
//             LiveJournal stand-in's mean examined edges per step) or
//             4096 (a hub); up to a quarter of N(curr) is shared with
//             N(prev) and the return edge exists;
//   metapath  the same N(curr) rows under a 4-relation MetaPath step.
//
// Neighbor ids spread over a LiveJournal stand-in sized id range. Each
// run cycles through 16 (curr, prev) pairs of the same degrees. The
// galloping and blocks rows at the nine |N(curr)| x |N(prev)| pairs are
// the evidence for Node2VecApp::kMaxBlockWindowPerEdge.
//
// Run: ./build/bench/micro_weights [--benchmark_filter=...]
// items_per_second counts weighted edges; the label names the path that
// ran. tests/dynamic_weights_test.cc proves every form produces identical
// weights.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
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
// (curr, prev) pairs per run: curr = 2i, prev = 2i + 1. Each call takes
// the next pair, so branch history does not repeat from call to call,
// as in a walk.
constexpr VertexId kPairs = 16;
constexpr uint32_t kRelations = 4;

enum class Form { kPerEdge, kBatch, kGalloping, kBlocks };

// Every prev gets `prev_degree` distinct random out-neighbors; its curr
// gets `curr_degree`: the return edge to prev, a quarter (at most all of
// N(prev)) shared with N(prev), and the rest in neither list.
CsrGraph MakePairs(uint32_t curr_degree, uint32_t prev_degree) {
  rng::Xoshiro256StarStar gen(0x3e1647 + curr_degree * 7919 + prev_degree);
  graph::GraphBuilder builder(kVertices, /*undirected=*/false);
  for (VertexId curr = 0; curr < 2 * kPairs; curr += 2) {
    const VertexId prev = curr + 1;
    std::vector<bool> taken(kVertices, false);
    taken[curr] = taken[prev] = true;
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
      builder.AddEdge(prev, v);
    }
    const auto add_curr_edge = [&](VertexId v) {
      builder.AddEdge(
          curr, v, static_cast<Weight>(1 + gen.NextBounded(16)),
          static_cast<graph::Relation>(gen.NextBounded(kRelations)));
    };
    add_curr_edge(prev);
    const uint32_t shared = std::min(curr_degree / 4, prev_degree);
    for (uint32_t i = 0; i < shared; ++i) {
      add_curr_edge(prev_neighbors[i]);
    }
    for (uint32_t e = 1 + shared; e < curr_degree; ++e) {
      add_curr_edge(fresh_vertex());
    }
  }
  return std::move(builder).Build();
}

void RunWeights(benchmark::State& state, const WalkApp& app, Form form,
                uint32_t curr_degree, uint32_t prev_degree) {
  const CsrGraph graph = MakePairs(curr_degree, prev_degree);
  // The galloping and blocks forms run only for Node2Vec.
  const auto* node2vec = dynamic_cast<const apps::Node2VecApp*>(&app);
  std::vector<Weight> out(curr_degree);
  if (form == Form::kBlocks &&
      !node2vec->DynamicWeightsBlocks(graph, {1, 0, 1}, 0, out)) {
    state.SkipWithError("host lacks AVX-512: no block merge");
    return;
  }
  VertexId pair = 0;
  for (auto _ : state) {
    const WalkState walk{/*step=*/1, 2 * pair, 2 * pair + 1};
    switch (form) {
      case Form::kPerEdge: {
        const auto neighbors = graph.Neighbors(walk.curr);
        const auto weights = graph.NeighborWeights(walk.curr);
        const auto relations = graph.NeighborRelations(walk.curr);
        for (uint32_t j = 0; j < curr_degree; ++j) {
          out[j] = app.DynamicWeight(graph, walk, neighbors[j], weights[j],
                                     relations[j]);
        }
        break;
      }
      case Form::kBatch:
        app.DynamicWeights(graph, walk, 0, out);
        break;
      case Form::kGalloping:
        node2vec->DynamicWeightsGalloping(graph, walk, 0, out);
        break;
      case Form::kBlocks:
        node2vec->DynamicWeightsBlocks(graph, walk, 0, out);
        break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    pair = pair + 1 == kPairs ? 0 : pair + 1;
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * curr_degree));
  state.counters["curr_degree"] = curr_degree;
  state.counters["prev_degree"] = prev_degree;
  if (form == Form::kBlocks) {
    state.SetLabel("avx512");
  }
}

void BM_Node2Vec(benchmark::State& state, Form form) {
  const apps::Node2VecApp app(2.0, 0.5);
  RunWeights(state, app, form, static_cast<uint32_t>(state.range(0)),
             static_cast<uint32_t>(state.range(1)));
}

void BM_MetaPath(benchmark::State& state, Form form) {
  const apps::MetaPathApp app(std::vector<graph::Relation>{0, 1});
  RunWeights(state, app, form, static_cast<uint32_t>(state.range(0)),
             /*prev_degree=*/16);
}

const std::vector<int64_t> kDegrees = {16, 207, 4096};

BENCHMARK_CAPTURE(BM_Node2Vec, per_edge, Form::kPerEdge)
    ->ArgsProduct({kDegrees, kDegrees});
BENCHMARK_CAPTURE(BM_Node2Vec, batch, Form::kBatch)
    ->ArgsProduct({kDegrees, kDegrees});
BENCHMARK_CAPTURE(BM_Node2Vec, galloping, Form::kGalloping)
    ->ArgsProduct({kDegrees, kDegrees});
BENCHMARK_CAPTURE(BM_Node2Vec, blocks, Form::kBlocks)
    ->ArgsProduct({kDegrees, kDegrees});
BENCHMARK_CAPTURE(BM_MetaPath, per_edge, Form::kPerEdge)
    ->ArgsProduct({kDegrees});
BENCHMARK_CAPTURE(BM_MetaPath, batch, Form::kBatch)->ArgsProduct({kDegrees});

}  // namespace
}  // namespace lightrw::bench

BENCHMARK_MAIN();
