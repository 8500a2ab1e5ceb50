// Differential fuzz test of WalkApp::DynamicWeights, the batch weight
// updater, against its definition: the per-edge DynamicWeight loop.
//
// Every app is checked on random and adversarial graphs (multi-edge and
// self-loop inputs, hubs next to low-degree vertices, isolated vertices,
// weights near UINT32_MAX / kWeightScale) and on adversarial walk states
// (prev == curr, dst == prev, prev of degree 0, no prev yet), for every
// chunk start at k = 1, 8, 16 and 64 and for ranges running to the end of
// the adjacency. Node2Vec's two merges are called explicitly too: the
// galloping merge everywhere and the AVX-512 block merge where the host
// has it, whatever the N(prev) window. Graphs built around the block
// merge's cutoff put N(prev) windows at and next to
// kMaxBlockWindowPerEdge * |range| and N(prev) entries on every block's
// last destination. A second check runs whole walks through StepSampler
// (one DynamicWeights call and one SIMD SampleAll stream per step) and
// through a reference sampler that feeds the per-edge loop to the scalar
// PWRS lanes batch by batch; paths and RNG stream states must agree.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/ppr.h"
#include "apps/walk_app.h"
#include "apps/weighted_metapath.h"
#include "graph/builder.h"
#include "lightrw/step_sampler.h"
#include "rng/rng.h"
#include "sampling/parallel_wrs.h"
#include "sampling/sampler.h"

namespace lightrw::apps {
namespace {

using graph::GraphBuilder;
using graph::kInvalidVertex;

constexpr size_t kChunkSizes[] = {1, 8, 16, 64};
constexpr Weight kCanary = 0xdeadbeef;
constexpr uint32_t kRelations = 4;
constexpr uint32_t kPathLength = 6;

// Weights the generators draw from.
enum class WeightRange { kSmall, kNearScaleLimit };

Weight DrawWeight(rng::Xoshiro256StarStar& gen, WeightRange range) {
  if (range == WeightRange::kSmall) {
    return static_cast<Weight>(1 + gen.NextBounded(16));
  }
  // Around the largest static weight whose Node2Vec product still fits:
  // some products fit exactly, some wrap. Both forms must wrap alike.
  constexpr Weight kLimit =
      std::numeric_limits<Weight>::max() / Node2VecApp::kWeightScale;
  return static_cast<Weight>(kLimit - 8 + gen.NextBounded(17));
}

void AddRandomEdge(GraphBuilder& builder, rng::Xoshiro256StarStar& gen,
                   VertexId src, VertexId dst, WeightRange range) {
  builder.AddEdge(src, dst, DrawWeight(gen, range),
                  static_cast<Relation>(gen.NextBounded(kRelations)));
}

// Random directed graph: each vertex gets 0..2*avg out-edges, with
// repeated (u, v) pairs and self-loops in the input. The builder keeps the
// first of each repeated pair, so adjacency stays sorted and unique.
CsrGraph RandomGraph(uint64_t seed, VertexId n, uint32_t avg_degree,
                     WeightRange range) {
  rng::Xoshiro256StarStar gen(seed);
  GraphBuilder builder(n, /*undirected=*/false);
  for (VertexId u = 0; u < n; ++u) {
    const uint64_t degree = gen.NextBounded(2 * avg_degree + 1);
    for (uint64_t e = 0; e < degree; ++e) {
      const VertexId v = static_cast<VertexId>(gen.NextBounded(n));
      AddRandomEdge(builder, gen, u, v, range);
      if (gen.NextBounded(8) == 0) {
        AddRandomEdge(builder, gen, u, v, range);  // multi-edge input
      }
    }
    if (gen.NextBounded(4) == 0) {
      AddRandomEdge(builder, gen, u, u, range);  // self-loop
    }
  }
  return std::move(builder).Build();
}

// Two hubs of very different reach joined to many low-degree vertices,
// so |N(prev)| >> |N(curr)| and the reverse both occur, plus isolated
// vertices at the top of the id range.
CsrGraph HubGraph(uint64_t seed, WeightRange range) {
  constexpr VertexId kVertices = 3000;
  constexpr VertexId kIsolated = 40;
  rng::Xoshiro256StarStar gen(seed);
  GraphBuilder builder(kVertices, /*undirected=*/true);
  for (VertexId v = 2; v < kVertices - kIsolated; ++v) {
    if (gen.NextBounded(10) != 0) {
      AddRandomEdge(builder, gen, 0, v, range);  // big hub
    }
    if (gen.NextBounded(20) == 0) {
      AddRandomEdge(builder, gen, 1, v, range);  // small hub
    }
    for (int e = 0; e < 2; ++e) {
      const VertexId u =
          2 + static_cast<VertexId>(gen.NextBounded(kVertices - kIsolated - 2));
      AddRandomEdge(builder, gen, v, u, range);
    }
  }
  AddRandomEdge(builder, gen, 0, 1, range);
  return std::move(builder).Build();
}

std::vector<std::unique_ptr<WalkApp>> MakeApps(const CsrGraph& graph,
                                               uint64_t seed) {
  std::vector<std::unique_ptr<WalkApp>> apps;
  apps.push_back(std::make_unique<MetaPathApp>(
      MakeRandomRelationPath(graph, kPathLength, seed)));
  rng::Xoshiro256StarStar gen(seed);
  std::vector<WeightedMetaPathApp::RelationTable> tables(kPathLength);
  for (auto& table : tables) {
    for (Weight& w : table) {
      w = gen.NextBounded(3) == 0 ? 0 : static_cast<Weight>(gen.Next());
    }
  }
  apps.push_back(std::make_unique<WeightedMetaPathApp>(std::move(tables)));
  for (const auto& [p, q] : std::vector<std::pair<double, double>>{
           {2.0, 0.5}, {1.0, 1.0}, {3.0, 7.0}, {0.25, 4.0}}) {
    apps.push_back(std::make_unique<Node2VecApp>(p, q));
  }
  apps.push_back(std::make_unique<PprApp>(0.15));
  apps.push_back(std::make_unique<StaticWalkApp>());
  return apps;
}

// Walk states that stress the weight updater from `curr`.
std::vector<WalkState> StatesFor(const CsrGraph& graph, VertexId curr,
                                 rng::Xoshiro256StarStar& gen) {
  const auto neighbors = graph.Neighbors(curr);
  const auto step = [&] {
    return static_cast<uint32_t>(gen.NextBounded(kPathLength + 2));
  };
  const VertexId any =
      static_cast<VertexId>(gen.NextBounded(graph.num_vertices()));
  const VertexId neighbor = neighbors[gen.NextBounded(neighbors.size())];
  std::vector<WalkState> states;
  states.push_back({0, curr, kInvalidVertex});  // first step, no prev
  states.push_back({step(), curr, curr});       // prev == curr
  states.push_back({step(), curr, neighbor});   // dst == prev in the chunk
  states.push_back({step(), curr, neighbors.front()});
  states.push_back({step(), curr, neighbors.back()});
  states.push_back({step(), curr, graph.num_vertices() - 1});  // often deg 0
  states.push_back({step(), curr, any});
  for (VertexId v = 0; v < std::min<VertexId>(2, graph.num_vertices()); ++v) {
    states.push_back({step(), curr, v});  // the hubs in HubGraph
  }
  return states;
}

// The ways a range of weights can be filled: the app's DynamicWeights
// (what the engines call), and Node2Vec's two merges called directly.
enum class Path { kDispatch, kGalloping, kBlocks };

constexpr Path kPaths[] = {Path::kDispatch, Path::kGalloping, Path::kBlocks};

const char* PathName(Path path) {
  switch (path) {
    case Path::kDispatch:
      return "DynamicWeights";
    case Path::kGalloping:
      return "galloping";
    case Path::kBlocks:
      return "blocks";
  }
  return "?";
}

// Fills `out` with neighbors [offset, offset + out.size()) of state.curr
// through `path`. Returns false, having run nothing, when the path does
// not apply: a merge path for an app other than Node2Vec, or the block
// merge on a host without AVX-512.
bool Fill(const CsrGraph& graph, const WalkApp& app, Path path,
          const WalkState& state, uint32_t offset, std::span<Weight> out) {
  const auto* node2vec = dynamic_cast<const Node2VecApp*>(&app);
  switch (path) {
    case Path::kDispatch:
      app.DynamicWeights(graph, state, offset, out);
      return true;
    case Path::kGalloping:
      if (node2vec == nullptr) {
        return false;
      }
      node2vec->DynamicWeightsGalloping(graph, state, offset, out);
      return true;
    case Path::kBlocks:
      return node2vec != nullptr &&
             node2vec->DynamicWeightsBlocks(graph, state, offset, out);
  }
  return false;
}

// The per-edge weights of state.curr's whole adjacency.
std::vector<Weight> PerEdgeWeights(const CsrGraph& graph, const WalkApp& app,
                                   const WalkState& state) {
  const auto neighbors = graph.Neighbors(state.curr);
  const auto weights = graph.NeighborWeights(state.curr);
  const auto relations = graph.NeighborRelations(state.curr);
  std::vector<Weight> expected(neighbors.size());
  for (size_t j = 0; j < neighbors.size(); ++j) {
    expected[j] = app.DynamicWeight(graph, state, neighbors[j], weights[j],
                                    relations[j]);
  }
  return expected;
}

// Checks every path that applies on neighbors [offset, offset + n) of
// state.curr against the per-edge `expected`, and that each writes
// exactly n entries.
void ExpectRangeMatches(const CsrGraph& graph, const WalkApp& app,
                        const WalkState& state, uint32_t offset, size_t n,
                        std::span<const Weight> expected) {
  std::vector<Weight> buffer;
  for (const Path path : kPaths) {
    buffer.assign(n + 1, kCanary);
    if (!Fill(graph, app, path, state, offset, {buffer.data(), n})) {
      continue;
    }
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(buffer[j], expected[offset + j])
          << app.name() << " " << PathName(path) << " offset=" << offset
          << " n=" << n << " j=" << j << " curr=" << state.curr
          << " prev=" << state.prev << " step=" << state.step;
    }
    ASSERT_EQ(buffer[n], kCanary)
        << app.name() << " " << PathName(path) << " wrote past the range";
  }
}

// Checks every path at every start offset of curr's adjacency and every
// chunk size, and on ranges that run to the end of the adjacency (every
// start up to 40, then every 97th), against the per-edge definition.
void ExpectChunksMatch(const CsrGraph& graph, const WalkApp& app,
                       const WalkState& state) {
  const uint32_t degree = graph.Degree(state.curr);
  const std::vector<Weight> expected = PerEdgeWeights(graph, app, state);
  for (const size_t k : kChunkSizes) {
    for (uint32_t offset = 0; offset < degree; ++offset) {
      ExpectRangeMatches(graph, app, state, offset,
                         std::min<size_t>(k, degree - offset), expected);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  for (uint32_t offset = 0; offset < degree;
       offset += offset < 40 ? 1 : 97) {
    ExpectRangeMatches(graph, app, state, offset, degree - offset, expected);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

void FuzzGraph(const CsrGraph& graph, uint64_t seed, size_t max_currs) {
  const auto apps = MakeApps(graph, seed);
  rng::Xoshiro256StarStar gen(seed ^ 0xc0ffee);
  std::vector<VertexId> currs;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) > 0) {
      currs.push_back(v);
    }
  }
  for (size_t i = currs.size(); i > 1; --i) {
    std::swap(currs[i - 1], currs[gen.NextBounded(i)]);
  }
  currs.resize(std::min(currs.size(), max_currs));
  // The largest-degree vertex is always expanded too.
  VertexId widest = 0;
  for (VertexId v = 1; v < graph.num_vertices(); ++v) {
    widest = graph.Degree(v) > graph.Degree(widest) ? v : widest;
  }
  currs.push_back(widest);
  for (const VertexId curr : currs) {
    for (const WalkState& state : StatesFor(graph, curr, gen)) {
      for (const auto& app : apps) {
        ExpectChunksMatch(graph, *app, state);
        if (testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

TEST(DynamicWeightsTest, RandomSparseGraphsMatchPerEdge) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    FuzzGraph(RandomGraph(seed, 200, 6, WeightRange::kSmall), seed, 60);
  }
}

TEST(DynamicWeightsTest, RandomDenseGraphsMatchPerEdge) {
  // avg degree ~ |V| / 2: N(curr) and N(prev) overlap heavily and every
  // chunk of the merge meets runs of shared neighbors.
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    FuzzGraph(RandomGraph(seed, 96, 48, WeightRange::kSmall), seed, 30);
  }
}

TEST(DynamicWeightsTest, HubAndLeafDegreesMatchPerEdge) {
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    FuzzGraph(HubGraph(seed, WeightRange::kSmall), seed, 12);
  }
}

TEST(DynamicWeightsTest, WeightsNearScaleLimitMatchPerEdge) {
  FuzzGraph(RandomGraph(31, 150, 10, WeightRange::kNearScaleLimit), 31, 40);
  FuzzGraph(HubGraph(32, WeightRange::kNearScaleLimit), 32, 6);
}

TEST(DynamicWeightsTest, Node2VecClassifiesReturnAdjacentAndDistant) {
  // 0 -> {1, 2, 3, 4}; prev = 2 with N(2) = {0, 3}. From curr 0: dst 2 is
  // the return edge, 3 is adjacent to prev, 1 and 4 are distant.
  GraphBuilder builder(5, /*undirected=*/false);
  for (const VertexId v : {1, 2, 3, 4}) {
    builder.AddEdge(0, v, /*weight=*/3);
  }
  builder.AddEdge(2, 0, 1);
  builder.AddEdge(2, 3, 1);
  const CsrGraph graph = std::move(builder).Build();
  const Node2VecApp app(2.0, 0.5);
  std::vector<Weight> out(4);
  app.DynamicWeights(graph, {1, 0, 2}, 0, out);
  EXPECT_EQ(out, (std::vector<Weight>{3 * 512, 3 * 128, 3 * 256, 3 * 512}));
}

// curr = 0 has `curr_degree` neighbors, the first at kFirstDst. prev = 1
// has exactly `window` neighbors at or after kFirstDst (its N(prev)
// window for curr's whole adjacency) and a few below it. N(prev) holds
// the last destination of every 16-edge block of N(curr) and about a
// quarter of the rest of N(curr); the other window entries lie outside
// N(curr). Every other vertex, the top one included, is isolated.
constexpr VertexId kFirstDst = 64;

CsrGraph CutoffGraph(uint64_t seed, uint32_t curr_degree, uint32_t window,
                     WeightRange range) {
  constexpr VertexId kVertices = 4096;
  constexpr size_t kBlock = 16;
  rng::Xoshiro256StarStar gen(seed);
  const auto draw = [&] {
    return static_cast<VertexId>(kFirstDst + 1 +
                                 gen.NextBounded(kVertices - kFirstDst - 2));
  };
  std::vector<bool> in_curr(kVertices, false);
  std::vector<VertexId> dsts = {kFirstDst};
  in_curr[kFirstDst] = true;
  while (dsts.size() < curr_degree) {
    const VertexId v = draw();
    if (!in_curr[v]) {
      in_curr[v] = true;
      dsts.push_back(v);
    }
  }
  std::sort(dsts.begin(), dsts.end());
  std::vector<bool> in_prev(kVertices, false);
  uint32_t windowed = 0;
  const auto add_prev = [&](VertexId v) {
    if (!in_prev[v] && windowed < window) {
      in_prev[v] = true;
      ++windowed;
    }
  };
  for (size_t j = kBlock - 1; j < dsts.size(); j += kBlock) {
    add_prev(dsts[j]);
  }
  add_prev(dsts.back());
  for (const VertexId v : dsts) {
    if (gen.NextBounded(4) == 0) {
      add_prev(v);
    }
  }
  while (windowed < window) {
    const VertexId v = draw();
    if (!in_curr[v]) {
      add_prev(v);
    }
  }
  GraphBuilder builder(kVertices, /*undirected=*/false);
  for (const VertexId v : dsts) {
    AddRandomEdge(builder, gen, 0, v, range);
  }
  for (VertexId v = 2; v < kFirstDst; v += 9) {
    AddRandomEdge(builder, gen, 1, v, range);  // below the window
  }
  for (VertexId v = kFirstDst; v < kVertices; ++v) {
    if (in_prev[v]) {
      AddRandomEdge(builder, gen, 1, v, range);
    }
  }
  return std::move(builder).Build();
}

TEST(DynamicWeightsTest, Node2VecWindowsAroundBlockCutoffMatchPerEdge) {
  // |N(curr)| takes every residue mod 16, three times; the N(prev) window
  // lies just below, at and just above the dispatch cutoff.
  constexpr auto kRatio =
      static_cast<uint32_t>(Node2VecApp::kMaxBlockWindowPerEdge);
  const Node2VecApp app(2.0, 0.5);
  for (uint32_t n = 1; n <= 48; ++n) {
    for (const uint32_t window : {kRatio * n - 1, kRatio * n, kRatio * n + 1}) {
      for (const WeightRange range :
           {WeightRange::kSmall, WeightRange::kNearScaleLimit}) {
        const CsrGraph graph = CutoffGraph(n * 4099 + window, n, window, range);
        const auto windowed = std::ranges::count_if(
            graph.Neighbors(1), [](VertexId v) { return v >= kFirstDst; });
        ASSERT_EQ(graph.Degree(0), n);
        ASSERT_EQ(static_cast<uint32_t>(windowed), window);
        rng::Xoshiro256StarStar gen(n);
        for (const WalkState& state : StatesFor(graph, 0, gen)) {
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " window=" << window);
          ExpectChunksMatch(graph, app, state);
          if (testing::Test::HasFatalFailure()) {
            return;
          }
        }
      }
    }
  }
}

TEST(Node2VecBlockMergeDispatchTest, SimdPathActive) {
  const CsrGraph graph = CutoffGraph(1, 16, 16, WeightRange::kSmall);
  const Node2VecApp app(2.0, 0.5);
  std::vector<Weight> out(16);
  if (!app.DynamicWeightsBlocks(graph, {1, 0, 1}, 0, out)) {
    EXPECT_STREQ(sampling::PwrsKernelName(), "scalar");
    GTEST_SKIP() << "host lacks AVX-512F/DQ/VL: the Node2Vec block merge "
                    "was not exercised, only the galloping merge";
  }
  EXPECT_STREQ(sampling::PwrsKernelName(), "avx512");
}

// The pre-batch StepSampler on the scalar oracle: per-edge DynamicWeight
// into OfferBatchReference, one k-edge batch at a time.
VertexId ReferenceSampleNext(const CsrGraph& graph, const WalkApp& app,
                             const WalkState& state,
                             sampling::ParallelWrsSampler& pwrs) {
  const uint32_t degree = graph.Degree(state.curr);
  if (degree == 0) {
    return kInvalidVertex;
  }
  const auto neighbors = graph.Neighbors(state.curr);
  const auto weights = graph.NeighborWeights(state.curr);
  const auto relations = graph.NeighborRelations(state.curr);
  const size_t k = pwrs.parallelism();
  std::vector<Weight> batch(k);
  pwrs.Reset();
  for (uint32_t offset = 0; offset < degree; offset += k) {
    const uint32_t n = std::min<uint32_t>(static_cast<uint32_t>(k),
                                          degree - offset);
    for (uint32_t j = 0; j < n; ++j) {
      batch[j] = app.DynamicWeight(graph, state, neighbors[offset + j],
                                   weights[offset + j], relations[offset + j]);
    }
    pwrs.OfferBatchReference({batch.data(), n}, offset);
  }
  const size_t picked = pwrs.selected();
  return picked == sampling::kNoSample ? kInvalidVertex : neighbors[picked];
}

void ExpectWalksMatch(const CsrGraph& graph, uint64_t seed) {
  constexpr uint32_t kWalkLength = 24;
  constexpr size_t kWalks = 40;
  const auto apps = MakeApps(graph, seed);
  for (const size_t k : kChunkSizes) {
    for (const auto& app : apps) {
      SCOPED_TRACE(testing::Message() << app->name() << " k=" << k);
      rng::ThunderingRng fast_rng(k, seed);
      rng::ThunderingRng ref_rng(k, seed);
      core::StepSampler fast(k, &fast_rng);
      sampling::ParallelWrsSampler ref(k, &ref_rng);
      rng::Xoshiro256StarStar gen(seed * 31 + k);
      for (size_t w = 0; w < kWalks; ++w) {
        WalkState state;
        state.curr =
            static_cast<VertexId>(gen.NextBounded(graph.num_vertices()));
        for (uint32_t step = 0; step < kWalkLength; ++step) {
          state.step = step;
          const VertexId got = fast.SampleNext(graph, *app, state);
          const VertexId want = ReferenceSampleNext(graph, *app, state, ref);
          ASSERT_EQ(got, want) << "walk " << w << " step " << step;
          if (got == kInvalidVertex) {
            break;
          }
          state.prev = state.curr;
          state.curr = got;
        }
      }
      for (size_t stream = 0; stream < k; ++stream) {
        for (int d = 0; d < 8; ++d) {
          ASSERT_EQ(fast_rng.Next(stream), ref_rng.Next(stream))
              << "rng stream " << stream << " draw " << d;
        }
      }
    }
  }
}

TEST(DynamicWeightsTest, StepSamplerWalksMatchPerEdgeReference) {
  ExpectWalksMatch(RandomGraph(41, 300, 12, WeightRange::kSmall), 41);
  ExpectWalksMatch(HubGraph(42, WeightRange::kSmall), 42);
  ExpectWalksMatch(RandomGraph(43, 120, 8, WeightRange::kNearScaleLimit), 43);
}

}  // namespace
}  // namespace lightrw::apps
