#include "apps/walk_app.h"
#include "apps/ppr.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "rng/rng.h"

namespace lightrw::apps {

namespace {

// First position in [it, end) whose value is >= v, for sorted input.
// Gallops forward from `it` (1, 2, 4, ... entries) and then binary
// searches the last stride, so a cursor that moves by a few entries per
// call costs O(1) and a long skip over a hub's adjacency costs O(log gap).
const VertexId* AdvanceTo(const VertexId* it, const VertexId* end,
                          VertexId v) {
  if (it == end || *it >= v) {
    return it;
  }
  // Invariant: *it < v.
  for (ptrdiff_t stride = 1;; stride *= 2) {
    if (stride >= end - it) {
      return std::lower_bound(it + 1, end, v);
    }
    if (it[stride] >= v) {
      return std::lower_bound(it + 1, it + stride, v);
    }
    it += stride;
  }
}

}  // namespace

void WalkApp::DynamicWeights(const CsrGraph& graph, const WalkState& state,
                             uint32_t offset, std::span<Weight> out) const {
  const auto neighbors = graph.Neighbors(state.curr);
  const auto weights = graph.NeighborWeights(state.curr);
  const auto relations = graph.NeighborRelations(state.curr);
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = DynamicWeight(graph, state, neighbors[offset + j],
                           weights[offset + j], relations[offset + j]);
  }
}

MetaPathApp::MetaPathApp(std::vector<Relation> relation_path)
    : path_(std::move(relation_path)) {
  LIGHTRW_CHECK(!path_.empty());
}

Weight MetaPathApp::DynamicWeight(const CsrGraph& /*graph*/,
                                  const WalkState& state, VertexId /*dst*/,
                                  Weight static_weight,
                                  Relation relation) const {
  if (state.step >= path_.size()) {
    return 0;  // beyond the relation path nothing is sampleable
  }
  return relation == path_[state.step] ? static_weight : 0;
}

void MetaPathApp::DynamicWeights(const CsrGraph& graph, const WalkState& state,
                                 uint32_t offset,
                                 std::span<Weight> out) const {
  if (state.step >= path_.size()) {
    std::fill(out.begin(), out.end(), Weight{0});
    return;
  }
  const Relation wanted = path_[state.step];
  const Weight* weights = graph.NeighborWeights(state.curr).data() + offset;
  const Relation* relations =
      graph.NeighborRelations(state.curr).data() + offset;
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = relations[j] == wanted ? weights[j] : 0;
  }
}

Node2VecApp::Node2VecApp(double p, double q) : p_(p), q_(q) {
  LIGHTRW_CHECK(p > 0.0);
  LIGHTRW_CHECK(q > 0.0);
  return_scale_ = static_cast<Weight>(std::lround(kWeightScale / p));
  distant_scale_ = static_cast<Weight>(std::lround(kWeightScale / q));
  LIGHTRW_CHECK(return_scale_ > 0);
  LIGHTRW_CHECK(distant_scale_ > 0);
}

Weight Node2VecApp::DynamicWeight(const CsrGraph& graph,
                                  const WalkState& state, VertexId dst,
                                  Weight static_weight,
                                  Relation /*relation*/) const {
  if (state.prev == graph::kInvalidVertex) {
    // First step: no second-order context yet; behave like a static walk.
    return static_weight * kWeightScale;
  }
  if (dst == state.prev) {
    return static_weight * return_scale_;  // Eq. (2a): w*/p
  }
  if (graph.HasEdge(state.prev, dst)) {
    return static_weight * kWeightScale;  // Eq. (2b): w*
  }
  return static_weight * distant_scale_;  // Eq. (2c): w*/q
}

void Node2VecApp::DynamicWeights(const CsrGraph& graph, const WalkState& state,
                                 uint32_t offset,
                                 std::span<Weight> out) const {
  const VertexId* dsts = graph.Neighbors(state.curr).data() + offset;
  const Weight* weights = graph.NeighborWeights(state.curr).data() + offset;
  const size_t n = out.size();
  if (state.prev == graph::kInvalidVertex || n == 0) {
    for (size_t j = 0; j < n; ++j) {
      out[j] = weights[j] * kWeightScale;
    }
    return;
  }
  // N(curr) and N(prev) are both sorted by destination, so one cursor
  // into N(prev), placed once per call and only ever moved forward,
  // answers every HasEdge(prev, dst) of the range in order.
  const auto prev_neighbors = graph.Neighbors(state.prev);
  const VertexId* const prev_end =
      prev_neighbors.data() + prev_neighbors.size();
  const VertexId* cursor =
      std::lower_bound(prev_neighbors.data(), prev_end, dsts[0]);
  for (size_t j = 0; j < n; ++j) {
    const VertexId dst = dsts[j];
    cursor = AdvanceTo(cursor, prev_end, dst);
    Weight scale = distant_scale_;  // Eq. (2c): w*/q
    if (dst == state.prev) {
      scale = return_scale_;  // Eq. (2a): w*/p
    } else if (cursor != prev_end && *cursor == dst) {
      scale = kWeightScale;  // Eq. (2b): w*
    }
    out[j] = weights[j] * scale;
  }
}

PprApp::PprApp(double alpha) : alpha_(alpha) {
  LIGHTRW_CHECK(alpha > 0.0 && alpha < 1.0);
}

Weight PprApp::DynamicWeight(const CsrGraph& /*graph*/,
                             const WalkState& /*state*/, VertexId /*dst*/,
                             Weight static_weight,
                             Relation /*relation*/) const {
  return static_weight;
}

Weight StaticWalkApp::DynamicWeight(const CsrGraph& /*graph*/,
                                    const WalkState& /*state*/,
                                    VertexId /*dst*/, Weight static_weight,
                                    Relation /*relation*/) const {
  return static_weight;
}

std::vector<Relation> MakeRandomRelationPath(const CsrGraph& graph,
                                             uint32_t length, uint64_t seed) {
  LIGHTRW_CHECK(length >= 1);
  // Collect the relations that actually occur so every path entry is
  // realizable somewhere in the graph.
  bool seen[256] = {};
  for (const Relation r : graph.col_relation()) {
    seen[r] = true;
  }
  std::vector<Relation> present;
  for (int r = 0; r < 256; ++r) {
    if (seen[r]) {
      present.push_back(static_cast<Relation>(r));
    }
  }
  LIGHTRW_CHECK(!present.empty());
  rng::Xoshiro256StarStar gen(seed);
  std::vector<Relation> path(length);
  for (auto& r : path) {
    r = present[gen.NextBounded(present.size())];
  }
  return path;
}

std::vector<WalkQuery> MakeVertexQueries(const CsrGraph& graph,
                                         uint32_t length, uint64_t seed,
                                         size_t max_queries) {
  std::vector<WalkQuery> queries;
  queries.reserve(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) > 0) {
      queries.push_back(WalkQuery{v, length});
    }
  }
  // Fisher-Yates shuffle, as ThunderRW shuffles its query set.
  rng::Xoshiro256StarStar gen(seed);
  for (size_t i = queries.size(); i > 1; --i) {
    const size_t j = gen.NextBounded(i);
    std::swap(queries[i - 1], queries[j]);
  }
  if (max_queries != 0 && queries.size() > max_queries) {
    queries.resize(max_queries);
  }
  return queries;
}

}  // namespace lightrw::apps
