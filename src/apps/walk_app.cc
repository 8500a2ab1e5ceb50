#include "apps/walk_app.h"
#include "apps/ppr.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "common/cpu_features.h"
#include "rng/rng.h"

#ifdef LIGHTRW_AVX512_KERNELS
#include <immintrin.h>
#endif

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

// One Node2Vec range: destinations dsts[0, n) of curr with static weights
// weights[0, n), and N(prev) from its first entry >= dsts[0] on.
struct Node2VecRange {
  const VertexId* dsts;
  const Weight* weights;
  size_t n;
  const VertexId* prev_begin;
  const VertexId* prev_end;
  VertexId prev;
  Weight return_scale;
  Weight distant_scale;
};

// Node2VecRange of curr's neighbors [offset, offset + n), n >= 1, with
// the N(prev) cursor placed by one binary search.
Node2VecRange PlaceRange(const CsrGraph& graph, const WalkState& state,
                         uint32_t offset, size_t n, Weight return_scale,
                         Weight distant_scale) {
  const auto prev_neighbors = graph.Neighbors(state.prev);
  Node2VecRange r;
  r.dsts = graph.Neighbors(state.curr).data() + offset;
  r.weights = graph.NeighborWeights(state.curr).data() + offset;
  r.n = n;
  r.prev_end = prev_neighbors.data() + prev_neighbors.size();
  r.prev_begin = std::lower_bound(prev_neighbors.data(), r.prev_end, r.dsts[0]);
  r.prev = state.prev;
  r.return_scale = return_scale;
  r.distant_scale = distant_scale;
  return r;
}

// Fills `out` and returns true when the range needs no merge: it is
// empty, or the walk has no previous vertex yet and so weighs its first
// step like a static walk.
bool FillWithoutMerge(const CsrGraph& graph, const WalkState& state,
                      uint32_t offset, std::span<Weight> out) {
  if (state.prev != graph::kInvalidVertex) {
    return out.empty();
  }
  const Weight* weights = graph.NeighborWeights(state.curr).data() + offset;
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = weights[j] * Node2VecApp::kWeightScale;
  }
  return true;
}

// Eq. (2) by one galloping cursor into N(prev) per range.
void GallopingMerge(const Node2VecRange& r, Weight* out) {
  const VertexId* cursor = r.prev_begin;
  for (size_t j = 0; j < r.n; ++j) {
    const VertexId dst = r.dsts[j];
    cursor = AdvanceTo(cursor, r.prev_end, dst);
    Weight scale = r.distant_scale;  // Eq. (2c): w*/q
    if (dst == r.prev) {
      scale = r.return_scale;  // Eq. (2a): w*/p
    } else if (cursor != r.prev_end && *cursor == dst) {
      scale = Node2VecApp::kWeightScale;  // Eq. (2b): w*
    }
    out[j] = r.weights[j] * scale;
  }
}

#ifdef LIGHTRW_AVX512_KERNELS

// Destinations per block: one 512-bit vector of 32-bit ids.
constexpr size_t kBlockLanes = 16;

// GCC 12's AVX-512 intrinsics seed results with _mm512_undefined_*(),
// which -Wmaybe-uninitialized flags once inlined (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// min(distance, dst ^ v) per lane: 0 in the lanes whose destination is v.
LIGHTRW_AVX512_TARGET inline __m512i Fold(__m512i distance, __m512i dst,
                                          VertexId v) {
  return _mm512_min_epu32(
      distance, _mm512_xor_si512(dst, _mm512_set1_epi32(static_cast<int>(v))));
}

// Eq. (2) over 16-destination blocks, with no data-dependent branch per
// edge: the only branch left is the exit of each block's N(prev) loop.
// Each N(prev) entry below the block's last destination is compared
// against the whole block and consumed. An entry equal to that last
// destination is tested but not consumed, so a later block (whose
// destinations are all >= it) still meets it, as the galloping cursor
// would.
LIGHTRW_AVX512_TARGET void BlockMerge(const Node2VecRange& r, Weight* out) {
  const __m512i prev = _mm512_set1_epi32(static_cast<int>(r.prev));
  const __m512i return_scale =
      _mm512_set1_epi32(static_cast<int>(r.return_scale));
  const __m512i adjacent_scale =
      _mm512_set1_epi32(static_cast<int>(Node2VecApp::kWeightScale));
  const __m512i distant_scale =
      _mm512_set1_epi32(static_cast<int>(r.distant_scale));
  const VertexId* cursor = r.prev_begin;
  for (size_t b = 0; b < r.n; b += kBlockLanes) {
    const size_t lanes = std::min(kBlockLanes, r.n - b);
    const auto active = static_cast<__mmask16>((1u << lanes) - 1);
    const __m512i dst = _mm512_maskz_loadu_epi32(active, r.dsts + b);
    const VertexId last = r.dsts[b + lanes - 1];
    // A lane's distance reaches 0 once an N(prev) entry equals its
    // destination: xor and unsigned min keep the loop off the mask ports.
    // N(prev) is sorted, so when cursor[3] < last all four entries are;
    // four per trip halve the loop's cost per entry.
    __m512i distance = _mm512_set1_epi32(-1);
    for (; r.prev_end - cursor >= 4 && cursor[3] < last; cursor += 4) {
      distance = Fold(distance, dst, cursor[0]);
      distance = Fold(distance, dst, cursor[1]);
      distance = Fold(distance, dst, cursor[2]);
      distance = Fold(distance, dst, cursor[3]);
    }
    for (; cursor != r.prev_end && *cursor < last; ++cursor) {
      distance = Fold(distance, dst, *cursor);
    }
    __mmask16 adjacent = _mm512_mask_cmpeq_epi32_mask(
        active, distance, _mm512_setzero_si512());
    if (cursor != r.prev_end && *cursor == last) {
      adjacent |= static_cast<__mmask16>(1u << (lanes - 1));
    }
    // Eq. (2c), then (2b), then (2a): the return edge wins.
    __m512i scale =
        _mm512_mask_blend_epi32(adjacent, distant_scale, adjacent_scale);
    scale = _mm512_mask_blend_epi32(_mm512_cmpeq_epi32_mask(dst, prev), scale,
                                    return_scale);
    // The low 32 bits of the product: it wraps exactly like Weight's.
    const __m512i weight = _mm512_maskz_loadu_epi32(active, r.weights + b);
    _mm512_mask_storeu_epi32(out + b, active,
                             _mm512_mullo_epi32(weight, scale));
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // LIGHTRW_AVX512_KERNELS

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
  // A mask select, not a branch per edge, so the loop vectorizes.
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = weights[j] & (Weight{0} - Weight{relations[j] == wanted});
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
  if (FillWithoutMerge(graph, state, offset, out)) {
    return;
  }
  const Node2VecRange range = PlaceRange(graph, state, offset, out.size(),
                                         return_scale_, distant_scale_);
#ifdef LIGHTRW_AVX512_KERNELS
  const auto window = static_cast<size_t>(range.prev_end - range.prev_begin);
  if (window <= kMaxBlockWindowPerEdge * out.size() &&
      HostHasAvx512Kernel()) {
    BlockMerge(range, out.data());
    return;
  }
#endif
  GallopingMerge(range, out.data());
}

void Node2VecApp::DynamicWeightsGalloping(const CsrGraph& graph,
                                          const WalkState& state,
                                          uint32_t offset,
                                          std::span<Weight> out) const {
  if (!FillWithoutMerge(graph, state, offset, out)) {
    GallopingMerge(PlaceRange(graph, state, offset, out.size(),
                              return_scale_, distant_scale_),
                   out.data());
  }
}

bool Node2VecApp::DynamicWeightsBlocks(
    [[maybe_unused]] const CsrGraph& graph,
    [[maybe_unused]] const WalkState& state, [[maybe_unused]] uint32_t offset,
    [[maybe_unused]] std::span<Weight> out) const {
#ifdef LIGHTRW_AVX512_KERNELS
  if (!HostHasAvx512Kernel()) {
    return false;
  }
  if (!FillWithoutMerge(graph, state, offset, out)) {
    BlockMerge(PlaceRange(graph, state, offset, out.size(), return_scale_,
                          distant_scale_),
               out.data());
  }
  return true;
#else
  return false;
#endif
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
