#include "checks.h"

namespace hostbench {

namespace {

using lightrw::apps::WalkState;
using lightrw::graph::CsrGraph;
using lightrw::graph::VertexId;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void Mix(uint64_t* hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xff;
    *hash *= kFnvPrime;
  }
}

// True if some edge out of state.curr has a nonzero weight under `app`.
bool HasSampleableEdge(const CsrGraph& graph, const lightrw::apps::WalkApp& app,
                       const WalkState& state) {
  const auto neighbors = graph.Neighbors(state.curr);
  const auto weights = graph.NeighborWeights(state.curr);
  const auto relations = graph.NeighborRelations(state.curr);
  for (size_t j = 0; j < neighbors.size(); ++j) {
    if (app.DynamicWeight(graph, state, neighbors[j], weights[j],
                          relations[j]) != 0) {
      return true;
    }
  }
  return false;
}

// True if `graph` has an edge u -> v of relation `relation`.
bool HasRelationEdge(const CsrGraph& graph, VertexId u, VertexId v,
                     lightrw::graph::Relation relation) {
  const auto neighbors = graph.Neighbors(u);
  const auto relations = graph.NeighborRelations(u);
  for (size_t j = 0; j < neighbors.size(); ++j) {
    if (neighbors[j] == v && relations[j] == relation) {
      return true;
    }
  }
  return false;
}

std::string Violation(size_t walk, const std::string& what) {
  return "walk " + std::to_string(walk) + ": " + what;
}

}  // namespace

uint64_t PathDigest(const lightrw::baseline::WalkOutput& paths) {
  uint64_t hash = kFnvOffset;
  Mix(&hash, paths.num_paths());
  for (size_t i = 0; i < paths.num_paths(); ++i) {
    const auto path = paths.Path(i);
    Mix(&hash, path.size());
    for (VertexId v : path) {
      Mix(&hash, v);
    }
  }
  return hash;
}

std::string CheckPaths(const Inputs& in,
                       const lightrw::baseline::WalkOutput& paths) {
  const CsrGraph& graph = in.graph;
  const lightrw::apps::WalkApp& app = *in.app;
  const auto* metapath =
      dynamic_cast<const lightrw::apps::MetaPathApp*>(&app);
  if (paths.num_paths() != in.queries.size()) {
    return "expected " + std::to_string(in.queries.size()) + " paths, got " +
           std::to_string(paths.num_paths());
  }
  for (size_t i = 0; i < paths.num_paths(); ++i) {
    const auto path = paths.Path(i);
    const lightrw::apps::WalkQuery& query = in.queries[i];
    if (path.empty()) {
      return Violation(i, "no path delivered");
    }
    if (path[0] != query.start) {
      return Violation(i, "does not start at its query vertex");
    }
    const size_t steps = path.size() - 1;
    if (steps > query.length) {
      return Violation(i, "longer than requested");
    }
    WalkState state;
    state.curr = path[0];
    for (size_t s = 0; s < steps; ++s) {
      const VertexId next = path[s + 1];
      if (next >= graph.num_vertices() || !graph.HasEdge(state.curr, next)) {
        return Violation(i, "hop " + std::to_string(s) + " is not an edge");
      }
      if (metapath != nullptr &&
          (s >= metapath->relation_path().size() ||
           !HasRelationEdge(graph, state.curr, next,
                            metapath->relation_path()[s]))) {
        return Violation(i, "hop " + std::to_string(s) +
                                " breaks the relation schema");
      }
      state.prev = state.curr;
      state.curr = next;
      state.step = static_cast<uint32_t>(s + 1);
    }
    if (steps < query.length &&
        HasSampleableEdge(graph, app, state)) {
      return Violation(i, "stopped early with a sampleable neighbour");
    }
  }
  return "";
}

}  // namespace hostbench
