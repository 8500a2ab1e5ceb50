#include "apps/weighted_metapath.h"

#include <algorithm>

#include "common/check.h"

namespace lightrw::apps {

WeightedMetaPathApp::WeightedMetaPathApp(
    std::vector<RelationTable> step_tables)
    : tables_(std::move(step_tables)) {
  LIGHTRW_CHECK(!tables_.empty());
}

WeightedMetaPathApp WeightedMetaPathApp::FromRelationPath(
    const std::vector<Relation>& path) {
  LIGHTRW_CHECK(!path.empty());
  std::vector<RelationTable> tables(path.size());
  for (size_t t = 0; t < path.size(); ++t) {
    tables[t].fill(0);
    tables[t][path[t]] = 1;
  }
  return WeightedMetaPathApp(std::move(tables));
}

Weight WeightedMetaPathApp::DynamicWeight(const CsrGraph& /*graph*/,
                                          const WalkState& state,
                                          VertexId /*dst*/,
                                          Weight static_weight,
                                          Relation relation) const {
  if (state.step >= tables_.size()) {
    return 0;
  }
  return static_weight * tables_[state.step][relation];
}

void WeightedMetaPathApp::DynamicWeights(const CsrGraph& graph,
                                         const WalkState& state,
                                         uint32_t offset,
                                         std::span<Weight> out) const {
  if (state.step >= tables_.size()) {
    std::fill(out.begin(), out.end(), Weight{0});
    return;
  }
  const RelationTable& table = tables_[state.step];
  const Weight* weights = graph.NeighborWeights(state.curr).data() + offset;
  const Relation* relations =
      graph.NeighborRelations(state.curr).data() + offset;
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = weights[j] * table[relations[j]];
  }
}

}  // namespace lightrw::apps
