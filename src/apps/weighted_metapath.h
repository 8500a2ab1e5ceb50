// Weighted MetaPath walks (Vahedian et al., RecSys'16/'17): a
// generalization of Eq. (1) where each step carries a full per-relation
// weight table instead of a binary match. The plain MetaPath of the paper
// is the special case where the table is 1 for the step's relation and 0
// elsewhere. Useful for multi-relational recommendation, and exercises
// the engines with weight functions whose support is not 0/1.

#ifndef LIGHTRW_APPS_WEIGHTED_METAPATH_H_
#define LIGHTRW_APPS_WEIGHTED_METAPATH_H_

#include <array>
#include <vector>

#include "apps/walk_app.h"

namespace lightrw::apps {

class WeightedMetaPathApp : public WalkApp {
 public:
  // Per-step multiplier of each relation: at step t the dynamic weight of
  // an edge with relation r is static_weight * step_tables[t][r]. Walks
  // terminate past the last step table.
  using RelationTable = std::array<Weight, 256>;

  explicit WeightedMetaPathApp(std::vector<RelationTable> step_tables);

  // Convenience: builds the binary tables equivalent to MetaPathApp.
  static WeightedMetaPathApp FromRelationPath(
      const std::vector<Relation>& path);

  std::string name() const override { return "WeightedMetaPath"; }

  Weight DynamicWeight(const CsrGraph& graph, const WalkState& state,
                       VertexId dst, Weight static_weight,
                       Relation relation) const override;

  void DynamicWeights(const CsrGraph& graph, const WalkState& state,
                      uint32_t offset, std::span<Weight> out) const override;

  size_t path_length() const { return tables_.size(); }

 private:
  std::vector<RelationTable> tables_;
};

}  // namespace lightrw::apps

#endif  // LIGHTRW_APPS_WEIGHTED_METAPATH_H_
