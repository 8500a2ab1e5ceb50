// Compressed sparse row graph representation, matching the layout LightRW
// stores in FPGA DRAM: a row_index array giving each vertex's adjacency
// offset/degree and a col_index array of edge records sorted by destination.

#ifndef LIGHTRW_GRAPH_CSR_H_
#define LIGHTRW_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "graph/types.h"

namespace lightrw::graph {

// Immutable CSR graph. Construct with GraphBuilder (builder.h).
//
// Adjacency lists are sorted by destination vertex id. That matches the
// paper's layout, lets Node2Vec's weight updater test membership in
// N(prev) with one forward merge per chunk (apps::Node2VecApp), and gives
// O(log d) point queries (HasEdge) to the per-edge weight definition, the
// CPU rejection baseline and the checkers.
class CsrGraph {
 public:
  CsrGraph() = default;

  // Movable but not copyable: graphs can be hundreds of MB.
  CsrGraph(CsrGraph&&) = default;
  CsrGraph& operator=(CsrGraph&&) = default;
  CsrGraph(const CsrGraph&) = delete;
  CsrGraph& operator=(const CsrGraph&) = delete;

  VertexId num_vertices() const {
    return static_cast<VertexId>(row_index_.size() - 1);
  }
  EdgeIndex num_edges() const { return row_index_.back(); }

  // Offset of v's adjacency list in the col arrays.
  EdgeIndex OutOffset(VertexId v) const {
    LIGHTRW_DCHECK(v < num_vertices());
    return row_index_[v];
  }

  uint32_t Degree(VertexId v) const {
    LIGHTRW_DCHECK(v < num_vertices());
    return static_cast<uint32_t>(row_index_[v + 1] - row_index_[v]);
  }

  // Neighbor ids of v, sorted ascending.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {col_dst_.data() + OutOffset(v), Degree(v)};
  }

  // Static edge weights of v's adjacency, parallel to Neighbors(v).
  std::span<const Weight> NeighborWeights(VertexId v) const {
    return {col_weight_.data() + OutOffset(v), Degree(v)};
  }

  // Edge relations of v's adjacency, parallel to Neighbors(v).
  std::span<const Relation> NeighborRelations(VertexId v) const {
    return {col_relation_.data() + OutOffset(v), Degree(v)};
  }

  Label VertexLabel(VertexId v) const {
    LIGHTRW_DCHECK(v < num_vertices());
    return labels_[v];
  }

  // True iff the directed edge (u, v) exists. O(log Degree(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  // Raw arrays, used by the simulator's memory layout model.
  std::span<const EdgeIndex> row_index() const { return row_index_; }
  std::span<const VertexId> col_dst() const { return col_dst_; }
  std::span<const Weight> col_weight() const { return col_weight_; }
  std::span<const Relation> col_relation() const { return col_relation_; }
  std::span<const Label> labels() const { return labels_; }

  uint32_t max_degree() const { return max_degree_; }
  double AverageDegree() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(num_edges()) / num_vertices();
  }

  // Number of vertices with degree > 0 (the paper issues one query per
  // such vertex).
  VertexId CountNonIsolatedVertices() const;

  // Total bytes of the modeled DRAM image (row_index + col_index + labels).
  uint64_t ModeledByteSize() const {
    return (num_vertices() + 1) * kBytesPerRowRecord +
           num_edges() * kBytesPerEdgeRecord + num_vertices();
  }

  // Short human-readable summary, e.g. "|V|=4800 |E|=68900 davg=14.4".
  std::string Summary() const;

 private:
  friend class GraphBuilder;

  std::vector<EdgeIndex> row_index_ = {0};  // size |V|+1
  std::vector<VertexId> col_dst_;           // size |E|
  std::vector<Weight> col_weight_;          // size |E|
  std::vector<Relation> col_relation_;      // size |E|
  std::vector<Label> labels_;               // size |V|
  uint32_t max_degree_ = 0;
};

}  // namespace lightrw::graph

#endif  // LIGHTRW_GRAPH_CSR_H_
