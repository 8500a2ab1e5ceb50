#include <gtest/gtest.h>

#include "apps/walk_app.h"
#include "apps/weighted_metapath.h"
#include "graph/builder.h"

namespace lightrw::apps {
namespace {

using graph::GraphBuilder;

CsrGraph MakeLabeledTriangle() {
  // 0 -> 1 (rel 1), 1 -> 2 (rel 2), 2 -> 0 (rel 1), plus 0 -> 2 (rel 2).
  GraphBuilder builder(3, false);
  builder.AddEdge(0, 1, /*weight=*/5, /*relation=*/1);
  builder.AddEdge(1, 2, /*weight=*/7, /*relation=*/2);
  builder.AddEdge(2, 0, /*weight=*/2, /*relation=*/1);
  builder.AddEdge(0, 2, /*weight=*/3, /*relation=*/2);
  return std::move(builder).Build();
}

TEST(MetaPathAppTest, MatchingRelationKeepsWeight) {
  const CsrGraph g = MakeLabeledTriangle();
  MetaPathApp app({1, 2});
  WalkState state;
  state.step = 0;
  state.curr = 0;
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 5, 1), 5u);  // rel 1 at step 0
  EXPECT_EQ(app.DynamicWeight(g, state, 2, 3, 2), 0u);  // rel 2 mismatched
  state.step = 1;
  EXPECT_EQ(app.DynamicWeight(g, state, 2, 7, 2), 7u);
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 5, 1), 0u);
}

TEST(MetaPathAppTest, BeyondPathNothingSampleable) {
  const CsrGraph g = MakeLabeledTriangle();
  MetaPathApp app({1});
  WalkState state;
  state.step = 1;  // path length is 1
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 5, 1), 0u);
}

TEST(MetaPathAppTest, DoesNotNeedPrevNeighbors) {
  MetaPathApp app({1});
  EXPECT_FALSE(app.needs_prev_neighbors());
  EXPECT_EQ(app.name(), "MetaPath");
}

TEST(Node2VecAppTest, FirstStepIsStatic) {
  const CsrGraph g = MakeLabeledTriangle();
  Node2VecApp app(/*p=*/2.0, /*q=*/0.5);
  WalkState state;
  state.curr = 0;
  state.prev = graph::kInvalidVertex;
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 5, 1),
            5u * Node2VecApp::kWeightScale);
}

TEST(Node2VecAppTest, SecondOrderCases) {
  // Graph: 1 -> {0, 2, 3}; 0 -> 2 exists; 0 -> 3 does not.
  GraphBuilder builder(4, false);
  builder.AddEdge(1, 0, 1, 0);
  builder.AddEdge(1, 2, 1, 0);
  builder.AddEdge(1, 3, 1, 0);
  builder.AddEdge(0, 2, 1, 0);
  builder.AddEdge(0, 1, 1, 0);
  const CsrGraph g = std::move(builder).Build();

  Node2VecApp app(/*p=*/2.0, /*q=*/0.5);
  WalkState state;
  state.curr = 1;
  state.prev = 0;
  const Weight scale = Node2VecApp::kWeightScale;
  // Return edge (dst == prev): w/p.
  EXPECT_EQ(app.DynamicWeight(g, state, 0, 4, 0), 4u * scale / 2);
  // dst adjacent to prev: w.
  EXPECT_EQ(app.DynamicWeight(g, state, 2, 4, 0), 4u * scale);
  // dst not adjacent to prev: w/q = 2w.
  EXPECT_EQ(app.DynamicWeight(g, state, 3, 4, 0), 4u * scale * 2);
}

TEST(Node2VecAppTest, NeedsPrevNeighbors) {
  Node2VecApp app(2.0, 0.5);
  EXPECT_TRUE(app.needs_prev_neighbors());
  EXPECT_DOUBLE_EQ(app.p(), 2.0);
  EXPECT_DOUBLE_EQ(app.q(), 0.5);
}

TEST(Node2VecAppTest, FractionalScalesRound) {
  Node2VecApp app(/*p=*/3.0, /*q=*/7.0);
  const CsrGraph g = MakeLabeledTriangle();
  WalkState state;
  state.curr = 0;
  state.prev = 1;
  // 1/p = 85.33/256, rounds to 85.
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 1, 0), 85u);
}

TEST(StaticWalkAppTest, PassesWeightThrough) {
  const CsrGraph g = MakeLabeledTriangle();
  StaticWalkApp app;
  WalkState state;
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 9, 3), 9u);
  EXPECT_FALSE(app.needs_prev_neighbors());
}

TEST(RelationPathTest, OnlyUsesPresentRelations) {
  const CsrGraph g = MakeLabeledTriangle();  // relations 1 and 2 only
  const auto path = MakeRandomRelationPath(g, 64, 5);
  ASSERT_EQ(path.size(), 64u);
  for (const Relation r : path) {
    EXPECT_TRUE(r == 1 || r == 2);
  }
}

TEST(RelationPathTest, DeterministicPerSeed) {
  const CsrGraph g = MakeLabeledTriangle();
  EXPECT_EQ(MakeRandomRelationPath(g, 16, 9), MakeRandomRelationPath(g, 16, 9));
}

TEST(VertexQueriesTest, OnePerNonIsolatedVertex) {
  GraphBuilder builder(5, false);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(3, 0);
  // Vertex 2 and 4 have out-degree zero.
  const CsrGraph g = std::move(builder).Build();
  const auto queries = MakeVertexQueries(g, /*length=*/5, /*seed=*/1);
  EXPECT_EQ(queries.size(), 3u);
  for (const auto& q : queries) {
    EXPECT_GT(g.Degree(q.start), 0u);
    EXPECT_EQ(q.length, 5u);
  }
}

TEST(VertexQueriesTest, ShuffledAndTruncated) {
  GraphBuilder builder(100, false);
  for (graph::VertexId v = 0; v < 100; ++v) {
    builder.AddEdge(v, (v + 1) % 100);
  }
  const CsrGraph g = std::move(builder).Build();
  const auto all = MakeVertexQueries(g, 3, 42);
  EXPECT_EQ(all.size(), 100u);
  bool shuffled = false;
  for (size_t i = 0; i < all.size(); ++i) {
    shuffled |= all[i].start != i;
  }
  EXPECT_TRUE(shuffled);
  const auto capped = MakeVertexQueries(g, 3, 42, /*max_queries=*/10);
  EXPECT_EQ(capped.size(), 10u);
}

graph::CsrGraph MakeRelationGraph() {
  graph::GraphBuilder builder(3, false);
  builder.AddEdge(0, 1, /*weight=*/2, /*relation=*/1);
  builder.AddEdge(0, 2, /*weight=*/2, /*relation=*/2);
  return std::move(builder).Build();
}

TEST(WeightedMetaPathTest, BinaryTablesMatchPlainMetaPath) {
  const graph::CsrGraph g = MakeRelationGraph();
  const std::vector<graph::Relation> path = {1, 2};
  const MetaPathApp plain(path);
  const auto weighted = WeightedMetaPathApp::FromRelationPath(path);
  WalkState state;
  state.curr = 0;
  for (uint32_t step = 0; step < 3; ++step) {
    state.step = step;
    for (graph::VertexId dst : {1u, 2u}) {
      for (graph::Relation r : {1, 2}) {
        EXPECT_EQ(plain.DynamicWeight(g, state, dst, 2, r),
                  weighted.DynamicWeight(g, state, dst, 2, r))
            << "step " << step << " rel " << int(r);
      }
    }
  }
}

TEST(WeightedMetaPathTest, GradedRelationWeights) {
  const graph::CsrGraph g = MakeRelationGraph();
  WeightedMetaPathApp::RelationTable table{};
  table[1] = 3;  // prefer relation 1 3:1 over relation 2
  table[2] = 1;
  WeightedMetaPathApp app({table});
  WalkState state;
  state.step = 0;
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 2, 1), 6u);
  EXPECT_EQ(app.DynamicWeight(g, state, 2, 2, 2), 2u);
  EXPECT_EQ(app.DynamicWeight(g, state, 2, 2, 0), 0u);
  state.step = 1;  // beyond the path
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 2, 1), 0u);
}

TEST(WeightedMetaPathTest, PathLength) {
  const auto app = WeightedMetaPathApp::FromRelationPath({1, 2, 1});
  EXPECT_EQ(app.path_length(), 3u);
  EXPECT_EQ(app.name(), "WeightedMetaPath");
}

}  // namespace
}  // namespace lightrw::apps
