#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "apps/walk_app.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/uniform_engine.h"

namespace lightrw::core {
namespace {

using apps::WalkQuery;
using graph::CsrGraph;
using graph::VertexId;

AcceleratorConfig TestConfig() {
  AcceleratorConfig config;
  config.num_instances = 1;
  config.seed = 3;
  return config;
}

TEST(UniformCycleEngineTest, ProducesValidWalks) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kYoutube,
                                               /*scale_shift=*/11, 5);
  UniformCycleEngine engine(&g, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 200);
  baseline::WalkOutput output;
  const auto stats = engine.Run(queries, &output);
  EXPECT_EQ(stats.queries, queries.size());
  ASSERT_EQ(output.num_paths(), queries.size());
  for (size_t i = 0; i < output.num_paths(); ++i) {
    const auto path = output.Path(i);
    EXPECT_EQ(path[0], queries[i].start);
    for (size_t s = 1; s < path.size(); ++s) {
      EXPECT_TRUE(g.HasEdge(path[s - 1], path[s]));
    }
  }
}

TEST(UniformCycleEngineTest, SamplesUniformly) {
  graph::GraphBuilder builder(4, false);
  builder.AddEdge(0, 1, /*weight=*/100);  // weights must be ignored
  builder.AddEdge(0, 2, 1);
  builder.AddEdge(0, 3, 1);
  const CsrGraph g = std::move(builder).Build();
  UniformCycleEngine engine(&g, TestConfig());
  constexpr int kTrials = 30000;
  const std::vector<WalkQuery> queries(kTrials, WalkQuery{0, 1});
  baseline::WalkOutput output;
  engine.Run(queries, &output);
  std::map<VertexId, int> counts;
  for (size_t i = 0; i < output.num_paths(); ++i) {
    ++counts[output.Path(i)[1]];
  }
  const double expected = kTrials / 3.0;
  for (VertexId v = 1; v <= 3; ++v) {
    EXPECT_NEAR(counts[v], expected, 5 * std::sqrt(expected)) << v;
  }
}

TEST(UniformCycleEngineTest, TouchesOneRecordPerStep) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kOrkut,
                                               /*scale_shift=*/10, 5);
  UniformCycleEngine engine(&g, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 300);
  const auto stats = engine.Run(queries);
  // Uniform sampling reads exactly one edge record per step.
  EXPECT_EQ(stats.edges_examined, stats.steps);
  // LightRW streams whole adjacency lists: far more bytes per step on a
  // dense graph.
  apps::StaticWalkApp app;
  CycleEngine lightrw(&g, &app, TestConfig());
  const auto lightrw_stats = lightrw.Run(queries);
  EXPECT_GT(
      lightrw_stats.dram.bytes / std::max<uint64_t>(1, lightrw_stats.steps),
      stats.dram.bytes / std::max<uint64_t>(1, stats.steps));
}

TEST(UniformCycleEngineTest, FasterThanGeneralEngineOnUniformWalks) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kOrkut,
                                               /*scale_shift=*/10, 5);
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 500);
  UniformCycleEngine uniform(&g, TestConfig());
  apps::StaticWalkApp app;
  CycleEngine general(&g, &app, TestConfig());
  const auto uniform_stats = uniform.Run(queries);
  const auto general_stats = general.Run(queries);
  EXPECT_LT(uniform_stats.cycles, general_stats.cycles);
}

TEST(UniformCycleEngineTest, CollectsLatencyPerQuery) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kYoutube,
                                               /*scale_shift=*/12, 5);
  AcceleratorConfig config = TestConfig();
  config.num_instances = 2;
  config.collect_latency = true;
  const auto queries = apps::MakeVertexQueries(g, 5, 3, 100);
  const auto stats = UniformCycleEngine(&g, config).Run(queries);
  EXPECT_EQ(stats.query_latency_cycles.count(), queries.size());
  EXPECT_GT(stats.query_latency_cycles.Mean(), 0.0);
}

TEST(UniformCycleEngineTest, Deterministic) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kYoutube,
                                               /*scale_shift=*/12, 5);
  const auto queries = apps::MakeVertexQueries(g, 5, 3, 100);
  const auto a = UniformCycleEngine(&g, TestConfig()).Run(queries);
  const auto b = UniformCycleEngine(&g, TestConfig()).Run(queries);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.steps, b.steps);
}

}  // namespace
}  // namespace lightrw::core
