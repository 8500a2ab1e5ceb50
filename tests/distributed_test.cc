#include <gtest/gtest.h>

#include "apps/ppr.h"
#include "apps/walk_app.h"
#include "distributed/config_validation.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::distributed {
namespace {

using apps::StaticWalkApp;
using apps::WalkQuery;
using graph::CsrGraph;
using graph::VertexId;

CsrGraph TestGraph() {
  return graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                   /*scale_shift=*/11, /*seed=*/4);
}

class PartitionStrategyTest
    : public ::testing::TestWithParam<PartitionStrategy> {};

TEST_P(PartitionStrategyTest, CoversAllVerticesWithValidOwners) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 4, GetParam());
  EXPECT_EQ(p.num_boards(), 4);
  EXPECT_EQ(p.owners().size(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(p.OwnerOf(v), 4);
  }
}

TEST_P(PartitionStrategyTest, ReasonableEdgeBalance) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 4, GetParam());
  // No board should hold more than 2x its fair share of edges.
  EXPECT_LT(p.EdgeImbalance(g), 2.0);
}

TEST_P(PartitionStrategyTest, CutRatioInUnitInterval) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 4, GetParam());
  const double cut = p.CutRatio(g);
  EXPECT_GE(cut, 0.0);
  EXPECT_LE(cut, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Strategies, PartitionStrategyTest,
                         ::testing::Values(PartitionStrategy::kHash,
                                           PartitionStrategy::kRange,
                                           PartitionStrategy::kGreedy),
                         [](const auto& info) {
                           switch (info.param) {
                             case PartitionStrategy::kHash:
                               return "hash";
                             case PartitionStrategy::kRange:
                               return "range";
                             case PartitionStrategy::kGreedy:
                               return "greedy";
                           }
                           return "unknown";
                         });

TEST(PartitionTest, SingleBoardHasNoCut) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 1, PartitionStrategy::kHash);
  EXPECT_DOUBLE_EQ(p.CutRatio(g), 0.0);
  EXPECT_DOUBLE_EQ(p.EdgeImbalance(g), 1.0);
}

TEST(PartitionTest, GreedyCutsLessThanHash) {
  // The whole point of the greedy partitioner: exploiting structure cuts
  // fewer edges than an oblivious hash.
  const CsrGraph g = TestGraph();
  const Partition hash = MakePartition(g, 4, PartitionStrategy::kHash);
  const Partition greedy = MakePartition(g, 4, PartitionStrategy::kGreedy);
  EXPECT_LT(greedy.CutRatio(g), hash.CutRatio(g));
}

TEST(PartitionTest, EdgeCountsSumToTotal) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 8, PartitionStrategy::kRange);
  const auto counts = p.EdgeCounts(g);
  uint64_t total = 0;
  for (const uint64_t c : counts) {
    total += c;
  }
  EXPECT_EQ(total, g.num_edges());
}

DistributedConfig TestConfig() {
  DistributedConfig config;
  config.board.num_instances = 1;
  config.board.seed = 13;
  return config;
}

// One test per rejected field: the validator must name the offending
// field so CLI users can fix their flags.
TEST(DistributedConfigValidationTest, AcceptsDefaults) {
  EXPECT_TRUE(ValidateDistributedConfig(DistributedConfig()).ok());
}

TEST(DistributedConfigValidationTest, RejectsZeroWalkerMessageBytes) {
  DistributedConfig config;
  config.walker_message_bytes = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("walker_message_bytes"),
            std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsZeroInflightWalkersPerBoard) {
  DistributedConfig config;
  config.inflight_walkers_per_board = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("inflight_walkers_per_board"),
            std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsZeroSamplerParallelism) {
  DistributedConfig config;
  config.board.sampler_parallelism = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("sampler_parallelism"), std::string::npos);
}

// ClusterSim and WalkService must accept exactly the lane counts every
// other engine accepts: powers of two up to 64.
TEST(DistributedConfigValidationTest, RejectsNonPowerOfTwoSamplerParallelism) {
  DistributedConfig config;
  config.board.sampler_parallelism = 12;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("board.sampler_parallelism"),
            std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsSamplerParallelismAbove64) {
  DistributedConfig config;
  config.board.sampler_parallelism = 128;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("board.sampler_parallelism"),
            std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsZeroBoardInstances) {
  DistributedConfig config;
  config.board.num_instances = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_instances"), std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsBadNestedDramConfig) {
  DistributedConfig config;
  config.board.dram.bus_bytes = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bus_bytes"), std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsBadNestedLinkConfig) {
  DistributedConfig config;
  config.link.bytes_per_cycle = 0.0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bytes_per_cycle"), std::string::npos);
}

TEST(DistributedEngineTest, RunsAllQueriesWithValidWalks) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  DistributedEngine engine(&g, &app, &p, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 300);
  baseline::WalkOutput output;
  const auto stats = engine.Run(queries, &output).value();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_GT(stats.steps, 0u);
  EXPECT_GT(stats.cycles, 0u);
  ASSERT_EQ(output.num_paths(), queries.size());
  for (size_t i = 0; i < output.num_paths(); ++i) {
    const auto path = output.Path(i);
    EXPECT_EQ(path[0], queries[i].start);
    for (size_t s = 1; s < path.size(); ++s) {
      EXPECT_TRUE(g.HasEdge(path[s - 1], path[s]));
    }
  }
}

TEST(DistributedEngineTest, MigrationsTrackCutRatio) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  DistributedEngine engine(&g, &app, &p, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 500);
  const auto stats = engine.Run(queries).value();
  EXPECT_GT(stats.migrations, 0u);
  // Migration ratio should be in the neighborhood of the edge cut ratio
  // (walks sample edges roughly like the cut measures them).
  EXPECT_NEAR(stats.MigrationRatio(), p.CutRatio(g), 0.25);
  EXPECT_EQ(stats.network.messages, stats.migrations);
}

TEST(DistributedEngineTest, SingleBoardNeverMigrates) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 1, PartitionStrategy::kHash);
  DistributedEngine engine(&g, &app, &p, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 200);
  const auto stats = engine.Run(queries).value();
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_EQ(stats.network.messages, 0u);
}

TEST(DistributedEngineTest, MoreBoardsIncreaseThroughput) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 2000);
  const Partition one = MakePartition(g, 1, PartitionStrategy::kGreedy);
  const Partition four = MakePartition(g, 4, PartitionStrategy::kGreedy);
  const auto stats_one =
      DistributedEngine(&g, &app, &one, TestConfig()).Run(queries).value();
  const auto stats_four =
      DistributedEngine(&g, &app, &four, TestConfig()).Run(queries).value();
  EXPECT_GT(stats_four.StepsPerSecond(), stats_one.StepsPerSecond());
}

TEST(DistributedEngineTest, GreedyPartitionBeatsHashOnTime) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 2000);
  const Partition hash = MakePartition(g, 8, PartitionStrategy::kHash);
  const Partition greedy = MakePartition(g, 8, PartitionStrategy::kGreedy);
  const auto stats_hash =
      DistributedEngine(&g, &app, &hash, TestConfig()).Run(queries).value();
  const auto stats_greedy =
      DistributedEngine(&g, &app, &greedy, TestConfig()).Run(queries).value();
  EXPECT_LT(stats_greedy.migrations, stats_hash.migrations);
}

TEST(DistributedEngineTest, DeterministicPerSeed) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kRange);
  const auto queries = apps::MakeVertexQueries(g, 6, 3, 200);
  const auto a =
      DistributedEngine(&g, &app, &p, TestConfig()).Run(queries).value();
  const auto b =
      DistributedEngine(&g, &app, &p, TestConfig()).Run(queries).value();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(DistributedEngineTest, PprStopsEarly) {
  const CsrGraph g = TestGraph();
  apps::PprApp app(0.3);
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  DistributedEngine engine(&g, &app, &p, TestConfig());
  const std::vector<WalkQuery> queries(2000, WalkQuery{0, 200});
  const auto stats = engine.Run(queries).value();
  const double avg_steps =
      static_cast<double>(stats.steps) / static_cast<double>(stats.queries);
  EXPECT_LT(avg_steps, 10.0);  // geometric with alpha=0.3 -> ~3.3
}

TEST(DistributedEngineTest, ReplicatedModeNeverMigrates) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  DistributedConfig config = TestConfig();
  config.replicate_graph = true;
  DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 500);
  const auto stats = engine.Run(queries).value();
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_EQ(stats.per_board_graph_bytes, g.ModeledByteSize());
}

TEST(DistributedEngineTest, StagedWrsAblationCostsCyclesNotPaths) {
  // board.enable_wrs_pipeline = false models the staged sampler on every
  // board: the weight buffer and sampling table round-trip through DRAM,
  // so the run takes longer, but the walks are keyed per ticket and stay
  // identical.
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  DistributedConfig pipelined = TestConfig();
  pipelined.replicate_graph = true;
  DistributedConfig staged = pipelined;
  staged.board.enable_wrs_pipeline = false;
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 300);
  baseline::WalkOutput pipelined_paths;
  baseline::WalkOutput staged_paths;
  const auto pipelined_stats = DistributedEngine(&g, &app, &p, pipelined)
                                   .Run(queries, &pipelined_paths)
                                   .value();
  const auto staged_stats = DistributedEngine(&g, &app, &p, staged)
                                .Run(queries, &staged_paths)
                                .value();
  EXPECT_GT(staged_stats.cycles, pipelined_stats.cycles);
  EXPECT_GT(staged_stats.dram.requests, pipelined_stats.dram.requests);
  EXPECT_EQ(staged_stats.steps, pipelined_stats.steps);
  EXPECT_EQ(staged_paths.vertices, pipelined_paths.vertices);
  EXPECT_EQ(staged_paths.offsets, pipelined_paths.offsets);
}

TEST(DistributedEngineTest, PartitionedModeNeedsLessMemoryPerBoard) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kGreedy);
  DistributedConfig partitioned = TestConfig();
  DistributedConfig replicated = TestConfig();
  replicated.replicate_graph = true;
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 300);
  const auto part_stats =
      DistributedEngine(&g, &app, &p, partitioned).Run(queries).value();
  const auto repl_stats =
      DistributedEngine(&g, &app, &p, replicated).Run(queries).value();
  EXPECT_LT(part_stats.per_board_graph_bytes,
            repl_stats.per_board_graph_bytes);
  // Replication avoids the network, so it is at least as fast.
  EXPECT_LE(repl_stats.cycles, part_stats.cycles * 11 / 10);
}

TEST(NetworkLinkTest, SerializesAndDelays) {
  hwsim::LinkConfig config;
  config.bytes_per_cycle = 32.0;
  config.latency_cycles = 100;
  config.header_bytes = 32;
  hwsim::NetworkLink link(config);
  // 32B payload + 32B header at 32 B/cycle = 2 cycles wire time.
  const auto first = link.Send(0, 32);
  EXPECT_EQ(first, 2u + 100);
  const auto second = link.Send(0, 32);  // queues behind the first
  EXPECT_EQ(second, 4u + 100);
  EXPECT_EQ(link.stats().messages, 2u);
  EXPECT_EQ(link.stats().payload_bytes, 64u);
}

}  // namespace
}  // namespace lightrw::distributed
