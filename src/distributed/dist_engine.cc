#include "distributed/dist_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_thread_pool.h"
#include "distributed/config_validation.h"
#include "lightrw/sharding.h"

namespace lightrw::distributed {

DistributedEngine::DistributedEngine(const graph::CsrGraph* graph,
                                     const apps::WalkApp* app,
                                     const Partition* partition,
                                     const DistributedConfig& config)
    : graph_(graph), app_(app), partition_(partition), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(app != nullptr);
  LIGHTRW_CHECK(partition != nullptr);
  LIGHTRW_CHECK_EQ(partition->owners().size(), graph->num_vertices());
}

StatusOr<DistributedRunStats> DistributedEngine::Run(
    std::span<const apps::WalkQuery> queries,
    baseline::WalkOutput* output) {
  LIGHTRW_RETURN_IF_ERROR(ValidateDistributedConfig(config_));
  const BoardId num_boards = partition_->num_boards();
  LIGHTRW_RETURN_IF_ERROR(CheckFailoverSatisfiable(config_, num_boards));

  std::vector<std::vector<graph::VertexId>> finished;
  if (output != nullptr) {
    finished.resize(queries.size());
  }

  DistributedRunStats stats;
  // Replicated boards never exchange walkers, so each board is an
  // independent shard: its own ClusterSim, driven closed-loop from its
  // own round-robin slice of the query set, refilled by its own retires.
  // Fault injection couples boards (failover recovers walkers onto
  // survivors), so any enabled fault schedule falls back to the single
  // coupled event loop below.
  const bool sharded = config_.replicate_graph &&
                       !config_.board.faults.enabled && num_boards > 1;
  if (sharded) {
    // All vertices on local board 0 of every shard (replication makes
    // ownership irrelevant; the partition only sizes the sim).
    const Partition single(
        std::vector<BoardId>(graph_->num_vertices(), 0), 1);
    const core::QuerySplit split = core::SplitRoundRobin(queries, num_boards);
    // Tickets (= trace ids) are disjoint across shards, so each shard
    // records into private sinks, merged in shard order below.
    core::ShardSinks sinks(config_.board, num_boards);
    std::vector<DistributedRunStats> shard_stats(num_boards);
    const uint32_t threads =
        SimThreadPool::ResolveThreads(config_.num_threads);
    SimThreadPool::ParallelFor(threads, num_boards, [&](size_t b) {
      DistributedConfig shard_config = config_;
      shard_config.first_board = static_cast<BoardId>(b);
      sinks.Attach(b, &shard_config.board);
      const std::vector<apps::WalkQuery>& share = split.queries[b];
      const std::vector<size_t>& tickets = split.tickets[b];
      const size_t num_walkers = std::min<size_t>(
          config_.inflight_walkers_per_board, share.size());
      ClusterSim sim(graph_, app_, &single, shard_config,
                     static_cast<uint32_t>(std::max<size_t>(num_walkers,
                                                            1)));
      size_t next_query = 0;
      auto load = [&](hwsim::Cycle at) {
        if (next_query >= share.size()) {
          return;
        }
        const size_t qi = next_query++;
        sim.Launch(tickets[qi], share[qi], /*board=*/0, at);
      };
      sim.set_on_retire([&](const WalkerEnd& end,
                            std::vector<graph::VertexId>&& path) {
        if (output != nullptr) {
          finished[end.ticket] = std::move(path);
        }
        ++shard_stats[b].queries;
        load(end.at);
      });
      for (size_t i = 0; i < num_walkers; ++i) {
        load(0);
      }
      sim.Drain();
      sim.Finalize(&shard_stats[b]);
    });
    sinks.Merge();
    for (BoardId b = 0; b < num_boards; ++b) {
      stats.Accumulate(shard_stats[b]);
    }
    stats.seconds = static_cast<double>(stats.cycles) /
                    config_.board.dram.clock_hz;
  } else {
    const size_t max_inflight = static_cast<size_t>(num_boards) *
                                config_.inflight_walkers_per_board;
    const size_t num_walkers = std::min(max_inflight, queries.size());
    ClusterSim sim(graph_, app_, partition_, config_,
                   static_cast<uint32_t>(num_walkers));

    size_t next_query = 0;
    auto load = [&](hwsim::Cycle at) {
      if (next_query >= queries.size()) {
        return;
      }
      const size_t qi = next_query++;
      const apps::WalkQuery& q = queries[qi];
      // Replicated mode keeps a walker on its initial board for its
      // whole life (any board can serve any vertex); partitioned mode
      // dispatches to whichever board serves the start vertex's share
      // (the owner, its rebuilt spare, or a survivor).
      BoardId board;
      if (config_.replicate_graph) {
        board = static_cast<BoardId>(qi % num_boards);
        // During a total-owner-loss window (durable store only) there
        // is no survivor to reroute to: launch onto the dead board and
        // let the walker's first event park it until a rebuild lands.
        if (!sim.IsAlive(board) && sim.has_survivor()) {
          board = sim.SurvivorOf(qi);
        }
      } else {
        board = sim.LiveOwnerOf(q.start);
      }
      sim.Launch(qi, q, board, at);
    };

    sim.set_on_retire([&](const WalkerEnd& end,
                          std::vector<graph::VertexId>&& path) {
      if (output != nullptr) {
        finished[end.ticket] = std::move(path);
      }
      ++stats.queries;
      // Keep the freed slot busy: the batch workload is closed-loop.
      load(end.at);
    });

    for (size_t i = 0; i < num_walkers; ++i) {
      load(0);
    }
    sim.Drain();
    sim.Finalize(&stats);
  }

  if (output != nullptr) {
    core::GatherPaths(finished, output);
  }
  return stats;
}

}  // namespace lightrw::distributed
