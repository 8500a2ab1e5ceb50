// The shard rule shared by every parallel driver: CycleEngine instances,
// replicated DistributedEngine boards and WalkService admission shards.
//
// A sharded run splits its query set round-robin over the shards (paper
// §6.1.5: queries are spread evenly over instances), runs each shard
// against private observability sinks, and merges the sinks back in
// shard order after the barrier. Results are keyed by ticket (the
// query's index in the full set) and gathered in ticket order. Both
// orders are fixed by the shard count alone, so every export is
// byte-identical for every host thread count.

#ifndef LIGHTRW_LIGHTRW_SHARDING_H_
#define LIGHTRW_LIGHTRW_SHARDING_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "lightrw/config.h"

namespace lightrw::core {

// Per-shard trace, span and time-series recorders. With more than one
// shard, shard i records into private recorders built from the shared
// ones' configurations; with one shard it records straight into the
// shared recorders. The metrics registry is always shared: its counters
// commute and its exposition is key-sorted.
class ShardSinks {
 public:
  // `shared` holds the run's sinks (any may be null) and must outlive
  // this object.
  ShardSinks(const AcceleratorConfig& shared, size_t num_shards);
  ~ShardSinks();

  // Points config's trace, spans and timeseries at shard `shard`'s
  // recorders. Safe to call concurrently for distinct shards.
  void Attach(size_t shard, AcceleratorConfig* config) const;

  // Merges every private recorder into the shared one, in shard order.
  // Call once, after every shard has finished.
  void Merge();

 private:
  struct Shard {
    std::unique_ptr<obs::TraceRecorder> trace;
    std::unique_ptr<obs::SpanRecorder> spans;
    std::unique_ptr<obs::TimeSeriesRecorder> timeseries;
  };

  const AcceleratorConfig& shared_;
  std::vector<Shard> shards_;  // empty for a single shard
};

// Round-robin split: shard s gets queries s, s + n, s + 2n, ... in
// order, and tickets[s] holds their indices in the full query set.
struct QuerySplit {
  std::vector<std::vector<apps::WalkQuery>> queries;
  std::vector<std::vector<size_t>> tickets;
};
QuerySplit SplitRoundRobin(std::span<const apps::WalkQuery> queries,
                           size_t num_shards);

// Appends `paths` (indexed by ticket) to `output` in ticket order.
void GatherPaths(const std::vector<std::vector<graph::VertexId>>& paths,
                 baseline::WalkOutput* output);

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_SHARDING_H_
