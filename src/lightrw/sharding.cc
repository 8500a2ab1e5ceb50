#include "lightrw/sharding.h"

#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace lightrw::core {

namespace {

// A private recorder with `shared`'s configuration, or null.
template <typename Recorder>
std::unique_ptr<Recorder> PrivateCopy(const Recorder* shared) {
  return shared == nullptr ? nullptr
                           : std::make_unique<Recorder>(shared->config());
}

}  // namespace

ShardSinks::ShardSinks(const AcceleratorConfig& shared, size_t num_shards)
    : shared_(shared) {
  if (num_shards < 2) {
    return;  // a single shard records into the shared sinks
  }
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back({PrivateCopy(shared.trace), PrivateCopy(shared.spans),
                       PrivateCopy(shared.timeseries)});
  }
}

ShardSinks::~ShardSinks() = default;

void ShardSinks::Attach(size_t shard, AcceleratorConfig* config) const {
  if (!shards_.empty()) {
    config->trace = shards_[shard].trace.get();
    config->spans = shards_[shard].spans.get();
    config->timeseries = shards_[shard].timeseries.get();
  }
}

void ShardSinks::Merge() {
  for (const Shard& shard : shards_) {
    if (shard.trace != nullptr) {
      shared_.trace->MergeFrom(shard.trace.get());
    }
    if (shard.spans != nullptr) {
      shared_.spans->MergeFrom(shard.spans.get());
    }
    if (shard.timeseries != nullptr) {
      shared_.timeseries->MergeFrom(shard.timeseries.get());
    }
  }
}

QuerySplit SplitRoundRobin(std::span<const apps::WalkQuery> queries,
                           size_t num_shards) {
  QuerySplit split;
  split.queries.resize(num_shards);
  split.tickets.resize(num_shards);
  for (size_t i = 0; i < queries.size(); ++i) {
    split.queries[i % num_shards].push_back(queries[i]);
    split.tickets[i % num_shards].push_back(i);
  }
  return split;
}

void GatherPaths(const std::vector<std::vector<graph::VertexId>>& paths,
                 baseline::WalkOutput* output) {
  for (const auto& path : paths) {
    output->vertices.insert(output->vertices.end(), path.begin(),
                            path.end());
    output->offsets.push_back(static_cast<uint32_t>(output->vertices.size()));
  }
}

}  // namespace lightrw::core
