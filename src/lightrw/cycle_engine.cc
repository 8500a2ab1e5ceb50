#include "lightrw/cycle_engine.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_thread_pool.h"
#include "lightrw/sharding.h"
#include "lightrw/step_sampler.h"
#include "lightrw/uniform_engine.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "rng/rng.h"

namespace lightrw::core {

namespace {

using apps::WalkState;
using graph::VertexId;
using hwsim::Cycle;

// WRS lanes of an instance. A one-record instance samples without them;
// one idle stream keeps its sampler members valid whatever
// config.sampler_parallelism holds.
uint32_t SamplerLanes(const AcceleratorConfig& config, FetchKind kind) {
  return kind == FetchKind::kAdjacency ? config.sampler_parallelism : 1;
}

// One accelerator instance bound to one DRAM channel (paper Fig. 9): the
// slot/heap driver of both cycle engines over a BoardDatapath. A
// kAdjacency instance samples with the k-lane StepSampler and draws stop
// coins from `aux_`; a kOneRecord instance (UniformCycleEngine, no app)
// draws one uniform neighbor index per step from `aux_`.
class Instance {
 public:
  // `config` carries the instance's own sinks (see ShardSinks).
  Instance(const graph::CsrGraph* graph, const apps::WalkApp* app,
           const AcceleratorConfig& config, FetchKind kind,
           uint32_t instance_id, uint64_t seed, uint64_t aux_seed)
      : graph_(graph),
        app_(app),
        config_(config),
        kind_(kind),
        instance_id_(instance_id),
        needs_prev_(app != nullptr && app->needs_prev_neighbors()),
        trace_(config.trace),
        ts_(config.timeseries),
        datapath_(graph, config, kind),
        rng_(SamplerLanes(config, kind), seed),
        sampler_(SamplerLanes(config, kind), &rng_),
        aux_(aux_seed) {
    LIGHTRW_CHECK((app == nullptr) == (kind == FetchKind::kOneRecord));
    if (config.faults.enabled) {
      faults_ = reliability::FaultStream(config.faults, instance_id_);
      datapath_.channel().AttachFaults(&faults_, &rel_);
    }
    if (trace_ != nullptr) {
      datapath_.AttachTrace(trace_, instance_id_);
    }
    if (ts_ != nullptr) {
      // Live scraped series, handles cached up front so the series set
      // is fixed by construction order (instance decomposition is config,
      // never thread count). Exemplar trace id = global query index.
      obs::MetricsRegistry* live = ts_->live();
      const obs::Labels instance = {
          {"instance", std::to_string(instance_id_)}};
      ts_steps_ = live->GetCounter("accel.steps", instance);
      ts_retired_ = live->GetCounter("accel.retired", instance);
      ts_latency_ = live->GetHistogram("accel.walk_latency_cycles");
    }
  }

  // Simulates this instance's query share; accumulates into `stats` (all
  // fields except the makespan fields, which the caller derives).
  // `global_indices[i]` is the position of queries[i] in the caller's
  // query list; finished paths are stored there in `finished` (if
  // non-null) so the merged output is input-ordered.
  Cycle Run(std::span<const WalkQuery> queries,
            std::span<const size_t> global_indices,
            std::vector<std::vector<VertexId>>* finished,
            AccelRunStats* stats);

 private:
  // Each walk step flows through two scheduled phases so that the two
  // DRAM request groups of a step (row_index lookups, then the neighbor
  // fetch once the address is known) are issued at their proper simulated
  // times and interleave fairly with other in-flight walks.
  enum class Phase {
    kInfo,   // BoardDatapath::Info
    kFetch,  // BoardDatapath::Fetch / FetchOneRecord + sampling
  };

  struct Slot {
    WalkState state;
    size_t query_seq = 0;  // index into this instance's query share
    uint32_t remaining = 0;
    Cycle start = 0;  // for latency accounting
    Phase phase = Phase::kInfo;
    std::vector<VertexId> path;
    bool active = false;
  };

  // Runs the fetch phase of `state`'s step at `now`, samples the next
  // vertex into *next (kInvalidVertex if no neighbor is sampleable), and
  // returns the step-complete cycle.
  Cycle FetchAndSample(const WalkState& state, Cycle now, VertexId* next);

  bool tracing() const { return trace_ != nullptr && trace_->accepting(); }

  // Publishes this instance's statistics into the configured metrics
  // registry under instance-labeled names.
  void PublishMetrics(Cycle makespan, uint64_t queries, uint64_t steps);

  const graph::CsrGraph* graph_;
  const apps::WalkApp* app_;
  const AcceleratorConfig& config_;
  const FetchKind kind_;
  const uint32_t instance_id_;
  const bool needs_prev_;
  obs::TraceRecorder* trace_;
  // Simulated-time telemetry shard for this instance (may be null). The
  // event loop drives its window clock; cached instrument handles below.
  obs::TimeSeriesRecorder* ts_;
  obs::Counter* ts_steps_ = nullptr;
  obs::Counter* ts_retired_ = nullptr;
  obs::Histogram* ts_latency_ = nullptr;
  BoardDatapath datapath_;
  rng::ThunderingRng rng_;
  StepSampler sampler_;
  // Stop coins (kAdjacency) or uniform neighbor picks (kOneRecord).
  rng::Xoshiro256StarStar aux_;
  // Deterministic DRAM ECC fault schedule (disabled unless
  // config.faults.enabled) and the counters its events land in.
  reliability::FaultStream faults_;
  reliability::ReliabilityStats rel_;
};

Cycle Instance::FetchAndSample(const WalkState& state, Cycle now,
                               VertexId* next) {
  const uint32_t degree = graph_->Degree(state.curr);
  if (kind_ == FetchKind::kOneRecord) {
    // Uniform draw: one random index, one 8-byte fetch; weights ignored.
    *next = graph_->Neighbors(state.curr)[aux_.NextBounded(degree)];
    return datapath_.FetchOneRecord(now).done;
  }
  const uint32_t prev_degree =
      needs_prev_ && state.prev != graph::kInvalidVertex
          ? graph_->Degree(state.prev)
          : 0;
  const Cycle done =
      datapath_.Fetch(now, degree, prev_degree, SamplerWork::kWeighted).done;
  // Functional sampling (identical distribution to the hardware).
  *next = sampler_.SampleNext(*graph_, *app_, state);
  return done;
}

Cycle Instance::Run(std::span<const WalkQuery> queries,
                    std::span<const size_t> global_indices,
                    std::vector<std::vector<VertexId>>* finished,
                    AccelRunStats* stats) {
  if (queries.empty()) {
    return 0;
  }
  const uint64_t queries_before = stats->queries;
  const uint64_t steps_before = stats->steps;
  const size_t num_slots =
      std::min<size_t>(std::max<uint32_t>(config_.inflight_queries, 1),
                       queries.size());
  std::vector<Slot> slots(num_slots);
  size_t next_query = 0;
  Cycle makespan = 0;
  const double stop_probability =
      app_ != nullptr ? app_->stop_probability() : 0.0;

  // Min-heap of (ready cycle, slot index): FCFS channel arbitration.
  using HeapItem = std::pair<Cycle, size_t>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  auto load = [&](size_t slot_index, Cycle at) {
    if (next_query >= queries.size()) {
      return;
    }
    Slot& slot = slots[slot_index];
    const WalkQuery& q = queries[next_query];
    slot.query_seq = next_query++;
    slot.state = WalkState{};
    slot.state.curr = q.start;
    slot.remaining = q.length;
    slot.start = at;
    slot.phase = Phase::kInfo;
    slot.path.clear();
    slot.path.push_back(q.start);
    slot.active = true;
    heap.emplace(at, slot_index);
  };

  auto retire = [&](size_t slot_index, Cycle at) {
    Slot& slot = slots[slot_index];
    if (config_.collect_latency) {
      stats->query_latency_cycles.Add(static_cast<double>(at - slot.start));
    }
    if (ts_retired_ != nullptr) {
      ts_retired_->Increment();
      ts_latency_->ObserveExemplar(static_cast<double>(at - slot.start),
                                   global_indices[slot.query_seq], 0);
    }
    if (tracing()) {
      trace_->Instant("query_retire", "query", instance_id_,
                      BoardDatapath::kRetireTrack, at);
    }
    if (finished != nullptr) {
      (*finished)[global_indices[slot.query_seq]] = std::move(slot.path);
    }
    ++stats->queries;
    slot.active = false;
    makespan = std::max(makespan, at);
    load(slot_index, at);
  };

  for (size_t i = 0; i < num_slots; ++i) {
    load(i, 0);
  }

  while (!heap.empty()) {
    const auto [now, slot_index] = heap.top();
    heap.pop();
    if (ts_ != nullptr) {
      ts_->AdvanceTo(now);
    }
    Slot& slot = slots[slot_index];
    LIGHTRW_DCHECK(slot.active);

    if (slot.phase == Phase::kInfo) {
      if (slot.state.step >= slot.remaining) {  // zero-length query
        retire(slot_index, now);
        continue;
      }
      const Cycle t_info =
          datapath_
              .Info(now, slot.state.curr,
                    needs_prev_ ? slot.state.prev : graph::kInvalidVertex)
              .done;
      if (datapath_.channel().TakeAccessFailure()) {
        // Uncorrectable ECC error past the retry budget on the row
        // lookup: the walk cannot continue from corrupt state.
        ++rel_.walks_failed;
        retire(slot_index, t_info);
        continue;
      }
      if (graph_->Degree(slot.state.curr) == 0) {  // dead end
        retire(slot_index, t_info + config_.pipeline_depth_cycles);
        continue;
      }
      slot.phase = Phase::kFetch;
      heap.emplace(t_info, slot_index);
      continue;
    }

    // Phase::kFetch.
    VertexId next = graph::kInvalidVertex;
    const Cycle done = FetchAndSample(slot.state, now, &next);
    slot.phase = Phase::kInfo;
    if (datapath_.channel().TakeAccessFailure()) {
      // Uncorrectable ECC error in the neighbor fetch: the sampled step
      // is based on corrupt data, so the walk fails here.
      ++rel_.walks_failed;
      retire(slot_index, done);
      continue;
    }
    if (next == graph::kInvalidVertex) {  // all weights zero
      retire(slot_index, done);
      continue;
    }
    slot.state.prev = slot.state.curr;
    slot.state.curr = next;
    ++slot.state.step;
    ++stats->steps;
    if (ts_steps_ != nullptr) {
      ts_steps_->Increment();
    }
    slot.path.push_back(next);
    const bool stopped =
        stop_probability > 0.0 && aux_.NextUnit() < stop_probability;
    if (stopped || slot.state.step >= slot.remaining) {
      retire(slot_index, done);
    } else {
      heap.emplace(done, slot_index);
    }
  }

  datapath_.FoldInto(stats);
  stats->reliability.Accumulate(rel_);
  if (ts_ != nullptr) {
    ts_->Finish(makespan);
  }
  PublishMetrics(makespan, stats->queries - queries_before,
                 stats->steps - steps_before);
  return makespan;
}

void Instance::PublishMetrics(Cycle makespan, uint64_t queries,
                              uint64_t steps) {
  obs::MetricsRegistry* metrics = config_.metrics;
  if (metrics == nullptr) {
    return;
  }
  const obs::Labels instance = {{"instance", std::to_string(instance_id_)}};
  metrics->GetCounter("accel.instance.queries", instance)->Increment(queries);
  metrics->GetCounter("accel.instance.steps", instance)->Increment(steps);
  metrics->GetGauge("accel.instance.cycles", instance)
      ->Set(static_cast<double>(makespan));
  datapath_.PublishMetrics(metrics, instance_id_);
  if (rel_.Any()) {
    reliability::PublishReliabilityMetrics(metrics, rel_, instance);
  }
}

// Runs `queries` on config.num_instances independent instances of one
// fetch kind. Each instance is a shard: private datapath models, private
// RNG streams, a private stats slot, and private sinks (ShardSinks).
// Workers write only their own slots, so the run is bit-identical for
// every thread count.
AccelRunStats RunInstances(const graph::CsrGraph* graph,
                           const apps::WalkApp* app,
                           const AcceleratorConfig& config, FetchKind kind,
                           std::span<const WalkQuery> queries,
                           WalkOutput* output) {
  const uint32_t n = config.num_instances;
  const QuerySplit split = SplitRoundRobin(queries, n);

  std::vector<std::vector<VertexId>> finished;
  if (output != nullptr) {
    finished.resize(queries.size());
  }

  const uint32_t threads = SimThreadPool::ResolveThreads(config.num_threads);
  std::vector<AccelRunStats> instance_stats(n);
  std::vector<Cycle> instance_makespan(n, 0);
  ShardSinks sinks(config, n);
  SimThreadPool::ParallelFor(threads, n, [&](size_t i) {
    AcceleratorConfig instance_config = config;
    sinks.Attach(i, &instance_config);
    // Seeds per engine: the WRS lanes and stop coins of CycleEngine, the
    // uniform pick stream of UniformCycleEngine.
    const uint64_t seed = config.seed + 0x1000003ULL * i;
    const uint64_t aux_seed = kind == FetchKind::kAdjacency
                                  ? seed ^ 0x5709ULL
                                  : config.seed + 0x7001ULL * (i + 1);
    Instance instance(graph, app, instance_config, kind,
                      static_cast<uint32_t>(i), seed, aux_seed);
    instance_makespan[i] =
        instance.Run(split.queries[i], split.tickets[i],
                     output != nullptr ? &finished : nullptr,
                     &instance_stats[i]);
  });
  sinks.Merge();

  AccelRunStats stats;
  Cycle makespan = 0;
  for (uint32_t i = 0; i < n; ++i) {
    stats.Accumulate(instance_stats[i]);
    makespan = std::max(makespan, instance_makespan[i]);
  }
  if (output != nullptr) {
    GatherPaths(finished, output);
  }
  stats.cycles = makespan;
  stats.seconds = static_cast<double>(makespan) / config.dram.clock_hz;
  return stats;
}

}  // namespace

void AccelRunStats::Accumulate(const AccelRunStats& part) {
  queries += part.queries;
  steps += part.steps;
  edges_examined += part.edges_examined;
  dram.Accumulate(part.dram);
  cache.Accumulate(part.cache);
  burst.Accumulate(part.burst);
  stage.Accumulate(part.stage);
  prev_refetches += part.prev_refetches;
  reliability.Accumulate(part.reliability);
  query_latency_cycles.Merge(part.query_latency_cycles);
}

CycleEngine::CycleEngine(const graph::CsrGraph* graph,
                         const apps::WalkApp* app,
                         const AcceleratorConfig& config)
    : graph_(graph), app_(app), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(app != nullptr);
  LIGHTRW_CHECK(config.sampler_parallelism >= 1);
  LIGHTRW_CHECK(config.num_instances >= 1);
}

AccelRunStats CycleEngine::Run(std::span<const WalkQuery> queries,
                               WalkOutput* output) {
  return RunInstances(graph_, app_, config_, FetchKind::kAdjacency, queries,
                      output);
}

UniformCycleEngine::UniformCycleEngine(const graph::CsrGraph* graph,
                                       const AcceleratorConfig& config)
    : graph_(graph), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(config.num_instances >= 1);
}

AccelRunStats UniformCycleEngine::Run(std::span<const WalkQuery> queries,
                                      WalkOutput* output) {
  return RunInstances(graph_, /*app=*/nullptr, config_,
                      FetchKind::kOneRecord, queries, output);
}

}  // namespace lightrw::core
