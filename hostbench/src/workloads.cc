#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "checks.h"
#include "distributed/dist_engine.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "service/arrival.h"

namespace hostbench {

namespace {

using lightrw::apps::MetaPathApp;
using lightrw::apps::Node2VecApp;
using lightrw::apps::StaticWalkApp;
using lightrw::core::AcceleratorConfig;

// The LiveJournal stand-in at the repository's default scale shift:
// 37.5k vertices, 511k edges.
constexpr uint32_t kScaleShift = 7;

constexpr uint32_t kEngineWalkLength = 80;
// Node2Vec costs about 4.5x DeepWalk per step on the host, so it runs a
// quarter of the walks to keep one run near a second.
constexpr size_t kDeepWalkQueries = 8192;
constexpr size_t kNode2VecQueries = 2048;

constexpr uint32_t kBoards = 4;
constexpr uint32_t kMetaPathLength = 5;
constexpr uint64_t kArrivals = 65536;
// Offered load in queries per 1024 cycles: queues build (the tail
// latency sits above its unloaded value) but nothing is shed.
constexpr double kArrivalRate = 16.0;

AcceleratorConfig BaseAccelConfig(uint64_t seed) {
  // The paper's best configuration (k=16, b1+b32, degree-aware cache),
  // with on-chip structures scaled with the stand-in as the repository's
  // figure benches scale them.
  AcceleratorConfig config;
  config.sampler_parallelism = 16;
  config.burst = lightrw::core::BurstStrategy{1, 32};
  config.cache_kind = lightrw::core::CacheKind::kDegreeAware;
  config.cache_entries = std::max<uint32_t>(16, 4096u >> kScaleShift);
  config.prev_neighbor_buffer_edges =
      std::max<uint32_t>(64, 65536u >> kScaleShift);
  config.num_instances = 4;
  config.num_threads = 1;
  config.seed = seed;
  return config;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kDeepWalkEngine, Workload::kNode2VecEngine,
                     Workload::kMetaPathService}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDeepWalkEngine:
      return "deepwalk_engine";
    case Workload::kNode2VecEngine:
      return "node2vec_engine";
    case Workload::kMetaPathService:
      return "metapath_service";
  }
  return "";
}

lightrw::reliability::FaultConfig ServiceFaults(uint64_t seed) {
  lightrw::reliability::FaultConfig faults;
  faults.enabled = true;
  faults.seed = seed ^ 0xfa017ULL;
  faults.dram_correctable_rate = 1e-4;
  faults.link_drop_rate = 1e-3;
  return faults;
}

bool IsService(Workload workload) {
  return workload == Workload::kMetaPathService;
}

Inputs MakeInputs(Workload workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  in.graph = lightrw::graph::MakeDatasetStandIn(
      lightrw::graph::Dataset::kLiveJournal, kScaleShift, seed);
  in.accel = BaseAccelConfig(seed);
  switch (workload) {
    case Workload::kDeepWalkEngine:
      in.app = std::make_unique<StaticWalkApp>();
      in.queries = lightrw::apps::MakeVertexQueries(
          in.graph, kEngineWalkLength, seed, kDeepWalkQueries);
      break;
    case Workload::kNode2VecEngine:
      in.app = std::make_unique<Node2VecApp>(2.0, 0.5);
      in.queries = lightrw::apps::MakeVertexQueries(
          in.graph, kEngineWalkLength, seed, kNode2VecQueries);
      break;
    case Workload::kMetaPathService: {
      in.app = std::make_unique<MetaPathApp>(
          lightrw::apps::MakeRandomRelationPath(in.graph, kMetaPathLength,
                                                seed));
      in.partition = std::make_unique<lightrw::distributed::Partition>(
          lightrw::distributed::MakePartition(
              in.graph, kBoards,
              lightrw::distributed::PartitionStrategy::kHash));
      in.accel.num_instances = 1;
      lightrw::service::ServiceConfig& config = in.service;
      config.cluster.board = in.accel;
      config.cluster.num_threads = 1;
      config.arrivals.seed = seed;
      config.arrivals.num_queries = kArrivals;
      config.arrivals.walk_length = kMetaPathLength;
      config.arrivals.rate_per_kcycle = kArrivalRate;
      // No deadlines, room for every queued query, and no degradation:
      // the service completes every walk, weighted, as requested.
      config.queue_capacity = 1u << 16;
      config.degrade_enabled = false;
      // WalkService::Run draws the same stream from the same config; it
      // is generated here so its cost is set-up and its queries can be
      // checked against the service's paths.
      auto arrivals =
          lightrw::service::GenerateArrivals(config.arrivals, in.graph);
      LIGHTRW_CHECK(arrivals.ok());
      in.queries.reserve(arrivals.value().size());
      for (const auto& arrival : arrivals.value()) {
        in.queries.push_back(arrival.query);
      }
      break;
    }
  }
  return in;
}

RunOutcome RunWorkload(const Inputs& in, const RunOptions& options) {
  RunOutcome out;
  if (!IsService(in.workload)) {
    lightrw::core::CycleEngine engine(&in.graph, in.app.get(), in.accel);
    out.engine = engine.Run(in.queries, &out.paths);
    out.steps = out.engine.steps;
    return out;
  }
  lightrw::service::ServiceConfig config = in.service;
  if (options.faults) {
    config.cluster.board.faults = ServiceFaults(in.seed);
  }
  if (options.sinks) {
    out.spans = std::make_unique<lightrw::obs::SpanRecorder>();
    out.timeseries = std::make_unique<lightrw::obs::TimeSeriesRecorder>();
    config.cluster.board.spans = out.spans.get();
    config.cluster.board.timeseries = out.timeseries.get();
  }
  lightrw::service::WalkService service(&in.graph, in.app.get(),
                                        in.partition.get(), config);
  auto stats = service.Run(&out.paths);
  LIGHTRW_CHECK(stats.ok());
  out.service = std::move(stats).value();
  out.steps = out.service.cluster.steps;
  return out;
}

RunOutcome RunBatchEngine(const Inputs& in) {
  RunOutcome out;
  lightrw::distributed::DistributedEngine engine(
      &in.graph, in.app.get(), in.partition.get(), in.service.cluster);
  auto stats = engine.Run(in.queries, &out.paths);
  LIGHTRW_CHECK(stats.ok());
  out.steps = stats.value().steps;
  return out;
}

const double* Fingerprint::Find(std::string_view name) const {
  for (const Field& field : fields) {
    if (field.name == name) {
      return &field.value;
    }
  }
  return nullptr;
}

Fingerprint Fingerprint::Simulated() const {
  Fingerprint simulated;
  simulated.path_digest = path_digest;
  for (const Field& field : fields) {
    if (field.name.rfind("obs.", 0) != 0) {
      simulated.fields.push_back(field);
    }
  }
  return simulated;
}

std::string Fingerprint::ToJson() const {
  lightrw::obs::Json doc = lightrw::obs::Json::MakeObject();
  for (const Field& field : fields) {
    doc.Set(field.name, field.value);
  }
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(path_digest));
  doc.Set("path_digest", std::string(digest));
  return doc.Dump();
}

Fingerprint FingerprintOf(const Inputs& in, const RunOutcome& run) {
  Fingerprint fp;
  fp.path_digest = PathDigest(run.paths);
  auto add = [&fp](const char* name, double value) {
    fp.fields.push_back({name, value});
  };
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };

  if (!IsService(in.workload)) {
    const lightrw::core::AccelRunStats& s = run.engine;
    add("lightrw.sim_cycles", static_cast<double>(s.cycles));
    add("lightrw.steps", static_cast<double>(s.steps));
    add("lightrw.edges_per_step", ratio(s.edges_examined, s.steps));
    add("lightrw.prev_refetches", static_cast<double>(s.prev_refetches));
    add("lightrw.cache.hit_ratio", ratio(s.cache.hits, s.cache.accesses()));
    add("lightrw.burst.long_bursts", static_cast<double>(s.burst.long_bursts));
    add("lightrw.burst.short_bursts",
        static_cast<double>(s.burst.short_bursts));
    add("lightrw.burst.valid_data_ratio", s.burst.ValidDataRatio());
    add("lightrw.stage.info_share", s.stage.Share(s.stage.info_cycles));
    add("lightrw.stage.fetch_share", s.stage.Share(s.stage.fetch_cycles));
    add("lightrw.stage.sampler_share", s.stage.Share(s.stage.sampler_cycles));
    add("lightrw.stage.pipeline_share",
        s.stage.Share(s.stage.pipeline_cycles));
    add("hwsim.dram.requests_per_step", ratio(s.dram.requests, s.steps));
    return fp;
  }

  const lightrw::service::ServiceRunStats& s = run.service;
  const lightrw::distributed::DistributedRunStats& c = s.cluster;
  add("lightrw.sim_cycles", static_cast<double>(s.cycles));
  add("lightrw.steps", static_cast<double>(c.steps));
  add("hwsim.dram.requests_per_step", ratio(c.dram.requests, c.steps));
  add("distributed.migration_ratio", c.MigrationRatio());
  add("service.completed_ratio", ratio(s.completed, s.offered));
  add("service.shed", static_cast<double>(s.Shed()));
  add("service.failed", static_cast<double>(s.failed));
  // The median, and the highest percentile with at least ten samples
  // beyond it, with the sample count.
  const lightrw::SampleStats& latency = s.latency_cycles;
  const double samples = static_cast<double>(latency.count());
  double tail = 0.0;
  for (double q : {0.9999, 0.999, 0.99, 0.9, 0.5}) {
    if (samples * (1.0 - q) >= 10.0) {
      tail = q;
      break;
    }
  }
  add("service.latency_samples", samples);
  add("service.latency_p50_cycles",
      latency.count() == 0 ? 0.0 : latency.Quantile(0.5));
  add("service.latency_tail_quantile", tail);
  add("service.latency_tail_cycles",
      tail == 0.0 ? 0.0 : latency.Quantile(tail));
  add("reliability.dram_retries",
      static_cast<double>(c.reliability.dram_retries));
  add("reliability.link_retransmissions",
      static_cast<double>(c.reliability.retransmissions));
  if (run.spans != nullptr) {
    add("obs.spans", static_cast<double>(run.spans->Spans().size()));
  }
  if (run.timeseries != nullptr) {
    add("obs.windows", static_cast<double>(run.timeseries->num_windows()));
  }
  return fp;
}

}  // namespace hostbench
