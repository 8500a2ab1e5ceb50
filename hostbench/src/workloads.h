// The benchmark's three workloads: their inputs, one run of each, and
// the exact simulated fingerprint a run must reproduce.
//
//   deepwalk_engine   CycleEngine, 4 instances, DeepWalk static weights
//   node2vec_engine   CycleEngine, 4 instances, Node2Vec p=2 q=0.5
//   metapath_service  WalkService over ClusterSim, 4 hash-partitioned
//                     boards, MetaPath length 5, spans + telemetry on,
//                     low-rate DRAM ECC and link-drop faults
//
// All inputs come from the seed: the LiveJournal stand-in, the query set
// or arrival stream, the relation path, and the simulator seeds. Every
// run uses one simulation thread, and the modelled caches and DRAM start
// empty on every run.

#ifndef HOSTBENCH_WORKLOADS_H_
#define HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "distributed/partition.h"
#include "graph/csr.h"
#include "lightrw/config.h"
#include "lightrw/cycle_engine.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "service/walk_service.h"

namespace hostbench {

enum class Workload { kDeepWalkEngine, kNode2VecEngine, kMetaPathService };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);
bool IsService(Workload workload);

// Everything a run consumes, generated from the seed by MakeInputs.
struct Inputs {
  Workload workload = Workload::kDeepWalkEngine;
  uint64_t seed = 0;
  lightrw::graph::CsrGraph graph;
  std::unique_ptr<lightrw::apps::WalkApp> app;
  // Engine workloads: the engine configuration. metapath_service: the
  // per-board configuration (also inside `service.cluster.board`).
  lightrw::core::AcceleratorConfig accel;
  // The query of every walk, in output order: the engine's batch, or the
  // service's arrivals in arrival order.
  std::vector<lightrw::apps::WalkQuery> queries;
  // metapath_service only.
  std::unique_ptr<lightrw::distributed::Partition> partition;
  lightrw::service::ServiceConfig service;
};

Inputs MakeInputs(Workload workload, uint64_t seed);

// metapath_service's fault schedule: low-rate correctable DRAM ECC errors
// and link drops, so every walk still completes.
lightrw::reliability::FaultConfig ServiceFaults(uint64_t seed);

// Which optional parts of metapath_service a run enables. Engine
// workloads ignore both.
struct RunOptions {
  bool sinks = true;   // SpanRecorder + TimeSeriesRecorder attached
  bool faults = true;  // DRAM ECC and link-drop injection
};

struct RunOutcome {
  lightrw::baseline::WalkOutput paths;
  uint64_t steps = 0;
  lightrw::core::AccelRunStats engine;        // engine workloads
  lightrw::service::ServiceRunStats service;  // metapath_service
  std::unique_ptr<lightrw::obs::SpanRecorder> spans;
  std::unique_ptr<lightrw::obs::TimeSeriesRecorder> timeseries;
};

// One complete run of the workload.
RunOutcome RunWorkload(const Inputs& in, const RunOptions& options = {});

// metapath_service's queries through DistributedEngine::Run instead of
// the service front end, with faults and sinks off.
RunOutcome RunBatchEngine(const Inputs& in);

// Named exact values read from a run's public stats, plus a digest of
// every path. Doubles are ratios of integer counts, so equal runs give
// bit-equal values.
struct Fingerprint {
  struct Field {
    std::string name;
    double value = 0.0;
    bool operator==(const Field&) const = default;
  };
  std::vector<Field> fields;
  uint64_t path_digest = 0;

  bool operator==(const Fingerprint&) const = default;
  const double* Find(std::string_view name) const;
  // The fingerprint without the obs.* fields, which only sinks-on runs
  // carry.
  Fingerprint Simulated() const;
  std::string ToJson() const;
};

Fingerprint FingerprintOf(const Inputs& in, const RunOutcome& run);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_H_
