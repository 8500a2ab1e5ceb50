// One board's LightRW datapath timing (paper Fig. 3): the Neighbor Info
// Loader's row lookup through the degree-aware cache, the dynamic burst
// engine's adjacency stream, and the k-lane WRS sampler's occupancy.
//
// CycleEngine, UniformCycleEngine and ClusterSim all step walks through
// this one model; see DESIGN.md "Board datapath" for the call order, the
// attribution rules and the fetch kinds. The datapath is timing only:
// sampling and stop draws stay with the callers, and so do the fault
// streams (attached through channel()).

#ifndef LIGHTRW_LIGHTRW_BOARD_DATAPATH_H_
#define LIGHTRW_LIGHTRW_BOARD_DATAPATH_H_

#include <cstdint>
#include <memory>

#include "graph/csr.h"
#include "hwsim/dram.h"
#include "lightrw/burst_engine.h"
#include "lightrw/config.h"
#include "lightrw/vertex_cache.h"

namespace lightrw::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace lightrw::obs

namespace lightrw::core {

struct AccelRunStats;

// Cycle attribution of walk steps: where each in-flight step's simulated
// time went. Summed over many concurrent steps these are slot-cycles, so
// the total can far exceed the makespan; the *shares* say which stage
// dominates.
struct StageCycleStats {
  uint64_t info_cycles = 0;      // row-index lookup: cache probe + DRAM
  uint64_t fetch_cycles = 0;     // adjacency stream through the burst engine
  uint64_t sampler_cycles = 0;   // sampling tail after the last data beat
  uint64_t pipeline_cycles = 0;  // fixed module-pipeline traversal latency

  uint64_t Total() const {
    return info_cycles + fetch_cycles + sampler_cycles + pipeline_cycles;
  }
  double Share(uint64_t part) const {
    const uint64_t total = Total();
    return total == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(total);
  }
  void Accumulate(const StageCycleStats& part) {
    info_cycles += part.info_cycles;
    fetch_cycles += part.fetch_cycles;
    sampler_cycles += part.sampler_cycles;
    pipeline_cycles += part.pipeline_cycles;
  }
};

// How a step's neighbor data reaches the sampler. Chosen by the engine.
enum class FetchKind {
  // The whole adjacency streams through the burst engine into the k-lane
  // WRS sampler (LightRW; Fetch()).
  kAdjacency,
  // One 8-byte neighbor record per step and no sampler stage (the
  // uniform static-walk design of Su et al.; FetchOneRecord()).
  kOneRecord,
};

// Sampler occupancy of one adjacency Fetch.
enum class SamplerWork {
  kWeighted,     // PWRS over the adjacency: ceil(degree / k) cycles
  kUniformPick,  // a degraded uniform neighbor pick: one cycle
};

// Timing of one datapath call.
struct StepTiming {
  // Info: the {address, degree} data is available. Fetch calls: the step
  // is complete, pipeline depth included.
  hwsim::Cycle done = 0;
  // Fetch calls: the last neighbor beat has arrived.
  hwsim::Cycle last_data = 0;
  // This call's share of the step's cycles.
  StageCycleStats stage;
};

class BoardDatapath {
 public:
  // Trace track (tid) layout within one datapath's pid: one lane per
  // pipeline stage, mirroring the module chain of paper Fig. 3. The
  // retire lane belongs to the driver; the datapath names it so the
  // labels come out in lane order.
  enum TraceTrack : uint32_t {
    kInfoTrack = 0,    // Neighbor Info Loader (row-index lookups)
    kFetchTrack = 1,   // Dynamic Burst Engine (adjacency streams)
    kWrsTrack = 2,     // Weight Updater + WRS Sampler lanes
    kRetireTrack = 3,  // query retirement
    kDramTrack = 4,    // DRAM channel data-bus service windows
  };

  // `graph` and `config` must outlive the datapath.
  BoardDatapath(const graph::CsrGraph* graph, const AcceleratorConfig& config,
                FetchKind kind);
  // The burst engine points at the channel member: never copied or moved.
  BoardDatapath(const BoardDatapath&) = delete;
  BoardDatapath& operator=(const BoardDatapath&) = delete;

  // Records the stage events (cache probes, row lookups, streams, sampler
  // windows) and the channel's DRAM windows into `trace` under `pid`,
  // after naming the process and its tracks. Drivers that lay out their
  // own tracks attach only the channel, through channel().AttachTrace.
  void AttachTrace(obs::TraceRecorder* trace, uint32_t pid);

  // Row lookup of `curr` starting at `t`. A valid `prev` (apps that need
  // the previous vertex's neighbors) is looked up concurrently; pass
  // graph::kInvalidVertex otherwise.
  StepTiming Info(hwsim::Cycle t, graph::VertexId curr, graph::VertexId prev);
  // Adjacency step of a kAdjacency datapath starting at `t`: re-fetches
  // N(prev) when `prev_degree` exceeds the on-chip buffer (pass 0 when no
  // previous adjacency is needed), streams the `degree` neighbors through
  // the burst engine, then runs the sampler: the k-lane pipeline, or the
  // staged DRAM round-trips when config.enable_wrs_pipeline is false.
  StepTiming Fetch(hwsim::Cycle t, uint32_t degree, uint32_t prev_degree,
                   SamplerWork work);
  // Step of a kOneRecord datapath: a single 8-byte neighbor access.
  StepTiming FetchOneRecord(hwsim::Cycle t);

  hwsim::DramChannel& channel() { return channel_; }
  const hwsim::DramChannel& channel() const { return channel_; }

  // Adds the channel, cache, burst, stage, edge and re-fetch counters to
  // `stats` (the run-level fields are the driver's).
  void FoldInto(AccelRunStats* stats) const;
  // Publishes the module counters into `metrics`, labeled
  // instance=`instance`.
  void PublishMetrics(obs::MetricsRegistry* metrics, uint32_t instance) const;

 private:
  hwsim::Cycle Lookup(hwsim::Cycle t, graph::VertexId v);
  // The staged ThunderRW-style sampler (the WRS-disabled ablation).
  hwsim::Cycle StagedSampler(hwsim::Cycle t_fetch, hwsim::Cycle last_data,
                             uint32_t degree);
  bool tracing() const;

  const graph::CsrGraph* graph_;
  const AcceleratorConfig& config_;
  const FetchKind kind_;
  hwsim::DramChannel channel_;
  DynamicBurstEngine burst_;
  std::unique_ptr<VertexCache> cache_;
  // The weight-updater/WRS pipeline is a single k-wide unit per board:
  // concurrent steps serialize through it.
  hwsim::Cycle sampler_busy_ = 0;
  StageCycleStats stage_;
  uint64_t edges_ = 0;
  uint64_t prev_refetches_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  uint32_t pid_ = 0;
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_BOARD_DATAPATH_H_
