#include "lightrw/board_datapath.h"

#include <algorithm>
#include <string>

#include "common/bits.h"
#include "common/check.h"
#include "lightrw/cycle_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lightrw::core {

using graph::VertexId;
using hwsim::Cycle;

BoardDatapath::BoardDatapath(const graph::CsrGraph* graph,
                             const AcceleratorConfig& config, FetchKind kind)
    : graph_(graph),
      config_(config),
      kind_(kind),
      channel_(config.dram),
      burst_(&channel_, config.burst),
      cache_(MakeVertexCache(config.cache_kind, config.cache_entries)) {
  LIGHTRW_CHECK(graph != nullptr);
}

void BoardDatapath::AttachTrace(obs::TraceRecorder* trace, uint32_t pid) {
  trace_ = trace;
  pid_ = pid;
  const bool adjacency = kind_ == FetchKind::kAdjacency;
  trace->NameProcess(pid, (adjacency ? "accel instance " : "uniform instance ") +
                              std::to_string(pid));
  trace->NameTrack(pid, kInfoTrack, "info loader");
  trace->NameTrack(pid, kFetchTrack,
                   adjacency ? "burst engine" : "neighbor fetch");
  if (adjacency) {
    trace->NameTrack(pid, kWrsTrack, "wrs sampler");
  }
  trace->NameTrack(pid, kRetireTrack, "retire");
  trace->NameTrack(pid, kDramTrack, "dram channel");
  channel_.AttachTrace(trace, pid, kDramTrack);
}

bool BoardDatapath::tracing() const {
  return trace_ != nullptr && trace_->accepting();
}

// Row lookup through the configured cache: an on-chip hit answers in one
// cycle (Fig. 5 step c); a miss reads the row record from DRAM and offers
// the line to the replacement policy.
Cycle BoardDatapath::Lookup(Cycle t, VertexId v) {
  if (cache_ != nullptr) {
    if (cache_->Probe(v)) {
      if (tracing()) {
        trace_->Instant("cache_hit", "cache", pid_, kInfoTrack, t);
      }
      return t + 1;
    }
    if (tracing()) {
      trace_->Instant("cache_miss", "cache", pid_, kInfoTrack, t);
    }
  }
  const Cycle done = channel_.Access(t, /*burst_beats=*/1);
  channel_.ReportUseful(graph::kBytesPerRowRecord);
  if (cache_ != nullptr) {
    cache_->Install(v, graph_->Degree(v));
  }
  return done;
}

StepTiming BoardDatapath::Info(Cycle t, VertexId curr, VertexId prev) {
  // The two loaders (current vertex, and the previous vertex's row for
  // Node2Vec-style membership tests) issue concurrently.
  StepTiming timing;
  timing.done = Lookup(t, curr);
  if (prev != graph::kInvalidVertex) {
    timing.done = std::max(timing.done, Lookup(t, prev));
  }
  timing.stage.info_cycles = timing.done - t;
  stage_.info_cycles += timing.stage.info_cycles;
  if (kind_ == FetchKind::kAdjacency && tracing()) {
    trace_->Complete("row_lookup", "info", pid_, kInfoTrack, t, timing.done);
  }
  return timing;
}

StepTiming BoardDatapath::Fetch(Cycle t, uint32_t degree,
                                uint32_t prev_degree, SamplerWork work) {
  LIGHTRW_DCHECK(kind_ == FetchKind::kAdjacency);
  // Re-fetch N(prev) when it exceeded the on-chip membership buffer.
  Cycle t_fetch = t;
  if (prev_degree > config_.prev_neighbor_buffer_edges) {
    t_fetch = burst_.Fetch(t_fetch, static_cast<uint64_t>(prev_degree) *
                                        graph::kBytesPerEdgeRecord);
    ++prev_refetches_;
  }
  StepTiming timing;
  timing.last_data = burst_.Fetch(
      t_fetch, static_cast<uint64_t>(degree) * graph::kBytesPerEdgeRecord);
  edges_ += degree;

  Cycle step_end;
  if (config_.enable_wrs_pipeline) {
    // Fine-grained pipeline: the sampler consumes k edges per cycle as
    // data streams in. It is one shared k-wide unit, so concurrent steps
    // queue for it; the step completes when the slower of memory and
    // sampler is done.
    const Cycle first_data = t_fetch + config_.dram.access_latency_cycles;
    const Cycle consume_start = std::max(first_data, sampler_busy_);
    sampler_busy_ = consume_start +
                    (work == SamplerWork::kWeighted
                         ? CeilDiv(degree, config_.sampler_parallelism)
                         : 1);
    step_end = std::max(timing.last_data, sampler_busy_);
    if (tracing()) {
      trace_->Complete("wrs_consume", "sampler", pid_, kWrsTrack,
                       consume_start, sampler_busy_);
    }
  } else {
    step_end = StagedSampler(t_fetch, timing.last_data, degree);
  }

  // Attribution: memory wait up to the last adjacency beat counts as
  // fetch; whatever extends past it (WRS queueing or the staged
  // weight/table round-trips) counts as sampler time.
  const Cycle last_data = timing.last_data;
  timing.stage.fetch_cycles = last_data > t ? last_data - t : 0;
  timing.stage.sampler_cycles = step_end > last_data ? step_end - last_data : 0;
  timing.stage.pipeline_cycles = config_.pipeline_depth_cycles;
  stage_.Accumulate(timing.stage);
  if (tracing()) {
    trace_->Complete("adjacency_fetch", "burst", pid_, kFetchTrack, t_fetch,
                     last_data);
  }
  timing.done = step_end + config_.pipeline_depth_cycles;
  return timing;
}

// Staged ThunderRW-style flow on chip (the WRS-disabled ablation): each
// stage runs to completion and the intermediate weight buffer and
// sampling table round-trip through DRAM (Inefficiency 1).
//
// The stage chain is serial *within* the step, but other in-flight walks
// still overlap with it, so the extra channel occupancy is booked at the
// step's start (for contention) while the stages' serial latency
// accumulates analytically.
Cycle BoardDatapath::StagedSampler(Cycle t_fetch, Cycle last_data,
                                   uint32_t degree) {
  const uint32_t bus = config_.dram.bus_bytes;
  const uint64_t weight_bytes = static_cast<uint64_t>(degree) * 4;
  const uint64_t table_bytes = static_cast<uint64_t>(degree) * 8;
  const uint32_t weight_beats =
      static_cast<uint32_t>(CeilDiv(weight_bytes, bus));
  const uint32_t table_beats = static_cast<uint32_t>(CeilDiv(table_bytes, bus));
  const uint32_t probes = CeilLog2(static_cast<uint64_t>(degree) + 1);

  Cycle booked = channel_.AccessGroup(t_fetch, weight_beats, 2);
  booked = std::max(booked, channel_.Access(t_fetch, table_beats));
  booked = std::max(booked, channel_.AccessGroup(t_fetch, 1, probes));

  const auto transfer_latency = [&](uint32_t beats) {
    return channel_.RequestOccupancy(beats) +
           config_.dram.access_latency_cycles;
  };
  // weight compute + buffer write/read + table build + table write +
  // binary-search probes, end to end.
  const Cycle serial = last_data + degree + transfer_latency(weight_beats) +
                       transfer_latency(weight_beats) + degree +
                       transfer_latency(table_beats) +
                       static_cast<Cycle>(probes) * transfer_latency(1);
  return std::max(serial, booked);
}

StepTiming BoardDatapath::FetchOneRecord(Cycle t) {
  LIGHTRW_DCHECK(kind_ == FetchKind::kOneRecord);
  StepTiming timing;
  timing.last_data = channel_.Access(t, /*burst_beats=*/1);
  channel_.ReportUseful(graph::kBytesPerEdgeRecord);
  ++edges_;  // only the sampled record is touched
  timing.stage.fetch_cycles = timing.last_data - t;
  timing.stage.pipeline_cycles = config_.pipeline_depth_cycles;
  stage_.Accumulate(timing.stage);
  if (tracing()) {
    trace_->Complete("neighbor_fetch", "fetch", pid_, kFetchTrack, t,
                     timing.last_data);
  }
  timing.done = timing.last_data + config_.pipeline_depth_cycles;
  return timing;
}

void BoardDatapath::FoldInto(AccelRunStats* stats) const {
  stats->edges_examined += edges_;
  stats->dram.Accumulate(channel_.stats());
  if (cache_ != nullptr) {
    stats->cache.Accumulate(cache_->stats());
  }
  stats->burst.Accumulate(burst_.stats());
  stats->stage.Accumulate(stage_);
  stats->prev_refetches += prev_refetches_;
}

void BoardDatapath::PublishMetrics(obs::MetricsRegistry* metrics,
                                   uint32_t instance) const {
  const obs::Labels labels = {{"instance", std::to_string(instance)}};
  const bool adjacency = kind_ == FetchKind::kAdjacency;
  if (cache_ != nullptr) {
    metrics->GetCounter("accel.cache.hits", labels)
        ->Increment(cache_->stats().hits);
    metrics->GetCounter("accel.cache.misses", labels)
        ->Increment(cache_->stats().misses);
  }
  if (adjacency) {
    metrics->GetCounter("accel.burst.requests", labels)
        ->Increment(burst_.stats().requests);
    metrics->GetCounter("accel.burst.long_bursts", labels)
        ->Increment(burst_.stats().long_bursts);
    metrics->GetCounter("accel.burst.short_bursts", labels)
        ->Increment(burst_.stats().short_bursts);
    metrics->GetCounter("accel.burst.loaded_bytes", labels)
        ->Increment(burst_.stats().loaded_bytes);
  }
  metrics->GetCounter("accel.dram.requests", labels)
      ->Increment(channel_.stats().requests);
  metrics->GetCounter("accel.dram.bytes", labels)
      ->Increment(channel_.stats().bytes);
  metrics->GetCounter("accel.dram.busy_cycles", labels)
      ->Increment(channel_.stats().busy_cycles);
  const auto publish_stage = [&](const char* stage, uint64_t cycles) {
    obs::Labels stage_labels = labels;
    stage_labels.emplace_back("stage", stage);
    metrics->GetCounter("accel.stage.cycles", stage_labels)
        ->Increment(cycles);
  };
  publish_stage("info", stage_.info_cycles);
  publish_stage("fetch", stage_.fetch_cycles);
  if (adjacency) {  // a one-record datapath has no sampler stage
    publish_stage("sampler", stage_.sampler_cycles);
  }
  publish_stage("pipeline", stage_.pipeline_cycles);
}

}  // namespace lightrw::core
