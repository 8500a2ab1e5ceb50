#include "replay.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "hwsim/dram.h"
#include "lightrw/burst_engine.h"
#include "lightrw/step_sampler.h"
#include "lightrw/vertex_cache.h"
#include "rng/rng.h"
#include "sampling/parallel_wrs.h"

namespace hostbench {

namespace {

using lightrw::apps::WalkState;
using lightrw::graph::VertexId;
using lightrw::graph::Weight;
using lightrw::hwsim::Cycle;

constexpr size_t kChunkExpansions = 4096;

// Keeps replayed results observable so no call is optimised away.
std::atomic<uint64_t> g_sink{0};

// One expansion of a walk: a row lookup of `state.curr` (and of
// `state.prev` when the app reads it), then, unless the vertex is a dead
// end, an adjacency fetch and a sample.
struct Expansion {
  WalkState state;
  uint32_t unit = 0;  // engine instance, or the service's owner board
  bool fetch = false;
};

std::vector<Expansion> Expansions(const Inputs& in,
                                  const lightrw::baseline::WalkOutput& paths,
                                  uint64_t* steps) {
  const bool service = IsService(in.workload);
  const uint32_t instances = in.accel.num_instances;
  std::vector<Expansion> out;
  *steps = 0;
  for (size_t i = 0; i < paths.num_paths(); ++i) {
    const auto path = paths.Path(i);
    if (path.empty()) {
      continue;
    }
    const size_t taken = path.size() - 1;
    *steps += taken;
    // A walk that stopped short made one more expansion that found
    // nothing to sample.
    const size_t expansions =
        taken + (taken < in.queries[i].length ? 1 : 0);
    for (size_t s = 0; s < expansions; ++s) {
      Expansion x;
      x.state.step = static_cast<uint32_t>(s);
      x.state.curr = path[s];
      x.state.prev = s > 0 ? path[s - 1] : lightrw::graph::kInvalidVertex;
      x.unit = service ? in.partition->OwnerOf(x.state.curr)
                       : static_cast<uint32_t>(i % instances);
      x.fetch = s < taken || in.graph.Degree(x.state.curr) > 0;
      out.push_back(x);
    }
  }
  return out;
}

// Mean cost of the `name` spans recorded from index `from` on.
double NsPerOp(const SpanLog& log, const char* name, size_t from) {
  const uint64_t ops = log.TotalOps(name, from);
  return ops == 0 ? 0.0
                  : static_cast<double>(log.TotalNs(name, from)) /
                        static_cast<double>(ops);
}

std::string Mismatch(const char* what, uint64_t replayed, uint64_t run) {
  return std::string("replay ") + what + " " + std::to_string(replayed) +
         " != run " + std::to_string(run);
}

}  // namespace

double ReplayResult::SamplerSelf() const {
  return sampler.Seconds() - sampling.Seconds() - apps.Seconds();
}

double ReplayResult::SamplingSelf() const {
  return sampling.Seconds() - rng.Seconds();
}

double ReplayResult::BurstSelf() const {
  return burst.Seconds() -
         static_cast<double>(burst_dram_ops) * dram.ns_per_op * 1e-9;
}

double ReplayResult::Attributed() const {
  return SamplerSelf() + SamplingSelf() + rng.Seconds() + apps.Seconds() +
         cache.Seconds() + BurstSelf() + dram.Seconds();
}

ReplayResult ReplayLayers(const Inputs& in, const RunOutcome& run,
                          SpanLog* log, int64_t parent) {
  const lightrw::graph::CsrGraph& g = in.graph;
  const lightrw::apps::WalkApp& app = *in.app;
  const lightrw::core::AcceleratorConfig& accel = in.accel;
  const bool service = IsService(in.workload);
  const bool static_weights = app.has_static_weights();
  const bool reads_prev = app.needs_prev_neighbors();
  const size_t k = accel.sampler_parallelism;
  const uint32_t units =
      service ? in.partition->num_boards() : accel.num_instances;
  // The app reads N(prev): the row of prev is looked up too, and an
  // adjacency larger than the on-chip buffer is fetched again.
  const auto with_prev = [&](const Expansion& x) {
    return reads_prev && x.state.prev != lightrw::graph::kInvalidVertex;
  };
  const auto refetches_prev = [&](const Expansion& x) {
    return with_prev(x) &&
           g.Degree(x.state.prev) > accel.prev_neighbor_buffer_edges;
  };
  const auto adjacency_bytes = [&](VertexId v) {
    return static_cast<uint64_t>(g.Degree(v)) *
           lightrw::graph::kBytesPerEdgeRecord;
  };

  ReplayResult result;
  const size_t first_span = log->spans().size();
  const int64_t prepare = log->Begin("replay.prepare", parent);
  const std::vector<Expansion> expansions =
      Expansions(in, run.paths, &result.steps);
  log->End(prepare, expansions.size());

  // Layer state, built once and carried across chunks.
  lightrw::rng::ThunderingRng wrs_rng(k, in.seed);
  lightrw::sampling::ParallelWrsSampler pwrs(k, &wrs_rng);
  lightrw::rng::ThunderingRng draw_rng(k, in.seed);
  std::vector<uint32_t> draws_out(k);
  lightrw::rng::ThunderingRng step_rng(k, in.seed);
  lightrw::core::StepSampler sampler(k, &step_rng);
  std::vector<std::unique_ptr<lightrw::core::VertexCache>> caches;
  std::vector<lightrw::hwsim::DramChannel> burst_channels;
  std::vector<lightrw::hwsim::DramChannel> dram_channels;
  // One fault stream per channel and unit; see the loop below.
  std::vector<lightrw::reliability::FaultStream> fault_streams(2 * units);
  std::vector<lightrw::reliability::ReliabilityStats> fault_stats(2 * units);
  for (uint32_t u = 0; u < units; ++u) {
    caches.push_back(
        lightrw::core::MakeVertexCache(accel.cache_kind, accel.cache_entries));
    burst_channels.emplace_back(accel.dram);
    dram_channels.emplace_back(accel.dram);
  }
  std::vector<lightrw::core::DynamicBurstEngine> bursts;
  for (uint32_t u = 0; u < units; ++u) {
    bursts.emplace_back(&burst_channels[u], accel.burst);
    if (service) {
      // DRAM ECC at metapath_service's rates, as its boards draw them,
      // on both the burst engine's channel and the bare channel.
      for (size_t c = 0; c < 2; ++c) {
        const size_t i = 2 * u + c;
        fault_streams[i] =
            lightrw::reliability::FaultStream(ServiceFaults(in.seed), u);
        (c == 0 ? burst_channels : dram_channels)[u].AttachFaults(
            &fault_streams[i], &fault_stats[i]);
      }
    }
  }
  std::vector<Cycle> burst_ready(units, 0);
  std::vector<Cycle> dram_ready(units, 0);

  uint64_t sink = 0;
  uint64_t draws = 0;
  uint64_t sampled = 0;
  uint64_t lookups = 0;
  uint64_t refetches = 0;
  std::vector<Weight> dynamic;        // per-chunk dynamic weights
  std::vector<uint8_t> batch_draws;   // per-chunk draws of each batch
  std::vector<uint8_t> misses;        // per-chunk row-lookup misses

  for (size_t begin = 0; begin < expansions.size();
       begin += kChunkExpansions) {
    const std::span<const Expansion> chunk(
        expansions.data() + begin,
        std::min(kChunkExpansions, expansions.size() - begin));

    // Inputs of the chunk's sampling calls, outside any layer span.
    dynamic.clear();
    batch_draws.clear();
    uint64_t chunk_edges = 0;
    uint64_t chunk_draws = 0;
    uint64_t chunk_sampled = 0;
    for (const Expansion& x : chunk) {
      if (!x.fetch) {
        continue;
      }
      const VertexId v = x.state.curr;
      const auto neighbors = g.Neighbors(v);
      const auto weights = g.NeighborWeights(v);
      const auto relations = g.NeighborRelations(v);
      const size_t first = dynamic.size();
      if (!static_weights) {
        for (size_t j = 0; j < neighbors.size(); ++j) {
          dynamic.push_back(app.DynamicWeight(g, x.state, neighbors[j],
                                              weights[j], relations[j]));
        }
      }
      const std::span<const Weight> offered =
          static_weights ? weights
                         : std::span<const Weight>(dynamic).subspan(
                               first, neighbors.size());
      for (size_t offset = 0; offset < offered.size(); offset += k) {
        const size_t n = std::min(k, offered.size() - offset);
        uint8_t nonzero = 0;
        for (size_t j = 0; j < n; ++j) {
          nonzero += offered[offset + j] != 0 ? 1 : 0;
        }
        batch_draws.push_back(nonzero);
        chunk_draws += nonzero;
      }
      chunk_edges += neighbors.size();
      ++chunk_sampled;
    }
    result.edges += chunk_edges;
    draws += chunk_draws;
    sampled += chunk_sampled;

    // sampling: the PWRS kernel over each expansion's offered weights.
    int64_t span = log->Begin("sampling", parent);
    size_t dyn_offset = 0;
    for (const Expansion& x : chunk) {
      if (!x.fetch) {
        continue;
      }
      const uint32_t degree = g.Degree(x.state.curr);
      const std::span<const Weight> offered =
          static_weights ? g.NeighborWeights(x.state.curr)
                         : std::span<const Weight>(dynamic).subspan(
                               dyn_offset, degree);
      dyn_offset += static_weights ? 0 : degree;
      pwrs.Reset();
      for (size_t offset = 0; offset < degree; offset += k) {
        pwrs.OfferBatch(offered.subspan(offset, std::min<size_t>(
                                                    k, degree - offset)),
                        offset);
      }
      sink += pwrs.selected();
    }
    log->End(span, chunk_edges);

    // rng: the same number of draws, batch by batch.
    span = log->Begin("rng", parent);
    for (uint8_t n : batch_draws) {
      if (n != 0) {
        draw_rng.NextStreams(0, std::span<uint32_t>(draws_out.data(), n));
        sink += draws_out[0];
      }
    }
    log->End(span, chunk_draws);

    // apps: the weight function on every (state, neighbour).
    span = log->Begin("apps", parent);
    for (const Expansion& x : chunk) {
      if (!x.fetch) {
        continue;
      }
      const auto neighbors = g.Neighbors(x.state.curr);
      const auto weights = g.NeighborWeights(x.state.curr);
      const auto relations = g.NeighborRelations(x.state.curr);
      for (size_t j = 0; j < neighbors.size(); ++j) {
        sink += app.DynamicWeight(g, x.state, neighbors[j], weights[j],
                                  relations[j]);
      }
    }
    log->End(span, chunk_edges);

    // lightrw.sampler: one SampleNext per expansion that fetched.
    span = log->Begin("lightrw.sampler", parent);
    for (const Expansion& x : chunk) {
      if (x.fetch) {
        sink += sampler.SampleNext(g, app, x.state);
      }
    }
    log->End(span, chunk_sampled);

    // lightrw.cache: the row lookups of every expansion.
    misses.assign(chunk.size(), 0);
    uint64_t chunk_lookups = 0;
    span = log->Begin("lightrw.cache", parent);
    for (size_t i = 0; i < chunk.size(); ++i) {
      const Expansion& x = chunk[i];
      lightrw::core::VertexCache& cache = *caches[x.unit];
      const auto lookup = [&](VertexId v) {
        if (!cache.Probe(v)) {
          cache.Install(v, g.Degree(v));
          ++misses[i];
        }
        ++chunk_lookups;
      };
      lookup(x.state.curr);
      if (with_prev(x)) {
        lookup(x.state.prev);
      }
    }
    log->End(span, chunk_lookups);
    lookups += chunk_lookups;

    // lightrw.burst: adjacency fetches (and Node2Vec re-fetches of an
    // oversized previous adjacency) through the burst engine.
    uint64_t chunk_fetches = 0;
    span = log->Begin("lightrw.burst", parent);
    for (const Expansion& x : chunk) {
      if (!x.fetch) {
        continue;
      }
      Cycle& ready = burst_ready[x.unit];
      if (refetches_prev(x)) {
        ready = bursts[x.unit].Fetch(ready, adjacency_bytes(x.state.prev));
        ++chunk_fetches;
        ++refetches;
      }
      ready = bursts[x.unit].Fetch(ready, adjacency_bytes(x.state.curr));
      ++chunk_fetches;
    }
    log->End(span, chunk_fetches);

    // hwsim.dram: the same requests issued to the channel directly: one
    // single-beat access per row-lookup miss, then each fetch's bursts.
    uint64_t chunk_dram = 0;
    span = log->Begin("hwsim.dram", parent);
    const auto issue = [&](lightrw::hwsim::DramChannel& channel,
                           Cycle& ready, uint64_t bytes) {
      const lightrw::core::BurstPlan plan = lightrw::core::PlanBursts(
          bytes, accel.burst, accel.dram.bus_bytes);
      for (uint32_t b = 0; b < plan.long_bursts; ++b) {
        ready = channel.Access(ready, accel.burst.long_beats);
      }
      for (uint32_t b = 0; b < plan.short_bursts; ++b) {
        ready = channel.Access(ready, accel.burst.short_beats);
      }
      chunk_dram += plan.long_bursts + plan.short_bursts;
    };
    for (size_t i = 0; i < chunk.size(); ++i) {
      const Expansion& x = chunk[i];
      lightrw::hwsim::DramChannel& channel = dram_channels[x.unit];
      Cycle& ready = dram_ready[x.unit];
      for (uint8_t m = 0; m < misses[i]; ++m) {
        ready = channel.Access(ready, 1);
        ++chunk_dram;
      }
      if (!x.fetch) {
        continue;
      }
      if (refetches_prev(x)) {
        issue(channel, ready, adjacency_bytes(x.state.prev));
      }
      issue(channel, ready, adjacency_bytes(x.state.curr));
    }
    log->End(span, chunk_dram);
  }
  g_sink.fetch_add(sink, std::memory_order_relaxed);

  lightrw::core::BurstStats burst_stats;
  for (const auto& engine : bursts) {
    burst_stats.requests += engine.stats().requests;
    burst_stats.long_bursts += engine.stats().long_bursts;
    burst_stats.short_bursts += engine.stats().short_bursts;
  }

  const auto cost = [&](uint64_t run_ops, const char* span_name) {
    return LayerCost{run_ops, NsPerOp(*log, span_name, first_span)};
  };
  result.sampling = cost(result.edges, "sampling");
  result.rng = cost(draws, "rng");
  // The static path never calls the weight function.
  result.apps = cost(static_weights ? 0 : result.edges, "apps");
  result.sampler = cost(sampled, "lightrw.sampler");
  result.cache = cost(lookups, "lightrw.cache");
  result.burst = cost(burst_stats.requests, "lightrw.burst");
  result.burst_dram_ops = burst_stats.long_bursts + burst_stats.short_bursts;
  result.dram = cost(0, "hwsim.dram");  // run_ops set below

  if (service) {
    const auto& cluster = run.service.cluster;
    // Access calls: the channel counts an ECC re-issue as a request.
    result.dram.run_ops =
        cluster.dram.requests - cluster.reliability.dram_retries;
    if (result.steps != cluster.steps) {
      result.error = Mismatch("steps", result.steps, cluster.steps);
    }
    return result;
  }
  const lightrw::core::AccelRunStats& s = run.engine;
  result.dram.run_ops = s.dram.requests;
  const struct {
    const char* what;
    uint64_t replayed;
    uint64_t run;
  } counts[] = {
      {"steps", result.steps, s.steps},
      {"edges examined", result.edges, s.edges_examined},
      {"cache lookups", lookups, s.cache.accesses()},
      {"burst requests", burst_stats.requests, s.burst.requests},
      {"long bursts", burst_stats.long_bursts, s.burst.long_bursts},
      {"short bursts", burst_stats.short_bursts, s.burst.short_bursts},
      {"prev re-fetches", refetches, s.prev_refetches},
  };
  for (const auto& count : counts) {
    if (count.replayed != count.run) {
      result.error = Mismatch(count.what, count.replayed, count.run);
      break;
    }
  }
  return result;
}

}  // namespace hostbench
