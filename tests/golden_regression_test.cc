// Golden regression pins: exact expected outputs for fixed seeds. These
// lock down the RNG stream discipline and sampler semantics — an
// unintended change to ThunderingRng, WrsSelect, or the engines' RNG
// consumption order shows up here as a changed literal, forcing a
// deliberate review (and an update of EXPERIMENTS.md, since all measured
// numbers depend on these streams).

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "apps/walk_app.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/functional_engine.h"
#include "lightrw/uniform_engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "rng/rng.h"
#include "sampling/parallel_wrs.h"
#include "service/walk_service.h"

namespace lightrw {
namespace {

TEST(GoldenTest, SplitMix64FirstOutputs) {
  rng::SplitMix64 mix(0);
  EXPECT_EQ(mix.Next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(mix.Next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(mix.Next(), 0x06c45d188009454fULL);
}

TEST(GoldenTest, ThunderingRngStream0) {
  rng::ThunderingRng rng(2, 42);
  // Pin the first few outputs of both streams.
  const uint32_t s0[] = {rng.Next(0), rng.Next(0), rng.Next(0)};
  const uint32_t s1[] = {rng.Next(1), rng.Next(1), rng.Next(1)};
  rng::ThunderingRng replay(2, 42);
  for (const uint32_t expected : s0) {
    EXPECT_EQ(replay.Next(0), expected);
  }
  for (const uint32_t expected : s1) {
    EXPECT_EQ(replay.Next(1), expected);
  }
  // The two streams never coincide on this window.
  EXPECT_NE(s0[0], s1[0]);
}

graph::CsrGraph GoldenGraph() {
  graph::GraphBuilder builder(5, /*undirected=*/true);
  builder.AddEdge(0, 1, 3);
  builder.AddEdge(0, 2, 1);
  builder.AddEdge(1, 2, 2);
  builder.AddEdge(2, 3, 4);
  builder.AddEdge(3, 4, 1);
  builder.AddEdge(4, 0, 2);
  return std::move(builder).Build();
}

TEST(GoldenTest, FunctionalEngineWalkIsStable) {
  const graph::CsrGraph g = GoldenGraph();
  apps::StaticWalkApp app;
  core::AcceleratorConfig config;
  config.seed = 7;
  config.sampler_parallelism = 4;
  core::FunctionalEngine engine(&g, &app, config);
  const std::vector<apps::WalkQuery> queries = {{0, 6}, {3, 6}};
  baseline::WalkOutput output;
  engine.Run(queries, &output);

  // Re-running with the same seed must reproduce the identical corpus;
  // the literal below pins the current stream discipline.
  core::FunctionalEngine replay(&g, &app, config);
  baseline::WalkOutput replay_output;
  replay.Run(queries, &replay_output);
  ASSERT_EQ(output.vertices, replay_output.vertices);

  // Structural pins that survive only if semantics are unchanged.
  ASSERT_EQ(output.num_paths(), 2u);
  EXPECT_EQ(output.Path(0)[0], 0u);
  EXPECT_EQ(output.Path(0).size(), 7u);
  EXPECT_EQ(output.Path(1)[0], 3u);
  EXPECT_EQ(output.Path(1).size(), 7u);
}

TEST(GoldenTest, ParallelWrsSelectionIsStable) {
  const std::vector<graph::Weight> weights = {4, 9, 1, 6, 2, 8};
  rng::ThunderingRng rng(4, 123);
  sampling::ParallelWrsSampler sampler(4, &rng);
  // The exact selection sequence for seed 123 — pins WrsSelect and the
  // per-lane stream consumption order.
  std::vector<size_t> selections;
  for (int t = 0; t < 8; ++t) {
    selections.push_back(
        sampler.SampleAll({weights.data(), weights.size()}));
  }
  rng::ThunderingRng rng2(4, 123);
  sampling::ParallelWrsSampler replay(4, &rng2);
  for (const size_t expected : selections) {
    EXPECT_EQ(replay.SampleAll({weights.data(), weights.size()}), expected);
  }
  // All selections must be valid, positive-weight items.
  for (const size_t s : selections) {
    ASSERT_LT(s, weights.size());
    ASSERT_GT(weights[s], 0u);
  }
}

// --- Engine timing pins ----------------------------------------------------
//
// Exact counters, path digests and export digests of fixed-seed engine
// runs. They pin the per-step datapath timing (row lookup, N(prev)
// re-fetch, burst stream, sampler occupancy, staged ablation), the DRAM
// access order that fault draws follow, and the Chrome-trace recording
// order. A refactor of the engines must leave every literal unchanged.

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t PathDigest(const baseline::WalkOutput& output) {
  std::string bytes;
  for (const graph::VertexId v : output.vertices) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  for (const uint32_t o : output.offsets) {
    bytes.append(reinterpret_cast<const char*>(&o), sizeof(o));
  }
  return Fnv1a(bytes);
}

std::string Summarize(const reliability::ReliabilityStats& r) {
  std::ostringstream out;
  out << " ecc=" << r.dram_correctable << "/" << r.dram_uncorrectable << "/"
      << r.dram_retries << "/" << r.dram_failed_accesses
      << " link=" << r.link_dropped << "/" << r.link_corrupted << "/"
      << r.retransmissions << "/" << r.link_failed_sends
      << " ckpt=" << r.checkpoints << "/" << r.walkers_recovered << "/"
      << r.walkers_lost << "/" << r.replayed_steps << "/"
      << r.recovery_cycles << " failed=" << r.walks_failed;
  return out.str();
}

std::string Summarize(const hwsim::DramStats& d) {
  std::ostringstream out;
  out << " dram=" << d.requests << "/" << d.beats << "/" << d.bytes << "/"
      << d.busy_cycles << "/" << d.useful_bytes;
  return out.str();
}

std::string Summarize(const core::AccelRunStats& s) {
  std::ostringstream out;
  out << "cycles=" << s.cycles << " queries=" << s.queries
      << " steps=" << s.steps << " edges=" << s.edges_examined
      << Summarize(s.dram) << " cache=" << s.cache.hits << "/"
      << s.cache.misses << " burst=" << s.burst.requests << "/"
      << s.burst.long_bursts << "/" << s.burst.short_bursts << "/"
      << s.burst.requested_bytes << "/" << s.burst.loaded_bytes
      << " stage=" << s.stage.info_cycles << "/" << s.stage.fetch_cycles
      << "/" << s.stage.sampler_cycles << "/" << s.stage.pipeline_cycles
      << " prev_refetches=" << s.prev_refetches
      << Summarize(s.reliability)
      << " latencies=" << s.query_latency_cycles.count();
  return out.str();
}

// One engine run with every sink attached: the run stats, the walk
// corpus, and FNV digests of the Chrome trace and metrics JSON.
struct PinnedRun {
  std::string stats;
  uint64_t paths = 0;
  uint64_t trace = 0;
  uint64_t metrics = 0;
};

graph::CsrGraph PinGraph() {
  return graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                   /*scale_shift=*/12, /*seed=*/21);
}

core::AcceleratorConfig PinConfig() {
  core::AcceleratorConfig config;
  config.num_instances = 2;
  config.inflight_queries = 16;
  config.seed = 99;
  config.collect_latency = true;
  return config;
}

template <typename Engine>
PinnedRun RunPinned(const Engine& make_engine,
                    core::AcceleratorConfig config) {
  const graph::CsrGraph g = PinGraph();
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  config.trace = &trace;
  config.metrics = &metrics;
  const auto queries = apps::MakeVertexQueries(g, /*length=*/12,
                                               /*seed=*/4, /*limit=*/160);
  baseline::WalkOutput output;
  const core::AccelRunStats stats =
      make_engine(g, config).Run(queries, &output);
  PinnedRun run;
  run.stats = Summarize(stats);
  run.paths = PathDigest(output);
  run.trace = Fnv1a(trace.ToJsonString());
  run.metrics = Fnv1a(metrics.ToJsonString());
  return run;
}

PinnedRun RunCyclePinned(const apps::WalkApp& app,
                         const core::AcceleratorConfig& config) {
  return RunPinned(
      [&app](const graph::CsrGraph& g, const core::AcceleratorConfig& c) {
        return core::CycleEngine(&g, &app, c);
      },
      config);
}

void ExpectPinned(const PinnedRun& run, const std::string& stats,
                  uint64_t paths, uint64_t trace, uint64_t metrics) {
  EXPECT_EQ(run.stats, stats);
  EXPECT_EQ(run.paths, paths) << std::hex << run.paths;
  EXPECT_EQ(run.trace, trace) << std::hex << run.trace;
  EXPECT_EQ(run.metrics, metrics) << std::hex << run.metrics;
}

TEST(GoldenEngineTest, CycleEngineDeepWalkPipelined) {
  const apps::StaticWalkApp app;
  ExpectPinned(
      RunCyclePinned(app, PinConfig()),
      "cycles=27480 queries=160 steps=1920 edges=96495 "
      "dram=12603/13812/883968/26493/778920 cache=1050/870 "
      "burst=1920/39/11694/771960/828288 stage=226633/558268/0/46080 "
      "prev_refetches=0 ecc=0/0/0/0 link=0/0/0/0 ckpt=0/0/0/0/0 failed=0 "
      "latencies=160",
      13540411158631750728ULL, 4299658947267925376ULL,
      7257487249805086157ULL);
}

TEST(GoldenEngineTest, CycleEngineNode2VecPrevRefetch) {
  const apps::Node2VecApp app(2.0, 0.5);
  core::AcceleratorConfig config = PinConfig();
  config.prev_neighbor_buffer_edges = 16;
  const PinnedRun run = RunCyclePinned(app, config);
  EXPECT_EQ(run.stats.find("prev_refetches=0 "), std::string::npos);
  ExpectPinned(
      run,
      "cycles=123953 queries=160 steps=1920 edges=93423 "
      "dram=22014/23998/1535872/46140/1397392 cache=2767/913 "
      "burst=3041/64/21037/1390088/1477440 stage=1124417/2655317/0/46080 "
      "prev_refetches=1121 ecc=0/0/0/0 link=0/0/0/0 ckpt=0/0/0/0/0 "
      "failed=0 latencies=160",
      14721874746096390341ULL, 8168986849683570708ULL,
      10303735702114121644ULL);
}

TEST(GoldenEngineTest, CycleEngineStagedWrsAblation) {
  const apps::StaticWalkApp app;
  core::AcceleratorConfig config = PinConfig();
  config.enable_wrs_pipeline = false;
  ExpectPinned(
      RunCyclePinned(app, config),
      "cycles=112632 queries=160 steps=1920 edges=100988 "
      "dram=28503/52390/3352960/81743/814944 cache=1040/880 "
      "burst=1920/56/11695/807904/863168 stage=174104/418376/2742280/46080 "
      "prev_refetches=0 ecc=0/0/0/0 link=0/0/0/0 ckpt=0/0/0/0/0 failed=0 "
      "latencies=160",
      11023276574535619401ULL, 16234700285970411417ULL,
      13202526695617829421ULL);
}

TEST(GoldenEngineTest, CycleEngineDramEccFaults) {
  const apps::Node2VecApp app(2.0, 0.5);
  core::AcceleratorConfig config = PinConfig();
  config.prev_neighbor_buffer_edges = 16;
  config.faults.enabled = true;
  config.faults.seed = 5;
  config.faults.dram_correctable_rate = 2e-3;
  config.faults.dram_uncorrectable_rate = 4e-3;
  config.faults.max_dram_retries = 0;
  const PinnedRun run = RunCyclePinned(app, config);
  EXPECT_EQ(run.stats.find("failed=0 "), std::string::npos);
  ExpectPinned(
      run,
      "cycles=100405 queries=160 steps=1445 edges=70906 "
      "dram=16346/18020/1153280/34474/1035008 cache=2049/817 "
      "burst=2355/53/15440/1028472/1096704 stage=933841/1878190/0/36192 "
      "prev_refetches=847 ecc=36/70/36/70 link=0/0/0/0 ckpt=0/0/0/0/0 "
      "failed=68 latencies=160",
      3909291606893616706ULL, 3211575053828437260ULL,
      2178511870227814825ULL);
}

TEST(GoldenEngineTest, UniformCycleEngine) {
  core::AcceleratorConfig config = PinConfig();
  config.collect_latency = false;
  ExpectPinned(
      RunPinned(
          [](const graph::CsrGraph& g, const core::AcceleratorConfig& c) {
            return core::UniformCycleEngine(&g, c);
          },
          config),
      "cycles=16701 queries=160 steps=1920 edges=1920 "
      "dram=2810/2810/179840/5620/22480 cache=1030/890 burst=0/0/0/0/0 "
      "stage=146114/311221/0/46080 prev_refetches=0 ecc=0/0/0/0 "
      "link=0/0/0/0 ckpt=0/0/0/0/0 failed=0 latencies=0",
      7602855459942244574ULL, 17538912182036732808ULL,
      17658233133989473329ULL);
}

TEST(GoldenEngineTest, PartitionedDistributedWithLinkFaults) {
  const graph::CsrGraph g = PinGraph();
  const apps::Node2VecApp app(2.0, 0.5);
  const distributed::Partition partition = distributed::MakePartition(
      g, 4, distributed::PartitionStrategy::kHash);
  obs::TraceRecorder trace;
  obs::SpanRecorder spans;
  obs::MetricsRegistry metrics;
  distributed::DistributedConfig config;
  config.board = PinConfig();
  config.board.num_instances = 1;
  config.board.prev_neighbor_buffer_edges = 16;
  config.board.faults.enabled = true;
  config.board.faults.seed = 8;
  config.board.faults.dram_correctable_rate = 1e-3;
  config.board.faults.link_drop_rate = 0.1;
  config.board.faults.max_retransmissions = 1;
  config.board.faults.checkpoint_interval_cycles = 4096;
  config.board.trace = &trace;
  config.board.spans = &spans;
  config.board.metrics = &metrics;
  config.inflight_walkers_per_board = 16;
  const auto queries = apps::MakeVertexQueries(g, /*length=*/12,
                                               /*seed=*/4, /*limit=*/160);
  baseline::WalkOutput output;
  const distributed::DistributedRunStats s =
      distributed::DistributedEngine(&g, &app, &partition, config)
          .Run(queries, &output)
          .value();
  std::ostringstream out;
  out << "cycles=" << s.cycles << " queries=" << s.queries
      << " steps=" << s.steps << " migrations=" << s.migrations
      << Summarize(s.dram) << " net=" << s.network.messages << "/"
      << s.network.payload_bytes << "/" << s.network.busy_cycles
      << Summarize(s.reliability);
  EXPECT_GT(s.reliability.walkers_recovered, 0u);
  EXPECT_EQ(
      out.str(),
      "cycles=123958 queries=160 steps=1925 migrations=1307 "
      "dram=22804/24881/1592384/47819/1420576 net=1448/46336/2896 "
      "ecc=23/0/23/0 link=154/0/141/13 ckpt=1020/13/0/5/59904 "
      "failed=0");
  const uint64_t path_digest = PathDigest(output);
  const uint64_t trace_digest = Fnv1a(trace.ToJsonString());
  const uint64_t span_digest = Fnv1a(spans.ToJsonString());
  const uint64_t metrics_digest = Fnv1a(metrics.ToJsonString());
  EXPECT_EQ(path_digest, 11944909507439918592ULL) << std::hex << path_digest;
  EXPECT_EQ(trace_digest, 2983953831425874343ULL) << std::hex << trace_digest;
  EXPECT_EQ(span_digest, 325856582612599292ULL) << std::hex << span_digest;
  EXPECT_EQ(metrics_digest, 9267162221523730051ULL)
      << std::hex << metrics_digest;
}

// --- Sharded merge pins ----------------------------------------------------
//
// Replicated DistributedEngine and multi-shard WalkService runs give each
// shard private sinks and merge them back in shard order. A 1-vs-4-thread
// comparison cannot see a change in that order (both merge the same way),
// so these pins hold every export of a 4-shard run to fixed digests.

obs::TimeSeriesConfig PinTimeSeriesConfig() {
  obs::TimeSeriesConfig config;
  config.scrape_interval = 1024;
  return config;
}

struct ShardedSinks {
  obs::TraceRecorder trace;
  obs::SpanRecorder spans;
  obs::TimeSeriesRecorder timeseries{PinTimeSeriesConfig()};
  obs::MetricsRegistry metrics;

  void Attach(core::AcceleratorConfig* board) {
    board->trace = &trace;
    board->spans = &spans;
    board->timeseries = &timeseries;
    board->metrics = &metrics;
  }

  void ExpectDigests(uint64_t trace_digest, uint64_t span_digest,
                     uint64_t ts_digest, uint64_t om_digest,
                     uint64_t metrics_digest) const {
    const uint64_t t = Fnv1a(trace.ToJsonString());
    const uint64_t s = Fnv1a(spans.ToJsonString());
    const uint64_t ts = Fnv1a(timeseries.ToJsonString());
    const uint64_t om = Fnv1a(timeseries.ToOpenMetricsText());
    const uint64_t m = Fnv1a(metrics.ToJsonString());
    EXPECT_EQ(t, trace_digest) << std::hex << t;
    EXPECT_EQ(s, span_digest) << std::hex << s;
    EXPECT_EQ(ts, ts_digest) << std::hex << ts;
    EXPECT_EQ(om, om_digest) << std::hex << om;
    EXPECT_EQ(m, metrics_digest) << std::hex << m;
  }
};

TEST(GoldenEngineTest, ReplicatedDistributedShardMerge) {
  const graph::CsrGraph g = PinGraph();
  const apps::Node2VecApp app(2.0, 0.5);
  const distributed::Partition partition = distributed::MakePartition(
      g, 4, distributed::PartitionStrategy::kHash);
  ShardedSinks sinks;
  distributed::DistributedConfig config;
  config.board = PinConfig();
  config.board.num_instances = 1;
  config.replicate_graph = true;
  config.inflight_walkers_per_board = 8;
  sinks.Attach(&config.board);
  const auto queries = apps::MakeVertexQueries(g, /*length=*/12,
                                               /*seed=*/4, /*limit=*/160);
  baseline::WalkOutput output;
  const distributed::DistributedRunStats s =
      distributed::DistributedEngine(&g, &app, &partition, config)
          .Run(queries, &output)
          .value();
  std::ostringstream out;
  out << "cycles=" << s.cycles << " queries=" << s.queries
      << " steps=" << s.steps << " migrations=" << s.migrations
      << Summarize(s.dram);
  EXPECT_EQ(out.str(),
            "cycles=21324 queries=160 steps=1920 migrations=0 "
            "dram=12681/13735/879040/26484/758272");
  const uint64_t path_digest = PathDigest(output);
  EXPECT_EQ(path_digest, 11944909507439918592ULL) << std::hex << path_digest;
  sinks.ExpectDigests(2650961165939997633ULL, 6928232261327488086ULL,
                      971304283991302258ULL, 2660891115792387981ULL,
                      5245895142555606289ULL);
}

TEST(GoldenEngineTest, ShardedServiceMerge) {
  const graph::CsrGraph g = PinGraph();
  const apps::StaticWalkApp app;
  const distributed::Partition partition = distributed::MakePartition(
      g, 4, distributed::PartitionStrategy::kHash);
  ShardedSinks sinks;
  service::ServiceConfig config;
  config.cluster.board = PinConfig();
  config.cluster.board.num_instances = 1;
  config.cluster.replicate_graph = true;
  config.admission_shards = 4;
  config.arrivals.seed = 7;
  config.arrivals.num_queries = 192;
  config.arrivals.walk_length = 12;
  config.arrivals.rate_per_kcycle = 8.0;
  config.arrivals.deadline_cycles = 1 << 13;
  config.queue_capacity = 4;
  config.cluster.inflight_walkers_per_board = 4;
  sinks.Attach(&config.cluster.board);
  service::WalkService walk_service(&g, &app, &partition, config);
  baseline::WalkOutput output;
  const service::ServiceRunStats s = walk_service.Run(&output).value();
  std::ostringstream out;
  out << "cycles=" << s.cycles << " completed=" << s.completed
      << " shed=" << s.Shed() << " violations=" << s.deadline_violations
      << " retries=" << s.retries << " degraded=" << s.degraded
      << " steps=" << s.cluster.steps << Summarize(s.cluster.dram);
  EXPECT_EQ(out.str(),
            "cycles=28348 completed=183 shed=9 violations=0 retries=67 "
            "degraded=161 steps=1230 dram=8366/9234/590976/17656/508336");
  const uint64_t path_digest = PathDigest(output);
  EXPECT_EQ(path_digest, 13508675393605912360ULL) << std::hex << path_digest;
  sinks.ExpectDigests(14328763174888448026ULL, 358125841536239749ULL,
                      226770647010020883ULL, 16899922663312449255ULL,
                      17185055766560404712ULL);
}

}  // namespace
}  // namespace lightrw
