// Host-throughput workload: the single-board CycleEngine sweep. Three
// workloads cover the weight updater's paths — MetaPath (dynamic weights,
// relation filtering), Node2Vec (second-order weights, a merge against
// N(prev) per chunk) and DeepWalk (static weights, the fast path) — all
// on the LiveJournal stand-in with the paper's best accelerator
// configuration. Simulated metrics are untouched; only the host wall
// clock is measured.

#include <cstdio>

#include "apps/walk_app.h"
#include "bench_util.h"
#include "lightrw/cycle_engine.h"
#include "perf/perf_harness.h"

namespace lightrw::bench {
namespace {

perf::WorkloadResult MeasureEngine(const std::string& name,
                                   const perf::RepeatConfig& repeat,
                                   perf::PerfClock* clock,
                                   const graph::CsrGraph& g,
                                   const apps::WalkApp& app,
                                   uint32_t walk_length) {
  const core::AcceleratorConfig config = DefaultAccelConfig();
  const auto queries = StandardQueries(g, walk_length);
  return perf::MeasureWorkload(
      name, repeat, clock, [&]() -> perf::WorkCounters {
        core::CycleEngine engine(&g, &app, config);
        const core::AccelRunStats stats = engine.Run(queries);
        perf::WorkCounters counters;
        counters.simulated_cycles = stats.cycles;
        counters.walks = stats.queries;
        counters.steps = stats.steps;
        return counters;
      });
}

int Main() {
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const auto metapath = MakeMetaPath(g);
  const auto node2vec = MakeNode2Vec();
  const apps::StaticWalkApp deepwalk;

  perf::MonotonicClock clock;
  const perf::RepeatConfig repeat = perf::RepeatConfigFromEnv();
  const perf::WorkloadResult mp =
      MeasureEngine("metapath", repeat, &clock, g, *metapath,
                    kMetaPathLength);
  const perf::WorkloadResult n2v =
      MeasureEngine("node2vec", repeat, &clock, g, *node2vec, kNode2VecLength);
  const perf::WorkloadResult dw =
      MeasureEngine("deepwalk", repeat, &clock, g, deepwalk, kEngineWalkLength);

  for (const perf::WorkloadResult* r : {&mp, &n2v, &dw}) {
    std::printf("perf_cycle_engine: %-8s steps/s median %.1f (mad %.1f)\n",
                r->name.c_str(), r->steps_per_sec.median,
                r->steps_per_sec.mad);
  }
  return perf::WritePerfJson("perf_cycle_engine", {mp, n2v, dw}) ? 0 : 1;
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
