// Host-speed microbenchmark of the DRAM and burst layers.
//
//   fetch   DynamicBurstEngine::Fetch of one adjacency at b1+b32 on the
//           accelerator channel (8 banks), for degrees 16, 207 (the
//           LiveJournal stand-in's mean examined edges per step) and 4096
//           (a hub). `grouped` rows take the channel's AccessGroup path,
//           one call per burst length; `per_burst` rows attach a trace
//           recorder that records nothing (cap 0), which keeps the
//           per-burst Access loop the channel uses under a trace.
//   access  one 1-beat DramChannel::Access, the cache-miss row read, at 1
//           and 8 banks.
//
// Each fetch or access is ready when the previous one's data transfer
// ends, so bank and bus state carry over as in a busy engine.
//
// Run: ./build/bench/micro_dram [--benchmark_filter=...]
// Time per iteration is ns per fetch (or access); items_per_second counts
// channel requests. tests/hwsim_test.cc proves both paths leave the same
// channel state.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "graph/types.h"
#include "hwsim/dram.h"
#include "lightrw/burst_engine.h"
#include "lightrw/config.h"
#include "obs/trace.h"

namespace lightrw::bench {
namespace {

enum class Path { kGrouped, kPerBurst };

void BM_Fetch(benchmark::State& state, Path path) {
  hwsim::DramChannel channel(core::DefaultAcceleratorDram());
  core::DynamicBurstEngine engine(&channel, core::BurstStrategy{});
  obs::TraceRecorder silent(obs::TraceConfig{/*max_events=*/0});
  if (path == Path::kPerBurst) {
    channel.AttachTrace(&silent, 0, 0);
  }
  const uint64_t bytes =
      static_cast<uint64_t>(state.range(0)) * graph::kBytesPerEdgeRecord;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Fetch(channel.busy_until(), bytes));
  }
  state.SetItemsProcessed(static_cast<int64_t>(channel.stats().requests));
  state.counters["bursts_per_fetch"] =
      static_cast<double>(channel.stats().requests) / state.iterations();
}

void BM_Access(benchmark::State& state) {
  hwsim::DramConfig config = core::DefaultAcceleratorDram();
  config.num_banks = static_cast<uint32_t>(state.range(0));
  hwsim::DramChannel channel(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.Access(channel.busy_until(), 1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK_CAPTURE(BM_Fetch, grouped, Path::kGrouped)
    ->Arg(16)
    ->Arg(207)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_Fetch, per_burst, Path::kPerBurst)
    ->Arg(16)
    ->Arg(207)
    ->Arg(4096);
BENCHMARK(BM_Access)->Arg(1)->Arg(8);

}  // namespace
}  // namespace lightrw::bench

BENCHMARK_MAIN();
