// Wall-clock benchmark harness for the simulators.
//
// The rest of the repository measures *simulated* time (kernel cycles,
// makespans) and gates it with goldens; nothing measured how fast the
// simulation itself runs on the host. This harness fills that gap: a
// workload is a closure that performs one complete deterministic run and
// reports its simulated-work counters; the harness times `warmup`
// untimed runs followed by `repeats` timed runs on a monotonic clock and
// aggregates the per-repeat throughput rates with median/MAD (median
// absolute deviation) — robust statistics, because host timings are
// contaminated by one-sided noise (page faults, frequency ramps,
// neighbouring jobs) that poisons means and variances but not medians.
//
// The clock is injected (PerfClock) so the aggregation and JSON paths
// are unit-testable with a fake clock; production code uses
// MonotonicClock, which reads std::chrono::steady_clock and is immune
// to wall-clock adjustments.
//
// Results serialize to PERF_<name>.json (WritePerfJson) with enough
// host context (thread count, hardware concurrency, compiler, build
// mode) to interpret a number after the fact. Simulated counters must
// not move across repeats of a deterministic workload; the harness
// checks that and flags instability in the report
// (`counters_stable: false`) rather than silently averaging.
//
// Environment knobs:
//   LIGHTRW_PERF_WARMUP    untimed warmup runs per workload (default 1)
//   LIGHTRW_PERF_REPEATS   timed runs per workload (default 5)
//   LIGHTRW_PERF_JSON_DIR  output directory for PERF_*.json (default .)

#ifndef LIGHTRW_PERF_PERF_HARNESS_H_
#define LIGHTRW_PERF_PERF_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.h"

namespace lightrw::perf {

// Injectable monotonic time source. NowNanos() must be non-decreasing;
// only differences are ever used.
class PerfClock {
 public:
  virtual ~PerfClock() = default;
  virtual uint64_t NowNanos() = 0;
};

// std::chrono::steady_clock — the production clock.
class MonotonicClock : public PerfClock {
 public:
  uint64_t NowNanos() override;
};

// Test clock: returns the scripted instants in sequence (one per
// NowNanos() call) and aborts if the script runs dry.
class FakeClock : public PerfClock {
 public:
  explicit FakeClock(std::vector<uint64_t> instants);
  uint64_t NowNanos() override;

 private:
  std::vector<uint64_t> instants_;
  size_t next_ = 0;
};

struct RepeatConfig {
  uint32_t warmup = 1;
  uint32_t repeats = 5;
};

// RepeatConfig with LIGHTRW_PERF_WARMUP / LIGHTRW_PERF_REPEATS applied
// (repeats is clamped to >= 1).
RepeatConfig RepeatConfigFromEnv();

// Simulated work one repeat performed, reported by the workload closure.
// A deterministic workload returns identical counters on every repeat.
struct WorkCounters {
  uint64_t simulated_cycles = 0;
  uint64_t walks = 0;
  uint64_t steps = 0;
  uint64_t spans = 0;

  bool operator==(const WorkCounters&) const = default;
};

// Robust summary of one metric's per-repeat samples.
struct Aggregate {
  double median = 0.0;
  double mad = 0.0;  // median absolute deviation from the median
  double min = 0.0;
  double max = 0.0;
};

// Median/MAD/min/max of `samples`; all zeros for an empty vector. Even
// sample counts use the mean of the two middle order statistics.
Aggregate Summarize(const std::vector<double>& samples);

// One measured workload: wall seconds per repeat plus throughput rates
// derived per repeat (counter / wall seconds) and then summarized.
struct WorkloadResult {
  std::string name;
  uint32_t warmup = 0;
  std::vector<double> wall_seconds;  // one entry per timed repeat
  WorkCounters counters;             // from the last repeat
  bool counters_stable = true;       // all repeats agreed
  Aggregate wall;
  Aggregate sim_cycles_per_sec;
  Aggregate walks_per_sec;
  Aggregate steps_per_sec;
  Aggregate spans_per_sec;
};

// Times one workload: `config.warmup` untimed calls, then
// `config.repeats` timed calls of `body`. The clock is read immediately
// before and after each timed call; nothing else runs inside the
// measured window.
WorkloadResult MeasureWorkload(const std::string& name,
                               const RepeatConfig& config, PerfClock* clock,
                               const std::function<WorkCounters()>& body);

// {"sim_threads": ..., "hardware_concurrency": ..., "compiler": ...,
//  "build": "release"|"debug", "pointer_bits": ...,
//  "pwrs_kernel": "avx512"|"scalar"}. sim_threads is the resolved
// LIGHTRW_SIM_THREADS value the engines will use; pwrs_kernel names the
// path this host runs for both SIMD kernels, which share one CPU probe
// (HostHasAvx512Kernel): the PWRS sampler's stream kernel and Node2Vec's
// block merge (avx512), or the PWRS reference lanes and the galloping
// merge (scalar).
obs::Json HostContext();

// One workload as a JSON object (schema documented in DESIGN.md):
// name, warmup, repeats, wall_seconds {median, mad, min, max},
// counters {...}, rates {<metric>: {median, mad, min, max}},
// counters_stable.
obs::Json WorkloadToJson(const WorkloadResult& result);

// Assembles {"perf": name, "schema_version": 1, "host": HostContext(),
// "workloads": [...]} — split from WritePerfJson so tests can validate
// the document without touching the filesystem.
obs::Json PerfReport(const std::string& name,
                     const std::vector<WorkloadResult>& results);

// Writes PerfReport(...) to PERF_<name>.json in LIGHTRW_PERF_JSON_DIR
// (default: the working directory) and prints the path. Returns false
// (after reporting to stderr) if the file cannot be written.
bool WritePerfJson(const std::string& name,
                   const std::vector<WorkloadResult>& results);

}  // namespace lightrw::perf

#endif  // LIGHTRW_PERF_PERF_HARNESS_H_
