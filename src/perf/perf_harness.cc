#include "perf/perf_harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/check.h"
#include "obs/trace.h"
#include "sampling/parallel_wrs.h"

namespace lightrw::perf {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  return static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
}

double RatePerSecond(uint64_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

obs::Json AggregateToJson(const Aggregate& a) {
  obs::Json j = obs::Json::MakeObject();
  j.Set("median", a.median);
  j.Set("mad", a.mad);
  j.Set("min", a.min);
  j.Set("max", a.max);
  return j;
}

}  // namespace

uint64_t MonotonicClock::NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

FakeClock::FakeClock(std::vector<uint64_t> instants)
    : instants_(std::move(instants)) {}

uint64_t FakeClock::NowNanos() {
  LIGHTRW_CHECK(next_ < instants_.size());
  return instants_[next_++];
}

RepeatConfig RepeatConfigFromEnv() {
  RepeatConfig config;
  config.warmup = static_cast<uint32_t>(EnvU64("LIGHTRW_PERF_WARMUP", 1));
  config.repeats = static_cast<uint32_t>(
      std::max<uint64_t>(1, EnvU64("LIGHTRW_PERF_REPEATS", 5)));
  return config;
}

Aggregate Summarize(const std::vector<double>& samples) {
  Aggregate out;
  if (samples.empty()) {
    return out;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto median_of_sorted = [](const std::vector<double>& v) {
    const size_t n = v.size();
    return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  out.median = median_of_sorted(sorted);
  out.min = sorted.front();
  out.max = sorted.back();
  std::vector<double> deviations;
  deviations.reserve(sorted.size());
  for (const double s : sorted) {
    deviations.push_back(std::abs(s - out.median));
  }
  std::sort(deviations.begin(), deviations.end());
  out.mad = median_of_sorted(deviations);
  return out;
}

WorkloadResult MeasureWorkload(const std::string& name,
                               const RepeatConfig& config, PerfClock* clock,
                               const std::function<WorkCounters()>& body) {
  WorkloadResult result;
  result.name = name;
  result.warmup = config.warmup;
  for (uint32_t i = 0; i < config.warmup; ++i) {
    (void)body();
  }
  std::vector<double> cycles_rate, walks_rate, steps_rate, spans_rate;
  for (uint32_t i = 0; i < config.repeats; ++i) {
    const uint64_t begin = clock->NowNanos();
    const WorkCounters counters = body();
    const uint64_t end = clock->NowNanos();
    const double seconds = static_cast<double>(end - begin) * 1e-9;
    if (i == 0) {
      result.counters = counters;
    } else if (counters != result.counters) {
      result.counters_stable = false;
      result.counters = counters;
    }
    result.wall_seconds.push_back(seconds);
    cycles_rate.push_back(RatePerSecond(counters.simulated_cycles, seconds));
    walks_rate.push_back(RatePerSecond(counters.walks, seconds));
    steps_rate.push_back(RatePerSecond(counters.steps, seconds));
    spans_rate.push_back(RatePerSecond(counters.spans, seconds));
  }
  result.wall = Summarize(result.wall_seconds);
  result.sim_cycles_per_sec = Summarize(cycles_rate);
  result.walks_per_sec = Summarize(walks_rate);
  result.steps_per_sec = Summarize(steps_rate);
  result.spans_per_sec = Summarize(spans_rate);
  return result;
}

obs::Json HostContext() {
  obs::Json host = obs::Json::MakeObject();
  host.Set("sim_threads", EnvU64("LIGHTRW_SIM_THREADS", 1));
  host.Set("hardware_concurrency",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  host.Set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.Set("compiler", std::string("gcc ") + __VERSION__);
#else
  host.Set("compiler", "unknown");
#endif
#if defined(NDEBUG)
  host.Set("build", "release");
#else
  host.Set("build", "debug");
#endif
  host.Set("pointer_bits", static_cast<uint64_t>(sizeof(void*) * 8));
  host.Set("pwrs_kernel", sampling::PwrsKernelName());
  return host;
}

obs::Json WorkloadToJson(const WorkloadResult& result) {
  obs::Json w = obs::Json::MakeObject();
  w.Set("name", result.name);
  w.Set("warmup", static_cast<uint64_t>(result.warmup));
  w.Set("repeats", static_cast<uint64_t>(result.wall_seconds.size()));
  w.Set("wall_seconds", AggregateToJson(result.wall));
  obs::Json counters = obs::Json::MakeObject();
  counters.Set("simulated_cycles", result.counters.simulated_cycles);
  counters.Set("walks", result.counters.walks);
  counters.Set("steps", result.counters.steps);
  counters.Set("spans", result.counters.spans);
  w.Set("counters", counters);
  obs::Json rates = obs::Json::MakeObject();
  rates.Set("sim_cycles_per_sec", AggregateToJson(result.sim_cycles_per_sec));
  rates.Set("walks_per_sec", AggregateToJson(result.walks_per_sec));
  rates.Set("steps_per_sec", AggregateToJson(result.steps_per_sec));
  rates.Set("spans_per_sec", AggregateToJson(result.spans_per_sec));
  w.Set("rates", rates);
  w.Set("counters_stable", result.counters_stable);
  return w;
}

obs::Json PerfReport(const std::string& name,
                     const std::vector<WorkloadResult>& results) {
  obs::Json report = obs::Json::MakeObject();
  report.Set("perf", name);
  report.Set("schema_version", static_cast<uint64_t>(1));
  report.Set("host", HostContext());
  obs::Json workloads = obs::Json::MakeArray();
  for (const WorkloadResult& result : results) {
    workloads.Append(WorkloadToJson(result));
  }
  report.Set("workloads", workloads);
  return report;
}

bool WritePerfJson(const std::string& name,
                   const std::vector<WorkloadResult>& results) {
  const char* dir = std::getenv("LIGHTRW_PERF_JSON_DIR");
  std::string path = (dir != nullptr && *dir != '\0')
                         ? std::string(dir) + "/PERF_" + name + ".json"
                         : "PERF_" + name + ".json";
  const Status written =
      obs::WriteTextFile(PerfReport(name, results).Dump(2) + "\n", path);
  if (!written.ok()) {
    std::fprintf(stderr, "perf: %s\n", written.ToString().c_str());
    return false;
  }
  std::printf("perf json: %s\n", path.c_str());
  return true;
}

}  // namespace lightrw::perf
