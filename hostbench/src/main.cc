// hostbench: host-speed benchmark of the LightRW simulator.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//             [--pinned FILE] [--spans-out FILE]
//
// Builds the workload's inputs from the seed (several times; the median
// is setup_s), then runs the workload back to back for S seconds on one
// simulation thread, timing each run with perf::MeasureWorkload. Every
// run's paths are checked for legality and its simulated fingerprint
// must equal the reference run's (and the pinned one at the pinned
// seed). With --trace 1 it spends half the budget on untraced runs and
// then makes a traced run that replays the layers in spans (see
// replay.h). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "obs/json.h"
#include "perf/perf_harness.h"
#include "replay.h"
#include "span_log.h"
#include "workloads.h"

namespace hostbench {
namespace {

using lightrw::obs::Json;

constexpr int kSetupRepeats = 9;
constexpr size_t kMinRepeats = 3;
constexpr int kTracedRuns = 3;

struct Args {
  Workload workload = Workload::kDeepWalkEngine;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pinned;
  std::string spans_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) {
        return std::nullopt;
      }
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--pinned") {
      args.pinned = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || args.seconds <= 0.0) {
    return std::nullopt;
  }
  return args;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> values) {
  return lightrw::perf::Summarize(values).median;
}

// The pinned fingerprint of `workload` at the pinned seed, if `path`
// names one for this seed.
std::optional<Json> LoadPinned(const std::string& path, Workload workload,
                               uint64_t seed) {
  if (path.empty()) {
    return std::nullopt;
  }
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, n);
  }
  std::fclose(file);
  auto doc = Json::Parse(text);
  if (!doc.ok()) {
    return std::nullopt;
  }
  const Json* pinned_seed = doc.value().Find("seed");
  const Json* all = doc.value().Find("fingerprints");
  if (pinned_seed == nullptr || all == nullptr ||
      pinned_seed->uint_value() != seed) {
    return std::nullopt;
  }
  const Json* entry = all->Find(WorkloadName(workload));
  if (entry == nullptr) {
    return std::nullopt;
  }
  return *entry;
}

bool MatchesPinned(const Fingerprint& fp, const Json& pinned) {
  const auto parsed = Json::Parse(fp.ToJson());
  if (!parsed.ok() || parsed.value().size() != pinned.size()) {
    return false;
  }
  for (const auto& [key, value] : parsed.value().object()) {
    const Json* want = pinned.Find(key);
    if (want == nullptr || want->Dump() != value.Dump()) {
      return false;
    }
  }
  return true;
}

// The correctness state shared by every checked run.
class Checker {
 public:
  Checker(const Inputs& in, Fingerprint reference, std::optional<Json> pinned)
      : in_(in), reference_(std::move(reference)), pinned_(std::move(pinned)) {}

  // Checks one run whose stats and paths the benchmark times; counts it.
  void Check(const RunOutcome& run) {
    ++attempted_;
    std::string error = CheckPaths(in_, run.paths);
    const Fingerprint fp = FingerprintOf(in_, run);
    if (error.empty() && !(fp.Simulated() == reference_)) {
      error = "simulated fingerprint differs from the reference run: " +
              fp.ToJson();
    }
    if (error.empty() && !first_) {
      first_ = fp;
      std::printf("fingerprint %s\n", fp.ToJson().c_str());
    }
    if (error.empty() && pinned_ && !MatchesPinned(fp, *pinned_)) {
      error = "fingerprint differs from the pinned one: " + fp.ToJson();
    }
    if (error.empty() && !(fp == *first_)) {
      error = "fingerprint differs between repeats: " + fp.ToJson();
    }
    if (!error.empty()) {
      ++failed_;
      std::fprintf(stderr, "hostbench: run %llu: %s\n",
                   static_cast<unsigned long long>(attempted_),
                   error.c_str());
    }
  }

  // Records a failed check that is not tied to one run.
  void Fail(const std::string& error) {
    healthy_ = false;
    std::fprintf(stderr, "hostbench: %s\n", error.c_str());
  }

  bool pinned() const { return pinned_.has_value(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return healthy_ && failed_ == 0; }

 private:
  const Inputs& in_;
  Fingerprint reference_;
  std::optional<Json> pinned_;
  std::optional<Fingerprint> first_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool healthy_ = true;
};

struct Timing {
  std::vector<double> wall_seconds;
  double steps_per_s = 0.0;
};

// Runs the workload back to back for `seconds` (at least kMinRepeats
// runs), timing each with perf::MeasureWorkload and checking each outside
// the timed window.
Timing MeasureRepeats(const Inputs& in, double seconds, Checker* checker) {
  lightrw::perf::MonotonicClock clock;
  const lightrw::perf::RepeatConfig one{/*warmup=*/0, /*repeats=*/1};
  std::vector<double> rates;
  Timing timing;
  const uint64_t start = clock.NowNanos();
  while (rates.size() < kMinRepeats ||
         static_cast<double>(clock.NowNanos() - start) * 1e-9 < seconds) {
    RunOutcome run;
    const lightrw::perf::WorkloadResult result =
        lightrw::perf::MeasureWorkload(
            WorkloadName(in.workload), one, &clock, [&] {
              run = RunWorkload(in);
              lightrw::perf::WorkCounters counters;
              counters.walks = run.paths.num_paths();
              counters.steps = run.steps;
              return counters;
            });
    rates.push_back(result.steps_per_sec.median);
    timing.wall_seconds.push_back(result.wall_seconds.front());
    checker->Check(run);
  }
  timing.steps_per_s = Median(rates);
  std::printf("run wall seconds:");
  for (double wall : timing.wall_seconds) {
    std::printf(" %.4f", wall);
  }
  std::printf("\n");
  return timing;
}

// Metric name -> (value, unit), printed and serialized sorted by name.
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    values_[name] = {value, unit};
  }
  Json ToJson() const {
    Json out = Json::MakeObject();
    for (const auto& [name, entry] : values_) {
      Json metric = Json::MakeObject();
      metric.Set("value", entry.first);
      metric.Set("unit", entry.second);
      out.Set(name, std::move(metric));
    }
    return out;
  }
  void Print() const {
    for (const auto& [name, entry] : values_) {
      std::printf("  %-36s %.6g %s\n", name.c_str(), entry.first,
                  entry.second.c_str());
    }
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// The spans the traced run records directly under its root, in report
// order; "unattributed" is the root's own time.
const char* const kTracedSpans[] = {
    "run",
    "check",
    "replay.prepare",
    "sampling",
    "rng",
    "apps",
    "lightrw.sampler",
    "lightrw.cache",
    "lightrw.burst",
    "hwsim.dram",
    "obs.sinks_off_run",
    "service.batch_engine_run",
    "service.plain_run",
};

// Fingerprint counts reported in the traced run (0 where a workload's
// public stats do not carry them).
const struct {
  const char* name;
  const char* unit;
} kCountMetrics[] = {
    {"lightrw.sim_cycles", "cycles"},
    {"lightrw.prev_refetches", "count"},
    {"lightrw.cache.hit_ratio", "ratio"},
    {"lightrw.burst.long_bursts", "count"},
    {"lightrw.burst.short_bursts", "count"},
    {"lightrw.burst.valid_data_ratio", "ratio"},
    {"lightrw.stage.info_share", "ratio"},
    {"lightrw.stage.fetch_share", "ratio"},
    {"lightrw.stage.sampler_share", "ratio"},
    {"lightrw.stage.pipeline_share", "ratio"},
    {"hwsim.dram.requests_per_step", "count"},
    {"distributed.migration_ratio", "ratio"},
    {"service.completed_ratio", "ratio"},
    {"service.shed", "count"},
    {"service.latency_samples", "count"},
    {"service.latency_p50_cycles", "cycles"},
    {"service.latency_tail_quantile", "ratio"},
    {"service.latency_tail_cycles", "cycles"},
    {"obs.spans", "count"},
    {"obs.windows", "count"},
    {"reliability.dram_retries", "count"},
    {"reliability.link_retransmissions", "count"},
};

// One pass of the traced run: the layer costs of one replay and the host
// time they represent as shares of the adjacent run's wall time.
std::map<std::string, double> PassShares(const ReplayResult& replay,
                                         double wall) {
  return {
      {"sampling.ns_per_edge", replay.sampling.ns_per_op},
      {"sampling.share", replay.SamplingSelf() / wall},
      {"rng.ns_per_draw", replay.rng.ns_per_op},
      {"rng.share", replay.rng.Seconds() / wall},
      {"apps.ns_per_edge", replay.apps.ns_per_op},
      {"apps.share", replay.apps.Seconds() / wall},
      {"lightrw.sampler_ns_per_step", replay.sampler.ns_per_op},
      {"lightrw.sampler_share", replay.SamplerSelf() / wall},
      {"lightrw.cache_ns_per_lookup", replay.cache.ns_per_op},
      {"lightrw.cache_share", replay.cache.Seconds() / wall},
      {"lightrw.burst_ns_per_fetch", replay.burst.ns_per_op},
      {"lightrw.burst_share", replay.BurstSelf() / wall},
      {"hwsim.dram_ns_per_access", replay.dram.ns_per_op},
      {"hwsim.dram_share", replay.dram.Seconds() / wall},
  };
}

// The traced run: kTracedRuns passes, each a workload run in a span, its
// check, and a replay of its layers; for metapath_service each pass also
// times a sinks-off run, a DistributedEngine run and a plain service run
// for the obs and service shares. Replays sit next to the run they are
// compared with, so slow drift in host speed cancels out of the shares.
// Every share and cost is the median over passes.
void TracedRun(const Inputs& in, const Timing& untraced, Checker* checker,
               SpanLog* log, Metrics* metrics) {
  const bool service = IsService(in.workload);
  const int64_t root = log->Begin("traced_run", SpanLog::kNoParent);

  std::vector<double> run_seconds;
  std::map<std::string, std::vector<double>> passes;
  ReplayResult replay;
  RunOutcome run;
  for (int pass = 0; pass < kTracedRuns; ++pass) {
    const int64_t run_span = log->Begin("run", root);
    run = RunWorkload(in);
    log->End(run_span, run.steps);
    const double wall = log->Seconds(run_span);
    run_seconds.push_back(wall);
    Timed(log, "check", root, 1, [&] { checker->Check(run); });
    replay = ReplayLayers(in, run, log, root);
    if (!replay.error.empty()) {
      checker->Fail(replay.error);
    }
    for (const auto& [name, value] : PassShares(replay, wall)) {
      passes[name].push_back(value);
    }
    if (!service) {
      passes["lightrw.residual_share"].push_back(
          (wall - replay.Attributed()) / wall);
      continue;
    }
    RunOutcome other;
    const double sinks_off = Timed(log, "obs.sinks_off_run", root, 0, [&] {
      other = RunWorkload(in, {.sinks = false, .faults = true});
    });
    // Scraping must be passive: the same simulation with sinks off.
    if (!(FingerprintOf(in, other).Simulated() ==
          FingerprintOf(in, run).Simulated())) {
      checker->Fail("sinks-off run differs from the sinks-on run");
    }
    const double batch = Timed(log, "service.batch_engine_run", root, 0,
                               [&] { other = RunBatchEngine(in); });
    const double plain = Timed(log, "service.plain_run", root, 0, [&] {
      other = RunWorkload(in, {.sinks = false, .faults = false});
    });
    const double obs_seconds = wall - sinks_off;
    const double service_seconds = plain - batch;
    passes["obs.host_share"].push_back(obs_seconds / wall);
    passes["service.host_share"].push_back(service_seconds / plain);
    passes["distributed.residual_share"].push_back(
        (wall - replay.Attributed() - obs_seconds - service_seconds) / wall);
  }
  log->End(root);

  for (const auto& [name, values] : passes) {
    const bool ns = name.find("ns_per_") != std::string::npos;
    metrics->Set(name, Median(values), ns ? "ns" : "ratio");
  }
  for (const char* absent :
       {"lightrw.residual_share", "distributed.residual_share",
        "obs.host_share", "service.host_share"}) {
    if (passes.count(absent) == 0) {
      metrics->Set(absent, 0.0, "ratio");
    }
  }
  const double traced_steps_per_s =
      static_cast<double>(run.steps) / Median(run_seconds);
  metrics->Set("trace.overhead_share",
               1.0 - traced_steps_per_s / untraced.steps_per_s, "ratio");

  // Self time of every span kind under the root, and the root's own time.
  const double traced_wall = log->Seconds(root);
  std::map<std::string, double> self;
  for (size_t i = 0; i < log->spans().size(); ++i) {
    const SpanLog::Span& span = log->spans()[i];
    if (span.parent == root) {
      self[span.name] +=
          static_cast<double>(log->SelfNs(static_cast<int64_t>(i))) * 1e-9;
    }
  }
  double self_sum = 0.0;
  for (const char* name : kTracedSpans) {
    metrics->Set(std::string("trace.self_s.") + name, self[name], "s");
    self_sum += self[name];
  }
  const double unattributed =
      static_cast<double>(log->SelfNs(root)) * 1e-9;
  if (self_sum > traced_wall ||
      std::abs(self_sum + unattributed - traced_wall) > 1e-6 * traced_wall) {
    checker->Fail("span self times do not add up to the traced wall time");
  }
  metrics->Set("trace.unattributed_s", unattributed, "s");
  metrics->Set("trace.wall_s", traced_wall, "s");

  // Exact counts of the run, from its public stats.
  const Fingerprint fp = FingerprintOf(in, run);
  for (const auto& count : kCountMetrics) {
    const double* value = fp.Find(count.name);
    metrics->Set(count.name, value != nullptr ? *value : 0.0, count.unit);
  }
  metrics->Set("lightrw.edges_per_step",
               replay.steps == 0 ? 0.0
                                 : static_cast<double>(replay.edges) /
                                       static_cast<double>(replay.steps),
               "count");
}

int Main(int argc, char** argv) {
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: hostbench --workload "
                 "deepwalk_engine|node2vec_engine|metapath_service "
                 "--seed N --seconds S --trace 0|1 [--pinned FILE] "
                 "[--spans-out FILE]\n");
    return 2;
  }
  const Args& args = *parsed;
  const char* name = WorkloadName(args.workload);

  // Set-up, outside every timed window: build the inputs several times
  // and keep the last.
  lightrw::perf::MonotonicClock clock;
  std::vector<double> setup_seconds;
  std::optional<Inputs> inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    inputs.reset();
    const uint64_t t0 = clock.NowNanos();
    inputs.emplace(MakeInputs(args.workload, args.seed));
    setup_seconds.push_back(static_cast<double>(clock.NowNanos() - t0) *
                            1e-9);
  }
  const Inputs& in = *inputs;
  std::printf("hostbench %s seed %llu: %u vertices, %llu edges, %zu walks\n",
              name, static_cast<unsigned long long>(args.seed),
              in.graph.num_vertices(),
              static_cast<unsigned long long>(in.graph.num_edges()),
              in.queries.size());

  // Reference run (sinks off for the service): warms the host caches and
  // fixes the simulated fingerprint every later run must reproduce.
  const RunOutcome reference = RunWorkload(in, {.sinks = false});
  Checker checker(in, FingerprintOf(in, reference).Simulated(),
                  LoadPinned(args.pinned, args.workload, args.seed));
  if (const std::string error = CheckPaths(in, reference.paths);
      !error.empty()) {
    checker.Fail("reference run: " + error);
  }

  Metrics metrics;
  if (!args.trace) {
    const Timing timing = MeasureRepeats(in, args.seconds, &checker);
    metrics.Set("steps_per_s", timing.steps_per_s, "1/s");
    metrics.Set("setup_s", Median(setup_seconds), "s");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    const Timing untraced = MeasureRepeats(in, args.seconds / 2, &checker);
    SpanLog log;
    TracedRun(in, untraced, &checker, &log, &metrics);
    if (!args.spans_out.empty()) {
      const lightrw::Status written = log.WriteJson(args.spans_out);
      if (!written.ok()) {
        checker.Fail("writing spans: " + written.ToString());
      }
    }
  }

  const double mismatch =
      checker.attempted() == 0
          ? 1.0
          : static_cast<double>(checker.failed()) /
                static_cast<double>(checker.attempted());
  std::printf("%s: %llu checked runs, sim_mismatch_frac %.6g (fraction)%s\n",
              name, static_cast<unsigned long long>(checker.attempted()),
              mismatch, checker.pinned() ? ", pinned fingerprint" : "");
  metrics.Print();

  Json result = Json::MakeObject();
  result.Set("correct", checker.correct());
  result.Set("attempted", checker.attempted());
  result.Set("failed", checker.failed());
  result.Set("metrics", metrics.ToJson());
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::Main(argc, argv); }
