// Shared helpers for the per-figure/table benchmark binaries.
//
// Every bench binary reproduces one table or figure of the paper. Graph
// stand-ins are scaled down so the whole suite runs on one CPU core in
// minutes; set LIGHTRW_SCALE_SHIFT=0 to run at the paper's full sizes.
//
// Environment knobs:
//   LIGHTRW_SCALE_SHIFT  divide dataset |V| and |E| by 2^shift (default 7)
//   LIGHTRW_MAX_QUERIES  cap on queries per run (default 8192; 0 = |V|)
//   LIGHTRW_SIM_THREADS  host worker threads for sharded simulations
//                        (default 1); simulated metrics are unchanged by
//                        this value — only wall time moves

#ifndef LIGHTRW_BENCH_BENCH_UTIL_H_
#define LIGHTRW_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/walk_app.h"
#include "graph/generators.h"
#include "lightrw/config.h"
#include "obs/json.h"

namespace lightrw::bench {

// Paper parameter settings (§6.1.4).
inline constexpr uint32_t kMetaPathLength = 5;
inline constexpr uint32_t kNode2VecLength = 80;
// Walk length of the engine-speed workloads that are not MetaPath.
inline constexpr uint32_t kEngineWalkLength = 80;
inline constexpr double kNode2VecP = 2.0;
inline constexpr double kNode2VecQ = 0.5;
inline constexpr uint64_t kBenchSeed = 20230618;

uint32_t ScaleShift();
size_t MaxQueries();
// Resolved LIGHTRW_SIM_THREADS (what engines with num_threads = 0 use).
uint32_t SimThreads();

// Cached scaled stand-in for a paper dataset (built on first use).
const graph::CsrGraph& StandIn(graph::Dataset dataset);

// The paper's standard query set for a graph: one query per non-isolated
// vertex, shuffled, truncated to MaxQueries() (or `cap` if nonzero).
std::vector<apps::WalkQuery> StandardQueries(const graph::CsrGraph& graph,
                                             uint32_t length,
                                             size_t cap = 0);

// Exactly `count` queries of the given length, repeating vertices as
// needed (for the Fig. 16 query-count sweep).
std::vector<apps::WalkQuery> RepeatedQueries(const graph::CsrGraph& graph,
                                             uint32_t length, size_t count);

// Fresh MetaPath app with a relation path realizable in `graph`.
std::unique_ptr<apps::WalkApp> MakeMetaPath(const graph::CsrGraph& graph);
// Fresh Node2Vec app with the paper's p=2, q=0.5.
std::unique_ptr<apps::WalkApp> MakeNode2Vec();

// Default accelerator configuration used across benches (k=16, b1+b32,
// degree-aware cache, 4 instances — the paper's best configuration).
core::AcceleratorConfig DefaultAccelConfig();

// ---------------------------------------------------------------------------
// Plain-text table output. Each bench prints the paper-style table/series
// to stdout after the google-benchmark report.

// Prints "== <title> ==" with the reproduction context line.
void PrintReportHeader(const std::string& title);

// printf-style row helper with aligned columns.
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

std::string FormatDouble(double value, int precision = 2);

// ---------------------------------------------------------------------------
// Machine-readable output. Benches that also want to be scraped by
// scripts wrap their summary rows in a Json record and hand it to
// WriteBenchJson, which stamps the shared reproduction context (scale
// shift, query cap, seed) and writes BENCH_<name>.json to the directory
// named by LIGHTRW_BENCH_JSON_DIR (default: the working directory).

// Returns {"scale_shift": ..., "max_queries": ..., "seed": ...}.
obs::Json BenchContext();

// Writes {"bench": name, "context": BenchContext(), "rows": rows} to
// BENCH_<name>.json and prints the path. Errors are reported to stderr
// but do not abort (the plain-text table already went to stdout).
void WriteBenchJson(const std::string& name, obs::Json rows);

}  // namespace lightrw::bench

#endif  // LIGHTRW_BENCH_BENCH_UTIL_H_
