// Model of a uniform-sampling static-walk accelerator in the style of
// Su et al. (FPL'21), the FPGA random-walk design the paper compares
// against in §7. Uniform sampling needs no weight pass: a step draws a
// uniform index in [0, degree) and fetches exactly one neighbor record,
// so each step costs a row lookup plus a single short DRAM access. The
// price is generality — it supports only unweighted (uniform) walks,
// whereas LightRW streams the whole adjacency to support arbitrary
// dynamic weight functions.
//
// Used by the ext_uniform_baseline bench to reproduce the paper's
// qualitative comparison quantitatively.
//
// The engine runs on CycleEngine's instance driver (cycle_engine.cc) with
// its BoardDatapath in FetchKind::kOneRecord mode: a row lookup through
// the cache, then one 8-byte neighbor access and no sampler stage. See
// DESIGN.md "Board datapath".

#ifndef LIGHTRW_LIGHTRW_UNIFORM_ENGINE_H_
#define LIGHTRW_LIGHTRW_UNIFORM_ENGINE_H_

#include <span>

#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "graph/csr.h"
#include "lightrw/config.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::core {

// Cycle model + functional sampling for uniform static walks. Reuses the
// AcceleratorConfig (cache, DRAM, instances, threads, DRAM faults,
// latency collection, sinks); burst strategy and sampler lanes are
// irrelevant (one 8-byte fetch per step).
class UniformCycleEngine {
 public:
  // `graph` must outlive the engine. Edge weights are ignored: every
  // neighbor is equally likely (the Su et al. restriction).
  UniformCycleEngine(const graph::CsrGraph* graph,
                     const AcceleratorConfig& config);

  AccelRunStats Run(std::span<const apps::WalkQuery> queries,
                    baseline::WalkOutput* output = nullptr);

 private:
  const graph::CsrGraph* graph_;
  AcceleratorConfig config_;
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_UNIFORM_ENGINE_H_
