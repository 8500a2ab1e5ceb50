// Correctness checks applied to every run's paths.

#ifndef HOSTBENCH_CHECKS_H_
#define HOSTBENCH_CHECKS_H_

#include <cstdint>
#include <string>

#include "baseline/engine.h"
#include "workloads.h"

namespace hostbench {

// FNV-1a over the path count and every path's length and vertices.
uint64_t PathDigest(const lightrw::baseline::WalkOutput& paths);

// Checks that every walk is legal under its app, through public CsrGraph
// calls: one path per query, starting at the query's vertex and at most
// the requested length; every hop an edge of the graph (and, for
// MetaPath, an edge of the relation the schema names for that step); and
// a walk that stopped early stopped at a vertex where the app leaves no
// sampleable neighbour. Returns "" if legal, else the first violation.
std::string CheckPaths(const Inputs& in,
                       const lightrw::baseline::WalkOutput& paths);

}  // namespace hostbench

#endif  // HOSTBENCH_CHECKS_H_
