#!/usr/bin/env python3
"""Wall-clock perf-regression gate for PERF_*.json files.

Usage: check_perf_json.py bench/perf_baselines.json PERF_a.json [...]

Every report's host block must name the PWRS sampler path the run took
("pwrs_kernel": "avx512" or "scalar"), so runs on hosts with and without
AVX-512 are never compared unawares.

The baselines file pins per-workload rate floors:

  {
    "tolerance": 0.10,          # relative slack applied to every floor
    "reports": {
      "perf_distributed": {     # PERF_<name>.json "name" field
        "replicated": {         # workload name
          "walks_per_sec": 1500 # floor on the median rate
        }
      }
    }
  }

A measured median must satisfy median >= floor * (1 - tolerance).
Floors are intentionally far below a healthy run's medians: unlike the
simulated-metric goldens, wall-clock rates move with the host, so this
gate only catches large regressions (an accidental O(n^2) loop, a
debug-build slip, a hot-path allocation storm), not single-digit noise.
To re-baseline after an intentional change, run the perf benches on a
quiet machine and set each floor to roughly half the observed median.

Exit codes: 0 ok, 1 regression or malformed report, 2 usage.
"""

import json
import sys

# The PWRS sampler paths a report's host block may name.
PWRS_KERNELS = ("avx512", "scalar")


def fail(msg):
    print(f"check_perf_json: {msg}", file=sys.stderr)


def check_report(path, baselines, tolerance):
    with open(path) as f:
        report = json.load(f)
    ok = True
    for key in ("perf", "host", "workloads"):
        if key not in report:
            fail(f"{path}: missing required key '{key}'")
            return False
    kernel = report["host"].get("pwrs_kernel")
    if kernel not in PWRS_KERNELS:
        fail(f"{path}: host.pwrs_kernel must be one of "
             f"{', '.join(PWRS_KERNELS)}, got {kernel!r}")
        return False
    name = report["perf"]
    floors = baselines.get(name)
    if floors is None:
        fail(f"{path}: no baseline entry for report '{name}'")
        return False
    workloads = {w["name"]: w for w in report["workloads"]}
    for workload_name, rate_floors in floors.items():
        workload = workloads.get(workload_name)
        if workload is None:
            fail(f"{path}: report '{name}' has no workload "
                 f"'{workload_name}'")
            ok = False
            continue
        if not workload.get("counters_stable", False):
            fail(f"{path}: {name}/{workload_name}: simulated counters "
                 "differ across repeats (determinism bug, not a perf "
                 "issue)")
            ok = False
        rates = workload.get("rates", {})
        for metric, floor in rate_floors.items():
            agg = rates.get(metric)
            if agg is None or "median" not in agg:
                fail(f"{path}: {name}/{workload_name}: missing rate "
                     f"'{metric}'")
                ok = False
                continue
            median = agg["median"]
            limit = floor * (1.0 - tolerance)
            if median < limit:
                drop = 100.0 * (floor - median) / floor
                fail(f"{path}: regressed metric "
                     f"{name}/{workload_name}/{metric} by {drop:.1f}% "
                     f"(median {median:.1f} < floor {floor:.1f} "
                     f"- {tolerance:.0%} tolerance = {limit:.1f})")
                ok = False
            else:
                print(f"ok {name}/{workload_name}/{metric}: "
                      f"median {median:.1f} >= {limit:.1f}")
    return ok


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        config = json.load(f)
    tolerance = float(config.get("tolerance", 0.0))
    baselines = config["reports"]
    ok = True
    for path in argv[2:]:
        ok = check_report(path, baselines, tolerance) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
