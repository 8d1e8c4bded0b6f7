"""Run one benchmark workload through unisca's public API and report it.

    python3 benchmarks/run.py --workload homogeneous --seed 0 --seconds 12 --trace 0

Run it from anywhere inside a source checkout; it imports `unisca` from the
checkout's `src/` and exits with status 2 if that is missing. `--trace 0`
reports the end-to-end metrics named in BENCHMARK.json, `--trace 1` the
per-layer ones. Every metric the run computes is printed by name with its
unit, followed by a run record line and, last, one JSON result line. Run
details (all fit times, the record and, when traced, the spans) are written
to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread, set before numpy is imported and never above the core
# count. A second thread made fits faster but doubled CPU time and the
# run-to-run spread; README.md ("BLAS threads") gives the measurements.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def unit_of(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_fits", "count"), ("_s", "s"),
                         (".ms_p50", "ms"), (".ms_tail", "ms"),
                         (".tail_pct", "%"), ("_frac", "fraction"),
                         ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0,
                   help="how long to keep starting fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "unisca", "__init__.py")):
        print(f"error: no unisca source under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.dataset(args.seed)
        print("ready", flush=True)
        return 0

    import harness

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    mode = "traced" if args.trace else "timed"
    if args.trace:
        fits, details = harness.run_traced(workload, args.seed, args.seconds, OUT)
        wanted = spec["per_layer"]
    else:
        fits, details = harness.run_timed(workload, args.seed, args.seconds,
                                          OUT, os.path.abspath(__file__))
        wanted = spec["end_to_end"]
    record = harness.run_record(ROOT, workload, args.seed, mode, fits.cfg,
                                {k: os.environ.get(k) for k in THREAD_VARS})
    values = details["metrics"]

    print(f"workload {workload.name}  seed {args.seed}  {mode}  "
          f"{fits.attempted} fits, {fits.failed} failed")
    for name, value in values.items():
        print(f"  {name:<46} {value:>14.6g} {unit_of(name)}")
    for failure in fits.failures:
        print(f"  FAILED: {failure}")
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-{mode}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "failures": fits.failures, **details},
                  fh, indent=1)
    print("record " + json.dumps(record, sort_keys=True))

    result = {}
    for m in wanted:
        if unit_of(m["name"]) != m["unit"]:
            raise ValueError(f"BENCHMARK.json gives {m['name']} unit "
                             f"{m['unit']}, the run measures {unit_of(m['name'])}")
        result[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": fits.failed == 0, "attempted": fits.attempted,
                      "failed": fits.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
