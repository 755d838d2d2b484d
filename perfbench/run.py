"""Solver benchmark for mvee: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload small-cd --seed 1234 --seconds 15 --trace 0

Workloads (perfbench/workloads.py; instance r of seed s is gen_sample(n, m,
s + r), lifted):

  small-cd     n=10 m=500, cd_const to 1e-7, 3 instances.  O(n^2) factor
               update bound (rank_one_modify, apply_inverse).
  moderate-wa  n=30 m=1800, wa to 1e-4.  Convex-combination scale_factor
               and away/drop paths; Python Cholesky loop bound.
  stress-cd    n=100 m=30000, cd_const, fixed 2000-iteration budget (does not
               converge).  Inline O(mn) gradient pass; heavy set-up.
  batch-bench  `mvee bench` through cli.main in-process: n=20 m=20000, eps
               1e-1, cd_const and wa, 8 instances, --parallelism 2, trace CSVs
               to a temporary directory.  Generation, refresh, init and
               harness bound.

--trace 0 is one timed pass of at least --seconds; each solve (or, for
batch-bench, each bench call) is timed from outside.  Printed by name with
unit: solve_s, solves_per_s, us_per_iter, iterations, setup_s, peak_rss_mb,
failed_frac and cert_drift, plus work_cost, raw_setup_s and ref_step_us.

The host the benchmark was written on is shared, and other tenants slow
every process on it by up to 2x for minutes at a time, so raw wall times
are not steady from run to run.  The run therefore times a reference
computation beside the work (workloads.Reference: a frozen imitation of a
solver step at the workload's n and m that uses no mvee code), every
0.25 s inside solves and between solves or bench calls.  The JSON line
carries the two BENCHMARK.json end-to-end metrics, which are scaled by it:

  work_cost  seconds per unit of work divided by seconds per reference
             step timed beside it, median over solves (bench calls); a
             program twice as fast halves it.  The unit is a solver
             iteration on the direct workloads, where a solve's cost
             follows its iteration count, and a solve on batch-bench,
             whose bench call makes a fixed 16 solves of about 90
             iterations each and spends most of its time in per-solve
             harness work, so fewer iterations per solve must not read
             as a slow-down there.
  setup_s    fresh-interpreter import of mvee plus the instance build,
             scaled to the quiet host by reference steps run in that
             interpreter; median of 5 set-ups.

solve_s, solves_per_s, iterations, peak_rss_mb, failed_frac and cert_drift
depend on which instances a seed draws (or are 0), so they are printed but
carry no bound; the unscaled us_per_iter and raw_setup_s are printed too.

--trace 1 alternates untraced and traced cycles (one cycle = build and solve
every instance once, or one bench call) until --seconds have passed, and
prints the BENCHMARK.json per-layer metrics: self times (median over traced
cycles), call and step counts, forced and scheduled rebuilds, the computed
flops and bytes of the O(mn) gradient pass, trace.overhead_frac (summed
solve seconds of a traced cycle over an untraced one, minus one; medians)
and linalg.cert_drift.  Which
end-to-end metric each layer should move, on which workload:

  rank_one_modify, apply_inverse   work_cost on small-cd and moderate-wa,
                                   less on batch-bench
  scale_factor                     moderate-wa only
  factor_from_weights, gradient_refresh, rebuilds, update_ok_ratio
                                   work_cost on batch-bench, cert_drift
  solvers.solve self, gradient_pass
                                   work_cost on stress-cd, peak_rss_mb on
                                   small-cd (the in-memory trace)
  objective_h                      work_cost on small-cd
  lift, gen_sample                 setup_s; work_cost on batch-bench
  write_trace, run_benchmark, cli.main
                                   batch-bench

After either pass, untimed, every solve is checked: the factor is rebuilt
from u_final (factor_from_weights) and a fresh certificate computed
(gradient_refresh).  A solve fails when it raises MveeError, does not
converge on a converging workload, or its fresh eps exceeds the tolerance.
Iterations and final h are compared with perfbench/references.json (made
by perfbench/make_references.py) when it holds the instance; the output
says how many solves were compared, and names a seed it holds nothing for.
Repeated solves of one instance must agree.  Any disagreement makes
"correct" false.

BLAS threads are pinned to 1 before numpy loads; the only concurrency is
batch-bench's two harness threads.  Timing is wall-clock (perf_counter)
only: no hardware counters or system-wide tracing are used.  The last line
of standard output is the JSON result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

WORKDIR_PREFIX = ".perfbench-"


def parse_args(argv):
    ap = argparse.ArgumentParser(description="mvee solver benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package(root):
    """Import mvee from root/src and nowhere else; None when it is absent."""
    src = root / "src"
    if not (src / "mvee" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import mvee

    if Path(mvee.__file__).resolve().parent != (src / "mvee").resolve():
        return None
    return mvee


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    try:
        with open(root / "BENCHMARK.json") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if import_package(root) is None:
        print(f"perfbench: no mvee package under {root / 'src'}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"# workload={spec.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} blas_threads=1")
    print("# timing: wall-clock perf_counter only; no hardware counters or "
          "system-wide tracing")
    workdir = Path(tempfile.mkdtemp(prefix=WORKDIR_PREFIX, dir=root))
    try:
        if args.trace:
            out = workloads.run_traced(spec, args.seed, args.seconds, workdir)
        else:
            out = workloads.run_untraced(spec, args.seed, args.seconds, root,
                                         workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in config[section]}
    if args.trace:
        values = out["layers"]
        for name, unit in names.items():
            print(f"{name:<40} {values[name]!r} {unit}")
    else:
        values = {k: v for k, (v, _unit, _note) in out["report"].items()}
        for name, (value, unit, note) in out["report"].items():
            print(f"{name:<14} {value!r} {unit}  ({note})")
    for problem in out["problems"]:
        print(f"# check failed: {problem}")
    if not out["compared"]:
        print(f"# no reference for seed {args.seed}: iterations and final h "
              "not compared")
    print(f"# checks: {out['attempted']} solves, {out['failed']} failed, "
          f"{len(out['problems'])} problems, {out['compared']} compared with "
          "references")
    doc = {"correct": not out["problems"] and out["failed"] == 0,
           "attempted": out["attempted"], "failed": out["failed"],
           "metrics": {k: {"value": values[k], "unit": unit}
                       for k, unit in names.items()}}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
