"""Record reference iteration counts and final h for the benchmark's seeds.

Run from the repository root, on a commit whose results are trusted:

    python3 perfbench/make_references.py --seeds 0-49,1234-1250

Each workload's instances are built and solved once per seed exactly as a
benchmark run solves them; a seed is recorded only when every solve passes
the output checks.  New entries are merged into perfbench/references.json.
A change that may alter iteration counts or final h (an algorithm change,
not a speed change) must say so and re-record them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def write_references(refs, fh):
    """JSON with one line per (workload, seed)."""
    workloads = sorted(refs)
    fh.write("{\n")
    for i, name in enumerate(workloads):
        seeds = sorted(refs[name].items(), key=lambda kv: int(kv[0]))
        fh.write(f" {json.dumps(name)}: {{\n")
        fh.write(",\n".join(f"  {json.dumps(seed)}: "
                            f"{json.dumps(entry, sort_keys=True)}"
                            for seed, entry in seeds))
        fh.write("\n }" + ("," if i + 1 < len(workloads) else "") + "\n")
    fh.write("}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-49,1234")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    refs = workloads.load_references()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name, spec in workloads.WORKLOADS.items():
            for seed in parse_seeds(args.seeds):
                plan = keys = None
                if spec.batch:
                    plan = workloads.write_plan(spec, seed, workdir)
                    keys = workloads.instance_keys(spec, seed)
                solves = workloads.run_cycle(spec, seed, plan, keys, workdir)
                failed, _drift, problems, _compared = workloads.check(
                    spec, seed, solves, {})
                if failed or problems:
                    print(f"{name} seed {seed}: not recorded: {problems}")
                    continue
                entry = refs.setdefault(name, {}).setdefault(str(seed), {})
                for s in solves:
                    entry.setdefault(str(s.instance), {})[s.algorithm] = [
                        s.iterations, s.final_h]
                print(f"{name} seed {seed}: "
                      + ", ".join(f"{s.instance}/{s.algorithm} {s.iterations}"
                                  for s in solves), flush=True)
                with open(workloads.REFERENCES, "w") as fh:
                    write_references(refs, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
