"""Fingerprint the solver's trajectories, to check that a change keeps them
bit-identical.

    python tests/fingerprints.py SRC_DIR > fingerprints.txt

imports mvee from SRC_DIR (the `src` directory of a checkout) and prints
one line per solve: a label, the SHA-256 of its trajectory (the bytes
write_trace writes for its trace, that is the header and one row per
iteration: its position, step type, axis and the repr of each float
column; then the iteration count and the bytes of u_final), and beside
the digest the repr of the final h and its certificate: the repr of the
final eps and the convergence flag.  So a change in how the final h is
read shows apart from the trajectory.  Before the first solve of each
distinct instance comes an `instance` line: the SHA-256 of its shape,
symmetric flag and point bytes, so a change to gen_sample or lift shows
apart from the solves.  Then come the `mvee bench` lines: `mvee bench
--parallelism 2` through mvee.cli.main on four INI plans, one per init
and seed 0 or 1, each with all six algorithms at eps 1e-5 and max_iter
2000 and two repetitions of the regimes (3, 40) and (5, 80); the exit
code, then one SHA-256 per output file, results.csv and
results_means.csv without their timing and certificate columns, each
followed by its certificate columns (final_eps/converged per row of
results.csv, mean_final_eps/converged_count per row of
results_means.csv).  Then come the `mvee solve` lines: `mvee solve` through
mvee.cli.main with cd, wa and fwk at eps 1e-3 on written point files,
lifted and `--symmetric`, and at max_iter 20,000 on gen(10,500,1234)
mapped to condition 1e7, plus a capped solve (exit 2) and a flat set
(exit 1); the exit code, the SHA-256 of what the command prints, the
ellipsoid JSON on stdout without its final_eps and any error on stderr,
and the repr of final_eps, whose last digits the reading of the
certificate may move.  Then come the `error` lines: `mvee bench`,
`mvee solve` and `mvee curves` through mvee.cli.main on eleven bad inputs
(an unknown or repeated algorithm, a broken INI file, an unknown plan
key, a missing file, a `%` in a value and a regime label that leaves the
output directory in a plan; a bad token, a nan
or too few points in a point file; a bad `--n-values` list), each
the exit code, or the class name of an exception that escapes main, and
the SHA-256 of stderr, run from inside a temporary directory on relative
paths so that the messages, which name the file, do not vary.  The last
line is the row total of the solves.  Two trees run the same trajectories
exactly when their digests do not differ; the final h and the
certificate fields printed beside them may move in their last digits
when the reading of the final factor changes:

    python tests/fingerprints.py /path/to/parent/src > parent.txt
    python tests/fingerprints.py src > change.txt
    diff parent.txt change.txt

The 58 solves cover every algorithm from both starts; an instance of each
benchmark workload (small-cd, moderate-wa, batch-bench with both of its
algorithms, and the first 200 iterations of stress-cd); the cd_diminish
solve that declines a singular decrease; and the full jump of a simplex
step at n = 1.  BLAS runs on one thread, as in perfbench/run.py: at
n = 100 the instances and the factors round differently under more
threads.  Needs numpy and mvee only; pytest does not collect this file.
"""

import hashlib
import os
import sys

# before numpy loads, whatever the caller's environment sets
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def solves():
    """Yield (instance name, instance, label, config keywords) for each
    fingerprint solve; one name is one instance, however often built."""
    import numpy as np
    from mvee.harness import gen_sample
    from mvee.problem import PointSet, lift
    from mvee.solvers import Algorithm, InitScheme

    algs = list(Algorithm)
    inits = list(InitScheme)

    def gen(n, m, seed):
        return f"gen({n},{m},{seed})", lift(gen_sample(n, m, seed))

    def normal(n, m, seed):
        return f"normal({n},{m},{seed})", PointSet(
            np.random.default_rng(seed).standard_normal((n, m)),
            symmetric=True)

    base = gen(3, 40, 0)
    for alg in algs:
        for init in inits:
            yield (*base, f"pinned {alg.value} {init.value}",
                   dict(algorithm=alg, init=init, epsilon=1e-5,
                        max_iter=2000))
    for (n, m, seed), cap in (((3, 40, 0), 4000), ((5, 80, 5), 4000),
                              ((10, 500, 1234), 20_000)):
        inst = gen(n, m, seed)
        for alg in algs:
            for init in inits:
                yield (*inst, f"gen({n},{m},{seed}) {alg.value} {init.value}",
                       dict(algorithm=alg, init=init, epsilon=1e-7,
                            max_iter=cap))
    for seed in (1234, 1235, 1236):
        yield (*gen(10, 500, seed), f"small-cd {seed}",
               dict(algorithm=Algorithm.CD_CONST, epsilon=1e-7,
                    max_iter=400_000))
    yield (*normal(4, 12, 3550), "normal 3550 cd_diminish",
           dict(algorithm=Algorithm.CD_DIMINISH, epsilon=1e-12, max_iter=50,
                seed=3550))
    yield (*gen(30, 1800, 1234), "moderate-wa 1234",
           dict(algorithm=Algorithm.WA, epsilon=1e-4, max_iter=200_000))
    inst = normal(1, 7, 0)
    for alg in (Algorithm.FWK, Algorithm.WA):
        yield (*inst, f"n=1 {alg.value} khachiyan",
               dict(algorithm=alg, init=InitScheme.KHACHIYAN))
    inst = gen(20, 20_000, 1234)
    for alg in (Algorithm.CD_CONST, Algorithm.WA):
        yield (*inst, f"batch-bench 1234 {alg.value}",
               dict(algorithm=alg, epsilon=1e-1, max_iter=10_000))
    yield (*gen(100, 30_000, 1234), "stress-cd 1234",
           dict(algorithm=Algorithm.CD_CONST, max_iter=200))


# one `mvee bench` plan per (init, seed): all six algorithms, two regimes
BENCH_PLAN = """\
[plan]
seed = {seed}
epsilon = 1e-5
max_iter = 2000
init = {init}
algorithms = fwk, wa, cd_const, cd_diminish, cd_backtrack, rcd

[regime.r3]
n = 3
m = 40
repetitions = 2

[regime.r5]
n = 5
m = 80
repetitions = 2
"""
# timing columns of the two result tables
TIMING = {"seconds", "mean_seconds"}
# certificate columns of the two result tables, printed beside the digest
CERTIFICATE = ("final_eps", "converged", "mean_final_eps", "converged_count")


def bench_fingerprints():
    """Yield (label, digest) for each bench plan's exit code and for every
    file of its output; a result table's digest is followed by its
    certificate columns, row by row."""
    import contextlib
    import csv
    import io
    import tempfile
    from pathlib import Path
    from mvee.cli import main

    for init in ("kumar_yildirim", "khachiyan"):
        for seed in (0, 1):
            name = f"{init} {seed}"
            with tempfile.TemporaryDirectory() as tmp:
                plan, out = Path(tmp) / "plan.ini", Path(tmp) / "out"
                plan.write_text(BENCH_PLAN.format(init=init, seed=seed))
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["bench", "--plan", str(plan), "--output-dir",
                                 str(out), "--parallelism", "2"])
                yield f"bench {name} exit", code
                for path in sorted(out.iterdir()):
                    if path.name.startswith("results"):
                        with open(path, newline="") as fh:
                            table = list(csv.reader(fh))
                        keep = [i for i, col in enumerate(table[0])
                                if col not in TIMING and col not in CERTIFICATE]
                        cert = [i for i, col in enumerate(table[0])
                                if col in CERTIFICATE]
                        data = "\n".join(",".join(row[i] for i in keep)
                                          for row in table).encode()
                        apart = " " + " ".join("/".join(row[i] for i in cert)
                                               for row in table[1:])
                    else:
                        data, apart = path.read_bytes(), ""
                    yield (f"bench {name} {path.name}",
                           hashlib.sha256(data).hexdigest() + apart)


def solve_fingerprints():
    """Yield (label, "exit code digest final_eps") for each `mvee solve`
    run."""
    import contextlib
    import io
    import json
    import tempfile
    from pathlib import Path
    import numpy as np
    from mvee.cli import main
    from mvee.harness import gen_sample
    from mvee.problem import write_points

    # gen(10,500,1234) through a linear map of condition 1e7, and shifted
    X = gen_sample(10, 500, 1234).points
    rng = np.random.default_rng(1234 + 99)
    q1 = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    q2 = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    sigma = np.exp(np.linspace(0.0, np.log(1e7), 10))
    ill = (q1 * sigma) @ q2.T @ X + rng.standard_normal((10, 1))
    points = {"gen(3,40,0)": gen_sample(3, 40, 0).points.T,
              "gen(5,80,5)": gen_sample(5, 80, 5).points.T,
              "normal(4,30,7)": np.random.default_rng(7).standard_normal(
                  (30, 4)),
              "ill(1234)": ill.T,
              "flat": np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 5.0],
                                [3.0, 7.0]])}
    # fwk, without away steps, stops at its 100,000-iteration cap short
    # of eps 1e-5 on these sets
    runs = [(name, [alg, "--epsilon", "1e-3", *flags])
            for name, flags in (("gen(3,40,0)", []), ("gen(5,80,5)", []),
                                ("normal(4,30,7)", ["--symmetric"]))
            for alg in ("cd", "wa", "fwk")]
    runs += [("ill(1234)", [alg, "--epsilon", "1e-3", "--max-iter", "20000"])
             for alg in ("cd", "wa", "fwk")]
    runs += [("gen(5,80,5)", ["cd", "--max-iter", "5"]), ("flat", ["cd"])]
    with tempfile.TemporaryDirectory() as tmp:
        for name, rows in points.items():
            write_points(Path(tmp) / f"{name}.txt", rows)
        for name, args in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["solve", str(Path(tmp) / f"{name}.txt"),
                             "--algorithm", *args])
            doc = json.loads(out.getvalue()) if out.getvalue() else {}
            final_eps = doc.pop("final_eps", None)
            digest = hashlib.sha256((json.dumps(doc) + err.getvalue()).encode())
            yield (f"solve {name} {' '.join(args)}",
                   f"{code} {digest.hexdigest()} {final_eps!r}")


# (label, files to write, command line) for each error path
ERRORS = [
    ("bench unknown algorithm",
     {"plan.ini": "[plan]\nalgorithms = simplex\n\n[regime.r]\nn = 4\nm = 30\n"},
     ["bench", "--plan", "plan.ini", "--output-dir", "out"]),
    ("bench repeated algorithm",
     {"plan.ini": "[plan]\nalgorithms = cd_const, cd\n\n[regime.r]\nn = 4\n"
                  "m = 30\n"},
     ["bench", "--plan", "plan.ini", "--output-dir", "out"]),
    ("bench broken ini", {"plan.ini": "[plan\nseed = 1\n"},
     ["bench", "--plan", "plan.ini", "--output-dir", "out"]),
    ("bench unknown plan key",
     {"plan.ini": "[plan]\nmax_iters = 50\n\n[regime.r]\nn = 4\nm = 30\n"},
     ["bench", "--plan", "plan.ini", "--output-dir", "out"]),
    ("bench missing plan", {},
     ["bench", "--plan", "nope.ini", "--output-dir", "out"]),
    ("bench percent in plan",
     {"plan.ini": "[plan]\nseed = 1%\n\n[regime.r]\nn = 4\nm = 30\n"},
     ["bench", "--plan", "plan.ini", "--output-dir", "out"]),
    ("bench label outside output dir",
     {"plan.ini": "[plan]\nalgorithms = cd_const\n\n[regime.../escaped]\n"
                  "n = 3\nm = 20\n"},
     ["bench", "--plan", "plan.ini", "--output-dir", "out/o"]),
    ("solve bad token", {"pts.txt": "1 2\n3 oops\n5 6\n"},
     ["solve", "pts.txt"]),
    ("solve too few points", {"pts.txt": "1 2\n3 4\n"}, ["solve", "pts.txt"]),
    ("solve non-finite value", {"pts.txt": "1 2\n3 nan\n5 6\n"},
     ["solve", "pts.txt"]),
    ("curves bad n-values", {},
     ["curves", "--n-values", "1,x", "--output", "curves.csv"]),
]


def error_fingerprints():
    """Yield (label, "exit code digest") for each error path; an
    exception that escapes main() stands in for the exit code by its class
    name."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path
    from mvee.cli import main

    cwd = os.getcwd()
    for label, files, argv in ERRORS:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (Path(tmp) / name).write_text(text)
            err = io.StringIO()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = main(argv)
            except Exception as exc:
                code = type(exc).__name__
            finally:
                os.chdir(cwd)
            digest = hashlib.sha256(err.getvalue().encode()).hexdigest()
            yield f"error {label}", f"{code} {digest}"


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} SRC_DIR")
    sys.path.insert(0, argv[1])
    import tempfile
    from pathlib import Path
    from mvee.solvers import SolverConfig, solve, write_trace

    rows = 0
    seen = set()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        for name, X, label, kw in solves():
            if name not in seen:
                seen.add(name)
                digest = hashlib.sha256(
                    f"{X.points.shape},{X.symmetric}\n".encode())
                digest.update(X.points.tobytes())
                print(f"instance {name}: {digest.hexdigest()}", flush=True)
            rep = solve(X, SolverConfig(**kw))
            write_trace(rep.trace, trace_path)
            digest = hashlib.sha256(trace_path.read_bytes())
            digest.update(f"{rep.iterations}\n".encode())
            digest.update(rep.u_final.u.tobytes())
            rows += len(rep.trace)
            print(f"{label}: {digest.hexdigest()} {rep.final_h!r} "
                  f"{rep.final_eps!r} {rep.converged}", flush=True)
    for label, digest in bench_fingerprints():
        print(f"{label}: {digest}", flush=True)
    for label, digest in solve_fingerprints():
        print(f"{label}: {digest}", flush=True)
    for label, digest in error_fingerprints():
        print(f"{label}: {digest}", flush=True)
    print(f"rows: {rows}")


if __name__ == "__main__":
    main(sys.argv)
