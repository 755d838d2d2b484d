"""Command-line entry point: solve, gen, bench, and curves subcommands.

Exit codes: 0 success, 1 usage or input error, 2 non-convergence (the
ellipsoid is still emitted with "converged": false).  Only the subcommands
that use the bench harness and configparser import them.
"""

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import InvalidInput, MveeError
from .problem import PointSet, read_points, write_ellipsoid_json, write_points
from .solvers import Algorithm, InitScheme, SolverConfig, enclose, write_trace

# accepted names on the command line and in plan files: every algorithm's
# value, plus "cd" for cd_const
ALGORITHM_NAMES = {a.value: a for a in Algorithm} | {"cd": Algorithm.CD_CONST}

DEFAULT_PLAN = """\
[plan]
seed = 1234
algorithms = cd_const, wa

[regime.small]
n = 10
m = 500
repetitions = 10

[regime.moderate]
n = 30
m = 1800
repetitions = 10
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvee", description="Minimum volume enclosing ellipsoid solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance from a point file")
    p_solve.set_defaults(run=_cmd_solve)
    p_solve.add_argument("input", help="point file, one point per row")
    p_solve.add_argument("--algorithm", default="cd",
                         choices=sorted(ALGORITHM_NAMES))
    p_solve.add_argument("--epsilon", type=float, default=SolverConfig.epsilon)
    p_solve.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p_solve.add_argument("--seed", type=int, default=SolverConfig.seed)
    p_solve.add_argument("--init", default=SolverConfig.init.value,
                         choices=[i.value for i in InitScheme])
    p_solve.add_argument("--symmetric", action="store_true",
                         help="rows are one representative per +-x pair")
    p_solve.add_argument("--trace-out", default=None,
                         help="write the per-iteration trace CSV here")
    p_solve.add_argument("--json-out", default=None,
                         help="write the ellipsoid JSON here instead of stdout")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.set_defaults(run=_cmd_gen)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark plan")
    p_bench.set_defaults(run=_cmd_bench)
    p_bench.add_argument("--plan", default=None,
                         help="INI plan file; omitted runs the built-in default")
    p_bench.add_argument("--output-dir", default="benchmark_out")
    p_bench.add_argument("--parallelism", type=int, default=1)

    p_curves = sub.add_parser("curves",
                              help="emit the per-step decrement curves")
    p_curves.set_defaults(run=_cmd_curves)
    p_curves.add_argument("--n-values", default="1,2,3",
                          help="comma-separated dimensions")
    p_curves.add_argument("--output", default="decrement_curves.csv")
    return parser


def _cmd_solve(args) -> int:
    points = PointSet(read_points(args.input).T, symmetric=args.symmetric)
    config = SolverConfig(algorithm=ALGORITHM_NAMES[args.algorithm],
                          epsilon=args.epsilon, max_iter=args.max_iter,
                          init=args.init, seed=args.seed)
    ellipsoid, report = enclose(points, config)
    extra = {"converged": report.converged,
             "iterations": report.iterations,
             "final_eps": report.final_eps}
    if args.json_out:
        with open(args.json_out, "w") as fh:
            write_ellipsoid_json(ellipsoid, fh, extra)
    else:
        write_ellipsoid_json(ellipsoid, sys.stdout, extra)
    if args.trace_out:
        write_trace(report.trace, args.trace_out)
    return 0 if report.converged else 2


def _cmd_gen(args) -> int:
    from .harness import gen_sample
    instance = gen_sample(args.n, args.m, args.seed)
    write_points(args.output, instance.points.T)
    return 0


def _load_plan(path, output_dir):
    import configparser
    from .harness import BenchmarkPlan, Regime
    cp = configparser.ConfigParser(interpolation=None)
    if path is None:
        cp.read_string(DEFAULT_PLAN)
    else:
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except OSError as exc:
            raise InvalidInput(f"cannot read plan: {exc}") from None
        except configparser.Error as exc:
            raise InvalidInput(f"malformed plan: {exc}") from None
    if "plan" not in cp:
        raise InvalidInput("plan file needs a [plan] section")
    # the keys are the fields a plan file can set; [DEFAULT]'s join each
    keys = {"plan": {f.name for f in fields(BenchmarkPlan)} - {"regimes",
                                                              "output_dir"},
            "regime": {f.name for f in fields(Regime)} - {"label"}}
    for section in cp.sections():
        kind = "regime" if section.startswith("regime.") else section
        if kind not in keys:
            raise InvalidInput(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in keys[kind]:
                raise InvalidInput(f"unknown key {key!r} in [{section}]")
    sections = [s for s in cp.sections() if s.startswith("regime.")]
    if not sections:
        raise InvalidInput("plan file needs at least one [regime.<label>] section")
    listed = cp["plan"].get("algorithms", "cd_const,wa").split(",")
    names = [t.strip() for t in listed if t.strip()]
    for name in names:
        if name not in ALGORITHM_NAMES:
            raise InvalidInput(f"unknown algorithm {name!r}")
    try:
        return _from_keys(
            BenchmarkPlan, cp["plan"],
            [_from_keys(Regime, cp[s], s.split(".", 1)[1]) for s in sections],
            [ALGORITHM_NAMES[name] for name in names], Path(output_dir),
            seed=1234)
    except (ValueError, TypeError) as exc:
        raise InvalidInput(f"malformed plan: {exc}") from None


def _from_keys(cls, section, *given, **values):
    """cls(*given, ...), each later field read from its key by its type; a
    key left out takes `values`, the field's default, or None for its check."""
    later = fields(cls)[len(given):]
    values = {f.name: None for f in later if f.default is MISSING} | values
    return cls(*given, **values | {f.name: f.type(section[f.name])
                                   for f in later if f.name in section})


def _cmd_bench(args) -> int:
    from .harness import run_benchmark
    rows = run_benchmark(_load_plan(args.plan, args.output_dir),
                         parallelism=args.parallelism)
    failed = [r for r in rows if r.error is not None]
    for r in failed:
        print(f"row ({r.regime}, {r.algorithm}, rep {r.rep}) failed: {r.error}",
              file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.output_dir}")
    return 2 if failed else 0


def _cmd_curves(args) -> int:
    from .harness import emit_decrement_curves
    try:
        n_values = [int(t) for t in args.n_values.split(",") if t.strip()]
    except ValueError:
        raise InvalidInput(f"bad dimension list {args.n_values!r}") from None
    emit_decrement_curves(n_values, args.output)
    print(f"wrote curves for n in {n_values} to {args.output}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is 1 here
        return 1 if exc.code else 0
    try:
        return args.run(args)
    except (MveeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
