import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mvee
import mvee.harness
from conftest import ill_conditioned
from mvee.cli import ALGORITHM_NAMES, _load_plan, main
from mvee.errors import MveeError
from mvee.harness import BenchmarkPlan
from mvee.problem import read_points, write_points
from mvee.solvers import Algorithm, SolverConfig

SQUARE_ROWS = "1 1\n1 -1\n-1 1\n-1 -1\n"

TINY_PLAN = """\
[plan]
seed = 7
epsilon = 1e-6
max_iter = 5000
algorithms = cd_const, wa

[regime.tiny]
n = 4
m = 30
repetitions = 2
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- solve -----------------------------------------------------------------------

def test_solve_square(tmp_path, capsys):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_ROWS)
    code, out, _ = run(capsys, "solve", str(path), "--algorithm", "cd")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert np.allclose(payload["center"], [0.0, 0.0], atol=1e-7)
    assert np.allclose(payload["shape"], np.eye(2), atol=1e-6)
    assert payload["volume"] == pytest.approx(2 * np.pi, rel=1e-6)


def test_solve_interval(tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text("0\n1\n")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["center"][0] == pytest.approx(0.5, abs=1e-8)
    assert payload["shape"][0][0] == pytest.approx(4.0, rel=1e-6)
    assert payload["volume"] == pytest.approx(1.0, rel=1e-6)


def test_solve_symmetric_flag(tmp_path, capsys):
    path = tmp_path / "half.txt"
    path.write_text("1 1\n1 -1\n")
    code, out, _ = run(capsys, "solve", str(path), "--symmetric")
    assert code == 0
    payload = json.loads(out)
    assert np.allclose(payload["center"], 0.0)
    assert np.allclose(payload["shape"], np.eye(2), atol=1e-6)


def test_solve_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3 x\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert err.startswith("error:") and "line 2" in err


def test_solve_separator_only_first_line(tmp_path, capsys):
    # no tokens at all on the line a header would sit on
    path = tmp_path / "sep.txt"
    path.write_text(",\n1,2\n3,4\n5,6\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "line 1" in err
    assert "Traceback" not in err


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.txt"))
    assert code == 1
    assert err


def test_solve_rejects_nan_epsilon(tmp_path, capsys):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_ROWS)
    code, out, err = run(capsys, "solve", str(path), "--epsilon", "nan")
    assert code == 1
    assert not out
    assert err == "error: epsilon must be positive\n"


def test_solve_rejects_unknown_algorithm(tmp_path, capsys):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_ROWS)
    code, _, err = run(capsys, "solve", str(path), "--algorithm", "newton")
    assert code == 1


def test_algorithm_names_are_the_enum_values_plus_cd():
    assert ALGORITHM_NAMES == {
        "fwk": Algorithm.FWK,
        "wa": Algorithm.WA,
        "cd": Algorithm.CD_CONST,
        "cd_const": Algorithm.CD_CONST,
        "cd_diminish": Algorithm.CD_DIMINISH,
        "cd_backtrack": Algorithm.CD_BACKTRACK,
        "rcd": Algorithm.RCD,
    }


@pytest.mark.parametrize("algorithm", ["wa", "cd"])
def test_solve_one_dimensional_file_with_interior_points(tmp_path, capsys,
                                                         algorithm):
    path = tmp_path / "heights.txt"
    path.write_text("# heights\n3\n-2\n0.5 # interior\n1\n")
    code, out, _ = run(capsys, "solve", str(path), "--algorithm", algorithm)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1
    assert payload["center"][0] == pytest.approx(0.5, abs=1e-7)
    assert payload["shape"][0][0] == pytest.approx(1 / 2.5 ** 2, rel=1e-6)
    assert payload["volume"] == pytest.approx(5.0, rel=1e-6)


@pytest.mark.parametrize("rows", [
    "0 1\n1 3\n2 5\n3 7\n",
    "0 0 1\n1 0 1\n0 1 1\n1 1 1\n2 3 1\n",
    "2 2\n2 2\n2 2\n",
], ids=["collinear_2d", "coplanar_3d", "all_equal"])
def test_solve_lower_dimensional_set_is_an_input_error(tmp_path, capsys, rows):
    path = tmp_path / "flat.txt"
    path.write_text(rows)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_solve_outputs_and_nonconvergence_exit(tmp_path, capsys):
    gen_path = tmp_path / "inst.txt"
    assert main(["gen", "--n", "4", "--m", "60", "--seed", "3",
                 "--output", str(gen_path)]) == 0
    capsys.readouterr()

    json_path = tmp_path / "out.json"
    trace_path = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "solve", str(gen_path), "--max-iter", "3",
                     "--json-out", str(json_path),
                     "--trace-out", str(trace_path))
    assert code == 2  # honest non-convergence, artifacts still written
    payload = json.loads(json_path.read_text())
    assert payload["converged"] is False
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0].startswith("iter,step_type")
    assert len(lines) == 4


def test_solve_exit_reads_the_fresh_certificate(tmp_path, capsys):
    # at cond(A) = 1e8 fwk's maintained kappa passes eps and the fresh
    # factor of the same weights refuses it, stop after stop: the solve
    # steps on to max_iter, and the exit code follows the fresh reading at
    # its end (eps 33.6)
    path = tmp_path / "ill.txt"
    write_points(path, ill_conditioned(1234, cond=1e8).points.T)
    code, out, _ = run(capsys, "solve", str(path), "--algorithm", "fwk",
                       "--epsilon", "1e-3", "--max-iter", "20000")
    assert code == 2
    assert '"converged": false' in out
    assert json.loads(out)["final_eps"] > 1e-3


def _strict(token):
    raise ValueError(f"not JSON: {token}")


def test_solve_writes_an_overflowing_volume_as_null(tmp_path, capsys):
    # a set scaled by 1e120 has ln det H = -1659.7, whose volume overflows
    # a double: the JSON carries null there, not the non-JSON Infinity, and
    # the overflow warns nowhere
    path = tmp_path / "huge.txt"
    write_points(path, np.random.default_rng(0).standard_normal((40, 3))
                 * 1e120)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", str(path), "--symmetric")
    assert code == 0 and err == ""
    payload = json.loads(out, parse_constant=_strict)
    assert payload["volume"] is None
    assert payload["logdet_H"] == pytest.approx(-1659.687, abs=1e-3)


@pytest.mark.parametrize("k", [-520, 600])
def test_solve_names_an_inverse_out_of_range(tmp_path, capsys, k):
    # the set scaled by 2^k is full-rank, but its M^{-1}, about 2^-2k, is
    # not a finite double: one error line names that, and no numpy warning
    # comes before it
    path = tmp_path / "far.txt"
    write_points(path, np.ldexp(
        np.random.default_rng(0).standard_normal((40, 3)), k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", str(path), "--symmetric")
    assert code == 1 and out == ""
    assert err == "error: M^-1 of the weighted points is out of range\n"


# --- gen ---------------------------------------------------------------------------

def test_gen_deterministic_and_shaped(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "gen", "--n", "2", "--m", "10", "--seed", "7",
               "--output", str(a))[0] == 0
    assert run(capsys, "gen", "--n", "2", "--m", "10", "--seed", "7",
               "--output", str(b))[0] == 0
    assert a.read_text() == b.read_text()
    rows = [ln.split() for ln in a.read_text().strip().splitlines()]
    assert len(rows) == 10 and all(len(r) == 2 for r in rows)


def test_module_entry_point_runs_gen(tmp_path):
    # `python -m mvee.cli` is the documented module entry point
    out = tmp_path / "points.txt"
    src = Path(mvee.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "mvee.cli", "gen", "--n", "2", "--m", "7",
         "--seed", "3", "--output", str(out)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert read_points(out).shape == (7, 2)


def test_gen_rejects_flat_instance(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--n", "3", "--m", "3",
                       "--output", str(tmp_path / "x.txt"))
    assert code == 1
    assert "m must be an integer of at least" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_rejects_empty_dimension(tmp_path, capsys, n):
    code, _, err = run(capsys, "gen", "--n", n, "--m", "5",
                       "--output", str(tmp_path / "x.txt"))
    assert code == 1
    assert err == "error: n must be an integer of at least 1\n"
    assert not (tmp_path / "x.txt").exists()


# --- bench -------------------------------------------------------------------------

def test_bench_plan_file(tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text(TINY_PLAN)
    outdir = tmp_path / "results"
    code, out, _ = run(capsys, "bench", "--plan", str(plan),
                       "--output-dir", str(outdir))
    assert code == 0
    assert "4 rows" in out
    with open(outdir / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["algorithm"] for r in rows} == {"cd_const", "wa"}
    assert (outdir / "results_means.csv").exists()
    assert (outdir / "tiny_cd_const_0.csv").exists()


def test_bench_parallelism_keeps_iteration_columns(tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text(TINY_PLAN)

    def iterations(outdir, par):
        code, _, _ = run(capsys, "bench", "--plan", str(plan),
                         "--output-dir", str(outdir), "--parallelism", par)
        assert code == 0
        with open(outdir / "results.csv") as fh:
            return [(r["algorithm"], r["rep"], r["iterations"])
                    for r in csv.DictReader(fh)]

    assert iterations(tmp_path / "seq", "1") == iterations(tmp_path / "par", "4")


def test_plan_fallbacks_are_the_solver_defaults(tmp_path):
    plan = tmp_path / "plan.ini"
    plan.write_text("[plan]\nseed = 3\n\n[regime.r]\nn = 4\nm = 30\n")
    loaded = _load_plan(plan, tmp_path / "o")
    default = SolverConfig()
    assert loaded.seed == 3 and loaded.algorithms
    assert (loaded.epsilon, loaded.max_iter, loaded.init) == \
        (default.epsilon, default.max_iter, default.init)
    # with only the required keys, the plan file's own fallbacks apply: seed
    # 1234 (the library's BenchmarkPlan defaults to 0), cd_const and wa, and
    # one repetition per regime
    plan.write_text("[plan]\n\n[regime.r]\nn = 4\nm = 30\n")
    bare = _load_plan(plan, tmp_path / "o")
    assert bare.seed == 1234 and BenchmarkPlan.seed == 0
    assert bare.algorithms == [Algorithm.CD_CONST, Algorithm.WA]
    assert [(r.label, r.n, r.m, r.repetitions) for r in bare.regimes] == [
        ("r", 4, 30, 1)]
    assert (bare.epsilon, bare.max_iter, bare.init) == \
        (default.epsilon, default.max_iter, default.init)


def test_default_plan_is_the_documented_one(tmp_path):
    plan = _load_plan(None, tmp_path / "o")
    assert plan.seed == 1234
    assert [(r.label, r.n, r.m, r.repetitions) for r in plan.regimes] == [
        ("small", 10, 500, 10), ("moderate", 30, 1800, 10)]
    assert plan.algorithms == [Algorithm.CD_CONST, Algorithm.WA]
    default = SolverConfig()
    assert (plan.epsilon, plan.max_iter, plan.init) == \
        (default.epsilon, default.max_iter, default.init)
    assert plan.output_dir == tmp_path / "o"


@pytest.mark.parametrize("text,message", [
    ("[plan\nseed = 1\n", "malformed plan: File contains no section"),
    ("[plan]\n\n[regime.r]\nn = four\nm = 30\n",
     "malformed plan: invalid literal for int()"),
    ("[plan]\nseed = 1\n", "at least one [regime.<label>] section"),
    ("[plan]\n\n[regime.r]\nn = 0\nm = 30\n",
     "malformed plan: n must be an integer of at least 1"),
    ("[plan]\nepsilon = nan\n\n[regime.r]\nn = 4\nm = 30\n",
     "malformed plan: epsilon must be positive"),
    ("[plan]\nseed = -3\n\n[regime.r]\nn = 4\nm = 30\n",
     "malformed plan: seed must be an integer of at least 0"),
    ("[plan]\nalgorithms = cd_const, cd\n\n[regime.r]\nn = 4\nm = 30\n",
     "algorithm 'cd_const' is listed twice"),
    ("[plan]\nalgorithm = rcd\n\n[regime.r]\nn = 4\nm = 30\n",
     "unknown key 'algorithm' in [plan]"),
    ("[plan]\nmax_iters = 50\n\n[regime.r]\nn = 4\nm = 30\n",
     "unknown key 'max_iters' in [plan]"),
    ("[plan]\n\n[regime.r]\nn = 4\nm = 30\nreps = 4\n",
     "unknown key 'reps' in [regime.r]"),
    ("[plan]\n\n[regime.r]\nn = 4\nm = 30\n\n[regim.b]\nn = 4\nm = 30\n",
     "unknown section [regim.b]"),
    ("[DEFAULT]\nseed = 3\n\n[plan]\n\n[regime.r]\nn = 4\nm = 30\n",
     "unknown key 'seed' in [regime.r]"),
], ids=["broken_ini", "non_integer_n", "no_regime", "zero_n", "nan_epsilon",
        "negative_seed", "repeated_algorithm", "unknown_plan_key",
        "misspelt_plan_key", "unknown_regime_key", "unknown_section",
        "default_key_unknown_to_a_regime"])
def test_bench_bad_plan_is_an_input_error(tmp_path, capsys, text, message):
    plan = tmp_path / "plan.ini"
    plan.write_text(text)
    code, _, err = run(capsys, "bench", "--plan", str(plan),
                       "--output-dir", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("par", ["0", "-3"])
def test_bench_bad_parallelism_is_an_input_error(tmp_path, capsys, par):
    plan = tmp_path / "plan.ini"
    plan.write_text(TINY_PLAN)
    code, _, err = run(capsys, "bench", "--plan", str(plan),
                       "--output-dir", str(tmp_path / "o"),
                       "--parallelism", par)
    assert code == 1
    assert err == "error: parallelism must be an integer of at least 1\n"
    assert not (tmp_path / "o").exists()


def test_bench_failed_solve_marks_only_its_row(tmp_path, capsys,
                                               monkeypatch):
    real_solve = mvee.harness.solve

    def failing_wa(X, cfg, start=None):
        if cfg.algorithm is Algorithm.WA:
            raise MveeError("injected failure")
        return real_solve(X, cfg, start)

    monkeypatch.setattr(mvee.harness, "solve", failing_wa)
    plan = tmp_path / "plan.ini"
    plan.write_text(TINY_PLAN)
    outdir = tmp_path / "results"
    code, _, err = run(capsys, "bench", "--plan", str(plan),
                       "--output-dir", str(outdir))
    assert code == 2
    assert "row (tiny, wa, rep 0) failed: injected failure" in err
    with open(outdir / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["algorithm"], r["converged"]) for r in rows] == [
        ("cd_const", "true"), ("wa", "false")] * 2
    for rep in (0, 1):
        assert (outdir / f"tiny_cd_const_{rep}.csv").exists()
        assert not (outdir / f"tiny_wa_{rep}.csv").exists()


def test_bench_unknown_algorithm(tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text("[plan]\nalgorithms = simplex\n\n[regime.r]\nn = 4\nm = 30\n")
    code, _, err = run(capsys, "bench", "--plan", str(plan),
                       "--output-dir", str(tmp_path / "o"))
    # checked above the plan's "malformed plan: " wrapper, so unprefixed
    assert code == 1
    assert err == "error: unknown algorithm 'simplex'\n"


def test_bench_plan_missing_sections(tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text("[regime.r]\nn = 4\nm = 30\n")
    code, _, err = run(capsys, "bench", "--plan", str(plan),
                       "--output-dir", str(tmp_path / "o"))
    assert code == 1
    assert "[plan]" in err


def test_bench_plan_file_missing(tmp_path, capsys):
    code, _, err = run(capsys, "bench", "--plan", str(tmp_path / "nope.ini"),
                       "--output-dir", str(tmp_path / "o"))
    assert code == 1
    assert "cannot read plan" in err


# --- curves ------------------------------------------------------------------------

def test_curves_output(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, msg, _ = run(capsys, "curves", "--n-values", "1,2",
                       "--output", str(out))
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "curve", "kappa", "delta"]
    assert len(rows) == 1 + 2000


def test_curves_bad_dimensions(capsys, tmp_path):
    code, _, err = run(capsys, "curves", "--n-values", "1,zebra",
                       "--output", str(tmp_path / "c.csv"))
    assert code == 1


# --- parser contract ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["solve"],
    ["solve", "pts.txt", "--bogus"],
    ["solve", "pts.txt", "--algorithm", "newton"],
    ["gen", "--n", "x", "--m", "30", "--output", "o.txt"],
], ids=["no_subcommand", "solve_without_input", "unknown_flag",
        "unknown_algorithm", "non_integer_gen_n"])
def test_usage_error_is_exit_1(capsys, argv):
    # argparse's own status for these is 2, which `mvee` keeps for a
    # solve that does not converge
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("usage: mvee")
    assert "error:" in err


@pytest.mark.parametrize("argv", [["--help"], ["bench", "--help"]])
def test_help_is_exit_0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: mvee")
