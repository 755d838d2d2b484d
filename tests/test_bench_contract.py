"""The benchmark under perfbench/ reaches into the package by name: it
imports some names and patches or calls others as `mvee.<module>.<name>`.
These tests fail when a change to the package removes one of those names,
so that such a change shows here and not only in the benchmark's own smoke
test.
"""

import ast
import importlib
from pathlib import Path

import pytest

import mvee.solvers
from mvee.harness import gen_sample
from mvee.problem import lift
from mvee.solvers import SolverConfig

from conftest import singular_on_call

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _references(path):
    """(module, name) pairs that a perfbench file takes from the package,
    through `from mvee.x import name` or an attribute chain mvee.x.name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("mvee.")):
            found.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id == "mvee"):
            found.add((f"mvee.{node.value.attr}", node.attr))
    return found


@pytest.mark.parametrize("module", ["layers", "workloads"])
def test_benchmark_modules_import(module, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module(module)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_benchmark_names_exist(path):
    missing = sorted(f"{module}.{name}" for module, name in _references(path)
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"{path.name} uses missing names {missing}"


@pytest.mark.parametrize("algorithm", ["wa", "cd_const"])
def test_traced_step_counts_sum_to_iterations(algorithm, monkeypatch):
    # `run.py --trace 1` counts steps from each kernel's StepOutcome (its
    # step_type, scale and theta_rel) and the final support from
    # SolveReport.u_final, so a kernel change that breaks those reads shows
    # here rather than only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    X = lift(gen_sample(3, 40, 0))
    with layers.Tracer() as tracer:
        rep = mvee.solvers.solve(X, SolverConfig(algorithm=algorithm,
                                                 epsilon=1e-5))
    metrics = tracer.layer_metrics()
    assert rep.iterations > 0
    assert metrics["solvers.iterations"] == rep.iterations
    assert sum(metrics[f"solvers.steps.{t}"] for t in
               ("add", "increase", "decrease", "drop")) == rep.iterations
    assert metrics["linalg.rebuilds.forced"] == 0
    assert metrics["solvers.support_final"] == rep.u_final.support.sum()


def test_traced_singular_update_counts_as_forced(monkeypatch):
    # a SingularUpdate raised by rank_one_modify is the forced rebuild the
    # tracer counts, and no scheduled one: the same solve traced without
    # the injection counts as many scheduled rebuilds (the factor that
    # certifies the report among them) and no forced one; the failed
    # attempt stays in update_ok_ratio's base
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    X = lift(gen_sample(3, 40, 0))

    def traced():
        with layers.Tracer() as tracer:
            rep = mvee.solvers.solve(X, SolverConfig(epsilon=1e-5))
        return rep, tracer.layer_metrics()

    _, plain = traced()
    monkeypatch.setattr(mvee.solvers, "rank_one_modify",
                        singular_on_call(mvee.solvers.rank_one_modify, 20))
    rep, metrics = traced()
    assert rep.converged
    assert plain["linalg.rebuilds.forced"] == 0
    assert metrics["linalg.rebuilds.forced"] == 1
    assert (metrics["linalg.rebuilds.scheduled"]
            == plain["linalg.rebuilds.scheduled"])
    assert metrics["linalg.update_ok_ratio"] < 1.0
