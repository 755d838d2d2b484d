"""Smoke test of the benchmark on tiny instances (n=3, m=40).

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import SPAN_NAMES  # noqa: E402
from mvee.solvers import init_khachiyan  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
# every end-to-end metric the report prints, with its unit
REPORTED = {"solve_s": "s", "solves_per_s": "1/s", "us_per_iter": "us",
            "work_cost": "ref_step", "iterations": "count", "setup_s": "s",
            "raw_setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "1",
            "cert_drift": "1", "ref_step_us": "us"}


def tiny(spec):
    budget = 20 if not spec.converges else 100_000
    return dataclasses.replace(spec, n=3, m=40, max_iter=budget,
                               instances=min(spec.instances, 2))


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.chdir(ROOT)
    table = {name: tiny(spec) for name, spec in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", table)
    # the recorded references are for the full-size instances
    monkeypatch.setattr(workloads, "load_references", lambda: {})
    return table


def run_main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def assert_result(doc, section):
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    want = {m["name"]: m["unit"] for m in CONFIG[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    for value in doc["metrics"].values():
        assert math.isfinite(value["value"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_metric(tiny_workloads, capsys, workload):
    lines, doc = run_main(capsys, workload, 0)
    assert_result(doc, "end_to_end")
    for name, unit in REPORTED.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines), name
    for name, value in doc["metrics"].items():
        assert value["value"] > 0, name
    # the tiny instances have no recorded references, and the run says so
    assert "# no reference for seed 7: iterations and final h not compared" \
        in lines


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_prints_every_layer(tiny_workloads, capsys, workload):
    lines, doc = run_main(capsys, workload, 1)
    assert_result(doc, "per_layer")
    for name, unit in ((m["name"], m["unit"]) for m in CONFIG["per_layer"]):
        assert any(line.split()[::2] == [name, unit] for line in lines), name
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert metrics["solvers.iterations"] == sum(
        metrics[f"solvers.steps.{t}"]
        for t in ("add", "increase", "decrease", "drop"))
    assert metrics["linalg.update_ok_ratio"] == 1.0


@pytest.mark.parametrize("workload", ["small-cd", "moderate-wa", "batch-bench"])
def test_layer_self_times_add_up_to_each_solve(tiny_workloads, tmp_path,
                                                workload):
    spec = tiny_workloads[workload]
    out = workloads.run_traced(spec, 7, 0.0, tmp_path)
    for tracer in out["tracers"]:
        name, _thread, start, end, parent = tracer.spans()
        own = tracer.self_ns()
        assert (own >= 0).all()
        children = defaultdict(list)
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                children[p].append(i)

        def subtree(i):
            return own[i] + sum(subtree(c) for c in children[i])

        solves = [i for i in range(name.size)
                  if SPAN_NAMES[name[i]] == "solvers.solve"]
        assert solves
        for i in solves:
            assert subtree(i) == end[i] - start[i]


def test_checks_flag_bad_outputs(tiny_workloads):
    spec = tiny_workloads["small-cd"]
    solves = workloads.direct_cycle(spec, 7)
    assert workloads.check(spec, 7, solves, {})[:1] == (0,)
    good = solves[0]
    ref = {spec.name: {"7": {str(good.instance): {
        good.algorithm: [good.iterations + 1, good.final_h]}}}}
    assert workloads.check(spec, 7, [good], ref)[2]
    ref[spec.name]["7"][str(good.instance)][good.algorithm] = [
        good.iterations, good.final_h]
    assert workloads.check(spec, 7, [good], ref)[:1] == (0,)
    assert not workloads.check(spec, 7, [good], ref)[2]
    raised = dataclasses.replace(good, error="NotFullRank: test")
    unconverged = dataclasses.replace(good, converged=False)
    uniform = dataclasses.replace(good, u_final=init_khachiyan(spec.m))
    for bad in (raised, unconverged, uniform):
        assert workloads.check(spec, 7, [bad], {})[0] == 1
    repeat = dataclasses.replace(good, final_h=good.final_h + 1.0)
    assert workloads.check(spec, 7, [good, repeat], {})[2]


def test_missing_package_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-cd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
