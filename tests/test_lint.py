"""Static checks on the package source, with the standard library's ast.

- No `assert` statements: `python -O` strips them, so internal checks
  raise named errors instead.
- No unused imports.
- No scipy imports: the package runs on numpy alone, and scipy would
  multiply the start-up time of every `mvee` command.  A fresh-interpreter
  check also catches scipy pulled in through another module.
- `import mvee.cli` leaves the bench harness, configparser and csv
  unloaded, since `mvee solve` uses none of them.
- No public name that only tests use: every public module-level name in
  the package is referenced from another statement of the package or from
  the benchmark under perfbench/.
- One home for factorizations: only linalg.py calls numpy's cholesky,
  solve, inv, slogdet or det, so every consumer of M^{-1} or ln det M
  reads it from the same factor.
- One home for the integer rule: `Integral` appears only in errors.py,
  whose check_int states "an integer of at least a minimum" for every
  count, dimension and seed.
- One home for the singular decision: `raise SingularUpdate` appears at
  exactly one site, so M^{-1}, ln det M and kappa fail the same test.
- One home for the rank decision: `raise NotFullRank` appears only in
  linalg.py, whose factor_from_weights judges every start and every
  rebuild by one rule, so no start rejects a set another start accepts
  by a test of its own.
- Every exception class defined in errors.py, but the base class, is
  raised somewhere in the package, so no error names a failure the program
  cannot report.
- The base class MveeError is never raised bare: each failure raises the
  subclass that names it, and MveeError is only caught.
- One home for a full kappa computation: linalg.factor_from_weights is
  the only code under src/ that forms every kappa_i, and nothing there
  calls gradient_refresh, so every fresh state comes whole from one call,
  and solve() moves kappa only by rank-one updates between rebuilds.
- One home for a fresh state: solvers.py calls factor_from_weights at
  exactly one site, solve()'s rebuild, and never calls certificate, so a
  stop is read from the state that rebuild makes, by the loop's own test.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvee

SOURCES = sorted(Path(mvee.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, f"{path.name}: assert on lines {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in modules
                  if name.split(".")[0] == "scipy"]
    assert not found, f"{path.name}: scipy imports {found}"


FACTORIZATIONS = {"cholesky", "solve", "inv", "slogdet", "det"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_factorizations_only_in_linalg(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FACTORIZATIONS
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[-1] == "linalg"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in FACTORIZATIONS]
    assert not found, f"{path.name}: factorizations outside linalg.py {found}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_integral_only_in_errors(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "Integral")
             or (isinstance(node, ast.Attribute) and node.attr == "Integral")
             or (isinstance(node, ast.alias) and node.name == "Integral")]
    assert not found, f"{path.name}: Integral on lines {found}; use check_int"


def _raise_sites():
    """(exception name, "file:line") for each `raise Name` or
    `raise Name(...)` in the package."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id, f"{path.name}:{node.lineno}"


def test_one_site_raises_singular_update():
    found = [site for name, site in _raise_sites() if name == "SingularUpdate"]
    assert len(found) == 1, f"raise SingularUpdate at {found}"


def test_not_full_rank_raised_only_in_linalg():
    found = [site for name, site in _raise_sites()
             if name == "NotFullRank" and not site.startswith("linalg.py:")]
    assert not found, f"raise NotFullRank at {found}; only the factor judges"


def test_every_error_class_is_raised():
    # classes only: DowndateBreaksPD is an alias of SingularUpdate; the base
    # class is only caught (test_base_error_is_never_raised_bare)
    errors = Path(mvee.__file__).parent / "errors.py"
    defined = {stmt.name for stmt in ast.parse(errors.read_text()).body
               if isinstance(stmt, ast.ClassDef)} - {"MveeError"}
    raised = {name for name, _ in _raise_sites()}
    assert defined <= raised, f"never raised: {sorted(defined - raised)}"


def test_base_error_is_never_raised_bare():
    found = [site for name, site in _raise_sites() if name == "MveeError"]
    assert not found, f"raise MveeError at {found}; raise the subclass"


def _calls(match):
    """(module.top-level name, line) of each call under src/ that
    match(call) accepts."""
    return [(f"{path.stem}.{getattr(stmt, 'name', '')}", node.lineno)
            for path in SOURCES
            for stmt in ast.parse(path.read_text(), filename=str(path)).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and match(node)]


def test_full_kappa_only_in_factor():
    # a full kappa computation writes a state's whole kappa (out=....kappa);
    # factor_from_weights is the package's one, and gradient_refresh's is
    # left to callers outside the package
    refresh = _calls(lambda call: "gradient_refresh" in (
        getattr(call.func, "id", None), getattr(call.func, "attr", None)))
    assert not refresh, f"gradient_refresh called at {refresh}"
    whole = _calls(lambda call: any(
        kw.arg == "out" and getattr(kw.value, "attr", None) == "kappa"
        for kw in call.keywords))
    assert sorted(owner for owner, _ in whole) == [
        "linalg.factor_from_weights", "linalg.gradient_refresh"], (
        f"kappa written whole at {whole}")


def test_one_fresh_state_site_in_solvers():
    path = Path(mvee.__file__).parent / "solvers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    called = [(name, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              for name in (getattr(node.func, "id", None),
                           getattr(node.func, "attr", None))
              if name in ("factor_from_weights", "certificate")]
    assert sorted(name for name, _ in called) == ["factor_from_weights"], (
        f"solvers.py: fresh states or certificates made at {called}")


def _fresh_interpreter(probe):
    """stdout of `python -c probe`, with this checkout's mvee importable."""
    src = Path(mvee.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src))).stdout


def test_cli_import_leaves_scipy_unloaded():
    out = _fresh_interpreter(
        "import sys, mvee.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]", out


def test_cli_import_leaves_random_and_futures_unloaded():
    # numpy.random only where a bare `import numpy` leaves it unloaded too;
    # the thread pool is imported by run_benchmark when mvee bench runs
    out = _fresh_interpreter(
        "import sys, numpy; random = 'numpy.random' in sys.modules; "
        "import mvee.cli; "
        "print(random, 'numpy.random' in sys.modules, "
        "'concurrent.futures' in sys.modules)")
    by_numpy, random, futures = (s == "True" for s in out.split())
    assert not futures, "import mvee.cli loads concurrent.futures"
    assert by_numpy or not random, "import mvee.cli loads numpy.random"


def test_cli_import_leaves_the_bench_harness_unloaded():
    # mvee solve needs neither the harness nor the plan parser; the
    # subcommands that use them import them when they run
    out = _fresh_interpreter(
        "import sys, mvee.cli; "
        "print(*(m in sys.modules for m in "
        "('mvee.harness', 'configparser', 'csv')))")
    assert out.split() == ["False"] * 3, out


def _public_names(stmt):
    """Public names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _referenced(stmt):
    """Names a statement reads: bare or attribute names, imported names, and
    strings naming an attribute (the benchmark patches functions by name)."""
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_public_names_have_a_caller_outside_tests():
    package = [(path, ast.parse(path.read_text(), filename=str(path)))
               for path in SOURCES]
    others = [ast.parse(path.read_text(), filename=str(path))
              for path in sorted(PERFBENCH.glob("*.py"))]
    statements = [stmt for _, tree in package for stmt in tree.body]
    statements += [stmt for tree in others for stmt in tree.body]
    reads = [_referenced(stmt) for stmt in statements]
    unused = []
    for path, tree in package:
        for stmt in tree.body:
            for name in _public_names(stmt):
                if not any(name in names for other, names
                           in zip(statements, reads) if other is not stmt):
                    unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert not unused, f"public names with no caller outside tests: {unused}"
