import ast
import dataclasses
import importlib.util
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twoarm
import twoarm.cli
import twoarm.criteria
import twoarm.montecarlo

import mutants

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GRID_CHILD = ROOT / "gridbench" / "grid_child.py"
GATE = ROOT / "gridbench" / "gate.py"

# Runs in a fresh interpreter: that the package has no verify module (its
# contents live in twoarm.criteria), whether importing the command line
# loaded twoarm.criteria and whether it exists at all (find_spec does not
# load it), whether networkx is loaded after a pm design at p = 2 has
# built its blossom matching (the matcher is the package's own), and the
# public names of the top level.
_PROBE = """
import importlib.util, sys, types
import numpy as np
import twoarm.cli
import twoarm
from twoarm.core import CovariateMatrix
assert importlib.util.find_spec(".verify", "twoarm") is None
print("twoarm.criteria" in sys.modules, importlib.util.find_spec("twoarm.criteria") is not None)
# the allocation pattern tables are built on first use, not on import
print(twoarm.designs._pattern_table.cache_info().currsize)
grid = twoarm.cli.build_grid(
    {"seed": "0", "reps": "2", "n_subjects": "8", "designs": "pm", "p": "2"}
)
x = CovariateMatrix(np.random.default_rng(0).uniform(size=(8, 2)))
design = twoarm.cli._build_design("pm", 4, x, grid, "pm")
assert len(design.blocking.pairs()) == 4
print("networkx" in sys.modules)
print(" ".join(sorted(
    name for name, value in vars(twoarm).items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)))
"""


def _readme_exports() -> set[str]:
    """The names in the README paragraph that lists the top-level exports."""
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (listing,) = [p for p in paragraphs if "exports these 8 names" in p]
    return set(re.findall(r"`([A-Za-z_]\w*)`", listing))


def _readme_keys() -> list[str]:
    """The first column of the README's "Available keys" table."""
    after = README.read_text(encoding="utf-8").split("Available keys:", 1)[1]
    table = after.split("\n\n")[1]
    return re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)


def _readme_python_block(marker: str) -> str:
    """The one README Python block that contains marker."""
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    (block,) = [b.split("```", 1)[0] for b in blocks if marker in b]
    return block


def _run_readme_block(marker: str) -> dict:
    """Run a README Python block with every warning raised; its globals."""
    scope: dict = {}
    with warnings.catch_warnings():
        # a snippet must not lean on a deprecated key
        warnings.simplefilter("error")
        exec(_readme_python_block(marker), scope)
    return scope


def test_readme_library_use_example_runs_and_is_reproducible(capsys):
    scope = _run_readme_block("report = run_cell(cfg)")
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert len(printed) == 2
    assert all(math.isfinite(v) for v in printed)
    assert twoarm.run_cell(scope["cfg"]) == scope["report"]


def test_readme_snippet_reproduces_its_grid_row():
    scope = _run_readme_block("row of cli.run_grid(grid)")
    grid, report = scope["grid"], scope["report"]
    (row,) = [
        r for r in twoarm.cli.run_grid(grid) if (r["design"], r["B"]) == ("block", 2)
    ]
    got = dataclasses.asdict(report)
    assert got == {name: row[name] for name in got}


def test_readme_keys_table_lists_exactly_the_config_keys():
    assert sorted(_readme_keys()) == sorted(twoarm.cli._KNOWN_KEYS)


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports twoarm from this tree."""
    src = str(Path(twoarm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_cli_leaves_criteria_unloaded_and_the_top_level_matches_the_readme():
    done = _run_fresh(_PROBE)
    assert done.returncode == 0, done.stderr
    criteria, tables, networkx_loaded, names = done.stdout.splitlines()
    assert criteria == "False True"
    assert tables == "0"
    assert networkx_loaded == "False"
    exported = set(names.split())
    assert len(exported) == 8
    assert exported == _readme_exports()


@pytest.mark.parametrize(
    "module_name",
    ["twoarm"]
    + sorted(f"twoarm.{m.name}" for m in pkgutil.iter_modules(twoarm.__path__)),
)
def test_each_module_imports_first_in_a_fresh_interpreter(module_name):
    # a circular import fails only when the cycle's other module is not
    # yet loaded, so each module goes first in its own interpreter
    done = _run_fresh(f"import {module_name}")
    assert done.returncode == 0, done.stderr


def test_readme_lists_exactly_the_public_criteria_functions_and_classes():
    defined = {
        name
        for name, value in vars(twoarm.criteria).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == "twoarm.criteria"
    }
    mentioned = set(
        re.findall(r"twoarm\.criteria\.(\w+)", README.read_text(encoding="utf-8"))
    )
    assert mentioned == defined


class _Stub:
    """Stands in for any bound argument: int() gives 0, attributes chain."""

    def __int__(self):
        return 0

    def __getattr__(self, name):
        return self


def _grid_child_spans():
    """SPANS of the benchmark's tracing script, loaded without running it."""
    spec = importlib.util.spec_from_file_location("_grid_child", GRID_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize(
    "module_name, attr, count",
    [pytest.param(m, a, c, id=f"{m}.{a}") for m, a, _, c in _grid_child_spans()],
)
def test_every_traced_name_resolves_and_takes_its_counted_arguments(
    module_name, attr, count
):
    module = {"cli": twoarm.cli, "montecarlo": twoarm.montecarlo}[module_name]
    target = getattr(module, attr, None)
    assert callable(target), f"twoarm.{module_name}.{attr} is not callable"
    if count is not None:
        _, work = count
        # a counted argument that the signature lacks raises KeyError here
        args = {name: _Stub() for name in inspect.signature(target).parameters}
        work(args, np.zeros(1))


def _gate_imports():
    """(module, name) of each name the benchmark's gate imports from twoarm."""
    tree = ast.parse(GATE.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "twoarm"
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "module_name, attr",
    [pytest.param(m, a, id=f"{m}.{a}") for m, a in _gate_imports()],
)
def test_every_name_the_gate_imports_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert hasattr(module, attr), f"{module_name} has no {attr}"


def _test_node_ids(path: Path) -> set[str]:
    """'func' and 'Class::func' for each test function defined in a file."""
    ids = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            ids.add(node.name)
        elif isinstance(node, ast.ClassDef):
            ids.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return ids


def test_every_mutant_entry_applies_once_and_names_existing_tests():
    # the staleness half of tests/mutants.py, without running a mutant:
    # each edit applies once and leaves a file that compiles
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        text = (ROOT / "src" / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        compile(text.replace(m.old, m.new), m.path, "exec")
        assert m.nodes, m.name
        for node in m.nodes:
            file, _, test = node.partition("::")
            path = ROOT / file
            assert path.is_file(), node
            assert re.sub(r"\[.*\]$", "", test) in _test_node_ids(path), node


def _typed_argument_calls():
    """(argument name, class name, call of one bad value) for every typed
    argument of the library's functions, the others valid."""
    from twoarm.core import Allocation, Blocking, CovariateMatrix
    from twoarm.criteria import (
        OutcomePair, enumerate_allocations, enumerate_design_oracle, estimand,
        estimate, match_grid, pair_gap_diagnostic, pb_quantile, squared_error,
        variance_decomposition_terms,
    )
    from twoarm.designs import DesignSpec, design_covariance, sample_allocations
    from twoarm.montecarlo import CellConfig, run_cell, simulate_squared_errors
    from twoarm.response import (
        CovariateSource, arm_variance, default_model, draw_covariates,
        draw_outcomes, potential_means, residual_variances,
    )

    x = CovariateMatrix(np.arange(16.0).reshape(8, 2))
    model = default_model("continuous", 2)
    spec = DesignSpec.bcrd(8)
    w = Allocation([1, -1] * 4)
    outcomes = OutcomePair(np.zeros(8), np.ones(8))
    mu = np.full(8, 0.5)
    cfg = CellConfig("cell", model, x, spec, 4, 1)
    rng = np.random.default_rng(0)
    return [
        ("spec", "DesignSpec", lambda v: sample_allocations(v, 2, rng)),
        ("spec", "DesignSpec", design_covariance),
        ("source", "CovariateSource", lambda v: draw_covariates(v, 8, 2, rng)),
        ("model", "ResponseModel", lambda v: potential_means(v, x)),
        ("x", "CovariateMatrix", lambda v: potential_means(model, v)),
        ("model", "ResponseModel", lambda v: draw_outcomes(v, mu, rng, 2)),
        ("model", "ResponseModel", lambda v: arm_variance(v, mu)),
        ("model", "ResponseModel", lambda v: residual_variances(v, mu, mu)),
        ("cfg", "CellConfig", run_cell),
        ("cells entries", "CellConfig", lambda v: simulate_squared_errors([v], "panel")),
        ("cells entries", "CellConfig", lambda v: simulate_squared_errors([cfg, v], "panel")),
        ("w_star", "Allocation", lambda v: pb_quantile(v, mu, mu)),
        ("pairing", "Blocking", lambda v: pair_gap_diagnostic(v, mu)),
        ("x", "CovariateMatrix", lambda v: match_grid(v, rng)),
        ("spec", "DesignSpec", enumerate_allocations),
        ("spec", "DesignSpec", lambda v: enumerate_design_oracle(v, outcomes)),
        ("outcomes", "OutcomePair", lambda v: enumerate_design_oracle(spec, v)),
        ("w", "Allocation", lambda v: estimate(v, outcomes)),
        ("outcomes", "OutcomePair", lambda v: estimate(w, v)),
        ("w", "Allocation", lambda v: squared_error(v, outcomes)),
        ("outcomes", "OutcomePair", lambda v: squared_error(w, v)),
        ("outcomes", "OutcomePair", estimand),
        ("spec", "DesignSpec", lambda v: variance_decomposition_terms(v, model, x, 4, rng)),
        ("model", "ResponseModel", lambda v: variance_decomposition_terms(spec, v, x, 4, rng)),
    ]


@pytest.mark.parametrize("bad", [np.zeros(8), "bcrd", (1, 2), None], ids=lambda v: type(v).__name__)
def test_every_typed_argument_fails_by_name_and_class(bad):
    # each used to raise AttributeError on its first attribute read
    for name, cls, call in _typed_argument_calls():
        got = type(bad).__name__
        with pytest.raises(ValueError, match=f"^{name} must be a {cls}, got {got}$"):
            call(bad)
