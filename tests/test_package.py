import ast
import dataclasses
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twoarm
import twoarm.cli
import twoarm.montecarlo
import twoarm.verify

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GRID_CHILD = ROOT / "gridbench" / "grid_child.py"
GATE = ROOT / "gridbench" / "gate.py"

# Runs in a fresh interpreter: whether importing the command line loaded
# twoarm.verify or twoarm.criteria, whether each exists at all
# (find_spec does not load it), whether networkx is loaded after a pm
# design at p = 2 has built its blossom matching (the matcher is the
# package's own), and the public names of the top level.
_PROBE = """
import importlib.util, sys, types
import numpy as np
import twoarm.cli
import twoarm
from twoarm.core import CovariateMatrix
for name in ("twoarm.verify", "twoarm.criteria"):
    print(name in sys.modules, importlib.util.find_spec(name) is not None)
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


def _readme_grid_row_snippet() -> str:
    """The README's Python block that reproduces one grid row."""
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    (block,) = [b.split("```", 1)[0] for b in blocks if "row of cli.run_grid(grid)" in b]
    return block


def test_readme_snippet_reproduces_its_grid_row():
    scope: dict = {}
    with warnings.catch_warnings():
        # the snippet must not lean on a deprecated key
        warnings.simplefilter("error")
        exec(_readme_grid_row_snippet(), scope)
    grid, report = scope["grid"], scope["report"]
    (row,) = [
        r for r in twoarm.cli.run_grid(grid) if (r["design"], r["B"]) == ("block", 2)
    ]
    got = dataclasses.asdict(report)
    assert got == {name: row[name] for name in got}


def test_readme_keys_table_lists_exactly_the_config_keys():
    assert sorted(_readme_keys()) == sorted(twoarm.cli._KNOWN_KEYS)


def test_cli_leaves_verify_unloaded_and_the_top_level_matches_the_readme():
    src = str(Path(twoarm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    verify, criteria, networkx_loaded, names = done.stdout.splitlines()
    assert verify == criteria == "False True"
    assert networkx_loaded == "False"
    exported = set(names.split())
    assert len(exported) == 8
    assert exported == _readme_exports()


def test_readme_lists_exactly_the_public_verify_functions_and_classes():
    defined = {
        name
        for name, value in vars(twoarm.verify).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == "twoarm.verify"
    }
    mentioned = set(
        re.findall(r"twoarm\.verify\.(\w+)", README.read_text(encoding="utf-8"))
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
