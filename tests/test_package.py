import os
import re
import subprocess
import sys
from pathlib import Path

import twoarm

README = Path(__file__).resolve().parents[1] / "README.md"

# Runs in a fresh interpreter: whether importing the command line loaded
# twoarm.verify, whether that module exists at all (find_spec does not
# load it), and the public names of the top level.
_PROBE = """
import importlib.util, sys, types
import twoarm.cli
import twoarm
print("twoarm.verify" in sys.modules)
print(importlib.util.find_spec("twoarm.verify") is not None)
print(" ".join(sorted(
    name for name, value in vars(twoarm).items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)))
"""


def _readme_exports() -> set[str]:
    """The names in the README paragraph that lists the top-level exports."""
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (listing,) = [p for p in paragraphs if "exports these 13 names" in p]
    return set(re.findall(r"`([A-Za-z_]\w*)`", listing))


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
    loaded, exists, names = done.stdout.splitlines()
    assert (loaded, exists) == ("False", "True")
    exported = set(names.split())
    assert len(exported) == 13
    assert exported == _readme_exports()
