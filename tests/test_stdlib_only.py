"""The toolchain runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency; these tests keep that
true for what the shipped entry points actually import, so no surface pays
start-up time or memory for a package it never needed.
"""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Records the top-level modules the entry-point imports add to a fresh
#: interpreter (whatever the interpreter's own start-up loaded is excluded).
_PROBE = """
import json, sys
before = set(sys.modules)
import repro.cli, repro.workspace, repro.pipeline.serve
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_entry_points_import_only_the_stdlib_and_repro():
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert not project.get("dependencies")
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    loaded = json.loads(completed.stdout)
    outside = [
        name
        for name in loaded
        if name != "repro"
        and not name.startswith("_")
        and name not in sys.stdlib_module_names
    ]
    assert "repro" in loaded
    assert outside == []
