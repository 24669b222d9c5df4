"""Import budget: package re-exports resolve lazily, so an import loads only
what it uses.

Each check runs in a fresh interpreter, because the module set of this test
session depends on every test that ran before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Analysis, reporting and harness modules no training run touches.
NOT_FOR_TRAINING = (
    "repro.obs.report", "repro.obs.critical_path", "repro.obs.profile",
    "repro.obs.perfcheck", "repro.multilayer", "repro.theory",
    "repro.plotting", "repro.compression", "repro.experiments.figures",
    "repro.experiments.tables", "repro.invariants", "repro.chaos.campaign",
)


def _fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter importing this checkout's ``repro``;
    return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


def _loaded_after(statement: str) -> set[str]:
    """The ``repro`` modules loaded by ``statement`` in a fresh interpreter."""
    return set(_fresh_interpreter(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.'))))"))


def test_bare_import_loads_only_the_lazy_helper():
    assert _loaded_after("import repro") == {"repro", "repro._lazy"}


def test_runner_import_skips_analysis_modules():
    loaded = _loaded_after("import repro.experiments.runner")
    assert "repro.experiments.runner" in loaded
    assert not {module for module in loaded for banned in NOT_FOR_TRAINING
                if module == banned or module.startswith(banned + ".")}


def test_reexport_survives_a_same_named_submodule_import():
    """``repro.chaos`` names both a subpackage and the re-exported context
    manager; importing the subpackage first must not shadow the export."""
    assert _fresh_interpreter(
        "import json, sys\n"
        "import repro.chaos.hooks\n"
        "import repro\n"
        "from repro import chaos\n"
        "hooks = sys.modules['repro.chaos.hooks']\n"
        "print(json.dumps([chaos is hooks.chaos, repro.chaos is chaos]))"
    ) == [True, True]
