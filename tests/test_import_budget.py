"""Import budget: package re-exports resolve lazily, so an import loads only
what it uses, and an opt-in subsystem loads only when a run turns it on.

Each check runs in a fresh interpreter, because the module set of this test
session depends on every test that ran before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Analysis, reporting and harness modules no training run touches.
NOT_FOR_TRAINING = (
    "repro.obs.report", "repro.obs.critical_path", "repro.obs.profile",
    "repro.obs.perfcheck", "repro.multilayer", "repro.theory",
    "repro.plotting", "repro.compression", "repro.experiments.figures",
    "repro.experiments.tables", "repro.experiments.scenarios",
    "repro.invariants", "repro.chaos.campaign",
)

#: Implementation modules of opt-in features: a plain HierMinimax run on the
#: serial backend loads none of them.
FEATURE_MODULES = (
    "repro.baselines.fedavg", "repro.baselines.stochastic_afl",
    "repro.baselines.drfa", "repro.baselines.hierfavg",
    "repro.core.semiasync", "repro.exec.threads", "repro.exec.vectorized",
    "repro.data.adult", "repro.data.synthetic_fl",
    "repro.defense.aggregators", "repro.chaos.plan",
    "repro.population.spec", "repro.population.store",
    "repro.population.virtual", "repro.membership.manager",
    "repro.simtime.cost", "repro.simtime.timeline",
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


def _run_in_fresh_interpreter(algorithm: str = "hierminimax", *,
                              preset: str = 'fig4_preset("tiny")',
                              setup: str = "", **kwargs: str
                              ) -> tuple[int, set[str]]:
    """Run a few rounds of ``algorithm`` through ``run_experiment`` in a new
    interpreter; return the rounds it ran and every module it loaded.

    ``kwargs`` are ``run_experiment`` keywords given as Python source.
    """
    extra = "".join(f", {key}={value}" for key, value in kwargs.items())
    name = repr(algorithm)
    out = _fresh_interpreter(
        "import json, sys\n"
        "from repro.experiments.presets import fig4_preset, table2_preset\n"
        "from repro.experiments.runner import run_experiment\n"
        f"{setup}\n"
        f"preset = {preset}.with_overrides(slots=12, eval_points=1)\n"
        f"out = run_experiment(preset, algorithms=({name},){extra})\n"
        f"print(json.dumps([out.results[{name}].rounds_run, "
        "sorted(sys.modules)]))")
    return out[0], set(out[1])


def test_plain_run_loads_no_feature_module():
    rounds, loaded = _run_in_fresh_interpreter(backend='"serial"')
    assert rounds >= 1
    assert sorted(loaded & set(FEATURE_MODULES)) == []
    assert "concurrent.futures" not in loaded


@pytest.mark.skipif(
    _fresh_interpreter("import json, sys, numpy\n"
                       "print(json.dumps('numpy.ma' in sys.modules))"),
    reason="a bare `import numpy` already loads numpy.ma (NumPy 1.x)")
@pytest.mark.parametrize("run", [
    dict(backend='"serial"'),
    dict(backend='"vectorized"'),
    dict(backend='"vectorized"',
         setup="from repro.faults import FaultPlan",
         faults='FaultPlan.parse("client_dropout=0.2,msg_loss=0.1,'
                'guard_zscore=3,seed=1")',
         defense='"edge=trimmed_mean,cloud=norm_clip,trim=0.34,'
                 'loss_clip=2.0"'),
], ids=["serial", "vectorized", "faults_defense"])
def test_plain_run_does_not_load_numpy_ma(run):
    """``numpy.ma`` costs about 1.2 MB resident.  A round counts distinct
    sampled edges without ``np.unique``, and the robustness layers' 1-D
    medians go through :func:`repro.ops.numerics.median`; ``np.unique`` and
    ``np.median`` would import it."""
    rounds, loaded = _run_in_fresh_interpreter(**run)
    assert rounds >= 1
    assert "numpy.ma" not in loaded


#: Upper bound on the ``repro`` source lines the benchmark child's set-up
#: imports load (10,270 when this bound was set).
SETUP_SOURCE_LINES = 10_400


def test_setup_imports_stay_within_the_source_budget():
    """Set-up time scales with the ``repro`` source the set-up imports load:
    with bytecode writing off, every fresh interpreter compiles each module
    it imports (see DESIGN.md, "Set-up path")."""
    modules, lines = _fresh_interpreter(
        "import json, sys\n"
        "from repro.core.hierminimax import HierMinimax\n"
        "from repro.exec import make_backend\n"
        "from repro.experiments.runner import run_experiment\n"
        "from repro.faults import FaultPlan\n"
        "from repro.faults.checkpoint import load_checkpoint_file\n"
        "from repro.obs import TraceWriter, Tracer\n"
        "files = [m.__file__ for name, m in list(sys.modules.items())\n"
        "         if name == 'repro' or name.startswith('repro.')]\n"
        "lines = 0\n"
        "for path in files:\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        lines += sum(1 for _ in fh)\n"
        "print(json.dumps([len(files), lines]))")
    assert modules > 0
    assert lines <= SETUP_SOURCE_LINES, (
        f"set-up imports load {lines} lines of repro source in {modules} "
        f"modules; the budget is {SETUP_SOURCE_LINES}")


@pytest.mark.parametrize("run, expected", [
    (dict(backend='"thread"'), {"repro.exec.threads", "concurrent.futures"}),
    (dict(backend='"vectorized"'), {"repro.exec.vectorized"}),
    (dict(algorithm="fedavg"), {"repro.baselines.fedavg"}),
    (dict(algorithm="stochastic_afl"), {"repro.baselines.stochastic_afl"}),
    (dict(algorithm="drfa"), {"repro.baselines.drfa"}),
    (dict(algorithm="hierfavg"), {"repro.baselines.hierfavg"}),
    (dict(algorithm="semiasync_hierminimax"), {"repro.core.semiasync"}),
    (dict(preset='table2_preset("adult", "tiny")'), {"repro.data.adult"}),
    (dict(preset='table2_preset("synthetic", "tiny")'),
     {"repro.data.synthetic_fl"}),
    (dict(defense='"trimmed_mean"'), {"repro.defense.aggregators"}),
    (dict(churn='"arrive=0.2,depart=0.2,seed=1"'),
     {"repro.membership.manager"}),
    (dict(cost_model='"hetero,seed=1"'),
     {"repro.simtime.cost", "repro.simtime.timeline"}),
    (dict(population='"clients=60,edges=10,samples=8,seed=0"'),
     {"repro.population.spec", "repro.population.store",
      "repro.population.virtual"}),
    (dict(attack='"label_flip,fraction=0.3,seed=1"'),
     {"repro.defense.attacks"}),
    (dict(setup='from repro.chaos import install\ninstall("torn_write=0")'),
     {"repro.chaos.plan"}),
], ids=["thread", "vectorized", "fedavg", "stochastic_afl", "drfa",
        "hierfavg", "semiasync", "adult", "synthetic", "defense", "churn",
        "cost_model", "population", "attack", "chaos"])
def test_each_feature_loads_its_module_and_runs(run, expected):
    """The converse: a deferred import only executes when its feature is on,
    so each switch must load its module and still train."""
    rounds, loaded = _run_in_fresh_interpreter(**run)
    assert rounds >= 1
    assert expected <= loaded
