"""Tracked perf trajectory: normalized bench files and regression gating.

The benchmarks (``benchmarks/bench_*.py``) distil each run into a small set
of *normalized metrics* — counters, traffic bytes, backend speedup ratios,
deterministic simulated seconds — and write them as ``BENCH_<name>.json``
(via :func:`write_bench`, wired through the ``bench_trajectory`` fixture).
A baseline copy of each file is committed at the repo root; CI re-runs the
benches and ``python -m repro perf-check`` compares current against baseline
with **per-kind tolerances**:

========  ============================================================
kind      rule
========  ============================================================
counter   exact integer match (work performed must not drift)
bytes     exact match (wire traffic is deterministic)
exact     relative error ≤ 1e-9 (deterministic floats: sim seconds,
          accuracies — machine-independent by construction)
ratio     one-sided: current ≥ (1 − tol) × baseline, tol 0.35 by
          default (backend speedups are noisy; only collapses fail,
          improvements always pass)
memory    one-sided: fails only when current > (1 + tol) × baseline,
          tol :data:`MEMORY_TOL` (heap peaks are not exact; growth
          beyond the spread fails, any drop passes)
seconds   informational only — wall-clock is machine-dependent and
          never gates
========  ============================================================

A metric present in the baseline but missing from the current run fails
(coverage regressed); a new current metric is reported but passes (commit an
updated baseline to start tracking it).  ``perf-check --update`` promotes
the current files to baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

__all__ = ["MetricCheck", "PerfCheckResult", "KINDS", "DEFAULT_RATIO_TOL",
           "MEMORY_TOL", "normalize_metrics", "write_bench", "load_bench",
           "compare_bench", "format_perfcheck"]

#: Recognized metric kinds (see the module docstring for the gating rules).
KINDS = ("counter", "bytes", "exact", "ratio", "memory", "seconds")

#: Default one-sided tolerance for ``ratio`` metrics (35% slack).
DEFAULT_RATIO_TOL = 0.35

#: One-sided upper tolerance for ``memory`` metrics (heap peaks in bytes).
#: The population bench's tracemalloc peaks spread by at most 0.014% over
#: nine runs; 5% is over 300 times that spread and under half the 11% by
#: which its 10x population's peak exceeds the small one's.
MEMORY_TOL = 0.05

#: Relative tolerance for ``exact`` (deterministic float) metrics.
EXACT_REL_TOL = 1e-9

_SCHEMA = 1


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of comparing one metric against its baseline."""

    name: str
    kind: str
    baseline: float | None
    current: float | None
    status: str          # "ok" | "fail" | "info" | "missing" | "new"
    detail: str = ""

    @property
    def gating(self) -> bool:
        """Does this row affect the pass/fail verdict?"""
        return self.status in ("fail", "missing")


@dataclass(frozen=True)
class PerfCheckResult:
    """All per-metric outcomes for one bench file pair."""

    bench: str
    checks: tuple[MetricCheck, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no gating check failed."""
        return not any(c.gating for c in self.checks)

    @property
    def failures(self) -> tuple[MetricCheck, ...]:
        """The gating rows."""
        return tuple(c for c in self.checks if c.gating)


def normalize_metrics(metrics: Mapping[str, Any]) -> dict:
    """Coerce ``{name: value}`` / ``{name: {value, kind}}`` into file form.

    Bare values default to kind ``"exact"``; unknown kinds raise so typos in
    a bench don't silently change the gating rule.
    """
    out: dict[str, dict] = {}
    for name, spec in metrics.items():
        if isinstance(spec, Mapping):
            kind = str(spec.get("kind", "exact"))
            value = spec["value"]
        else:
            kind, value = "exact", spec
        if kind not in KINDS:
            raise ValueError(
                f"metric {name!r}: unknown kind {kind!r} (one of {KINDS})")
        out[name] = {"value": float(value), "kind": kind}
    return out


def write_bench(path: str | Path, bench: str, metrics: Mapping[str, Any],
                *, context: Mapping[str, Any] | None = None) -> dict:
    """Write a normalized ``BENCH_<name>.json`` document; return it."""
    doc = {
        "bench": bench,
        "schema": _SCHEMA,
        "metrics": normalize_metrics(metrics),
        "context": dict(context or {}),
    }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def load_bench(path: str | Path) -> dict:
    """Load and minimally validate a bench document."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or "metrics" not in doc:
        raise ValueError(f"{path}: not a bench document (no 'metrics' key)")
    doc["metrics"] = normalize_metrics(doc["metrics"])
    return doc


def _check_one(name: str, kind: str, base: float, cur: float,
               ratio_tol: float) -> MetricCheck:
    if kind == "seconds":
        return MetricCheck(name, kind, base, cur, "info",
                           "wall-clock; informational only")
    if kind in ("counter", "bytes"):
        if cur == base:
            return MetricCheck(name, kind, base, cur, "ok")
        return MetricCheck(name, kind, base, cur, "fail",
                           f"must match exactly; drift {cur - base:+g}")
    if kind == "exact":
        denom = max(abs(base), abs(cur), 1.0)
        rel = abs(cur - base) / denom
        if rel <= EXACT_REL_TOL:
            return MetricCheck(name, kind, base, cur, "ok")
        return MetricCheck(name, kind, base, cur, "fail",
                           f"relative error {rel:.2e} > {EXACT_REL_TOL:g}")
    if kind == "memory":
        ceiling = (1.0 + MEMORY_TOL) * base
        if cur <= ceiling:
            return MetricCheck(name, kind, base, cur, "ok")
        return MetricCheck(name, kind, base, cur, "fail",
                           f"above {ceiling:.0f} (= (1+{MEMORY_TOL:g}) x "
                           f"baseline)")
    # ratio: one-sided lower bound; higher is always fine.
    floor = (1.0 - ratio_tol) * base
    if cur >= floor:
        return MetricCheck(name, kind, base, cur, "ok")
    return MetricCheck(name, kind, base, cur, "fail",
                       f"below {floor:.3f} (= (1-{ratio_tol:g}) x baseline)")


def compare_bench(baseline: Mapping[str, Any], current: Mapping[str, Any], *,
                  ratio_tol: float = DEFAULT_RATIO_TOL) -> PerfCheckResult:
    """Compare two bench documents metric by metric."""
    base_m = normalize_metrics(baseline.get("metrics", {}))
    cur_m = normalize_metrics(current.get("metrics", {}))
    checks: list[MetricCheck] = []
    for name in sorted(set(base_m) | set(cur_m)):
        b, c = base_m.get(name), cur_m.get(name)
        if c is None:
            checks.append(MetricCheck(name, b["kind"], b["value"], None,
                                      "missing",
                                      "present in baseline, absent now"))
            continue
        if b is None:
            checks.append(MetricCheck(name, c["kind"], None, c["value"],
                                      "new", "not in baseline yet; run "
                                      "perf-check --update to track it"))
            continue
        kind = b["kind"]
        if c["kind"] != kind:
            checks.append(MetricCheck(name, kind, b["value"], c["value"],
                                      "fail", f"kind changed "
                                      f"{kind!r} -> {c['kind']!r}"))
            continue
        checks.append(_check_one(name, kind, b["value"], c["value"],
                                 ratio_tol))
    return PerfCheckResult(
        bench=str(baseline.get("bench", current.get("bench", "?"))),
        checks=tuple(checks))


_STATUS_MARK = {"ok": "ok  ", "fail": "FAIL", "info": "info",
                "missing": "MISS", "new": "new "}


def format_perfcheck(result: PerfCheckResult) -> str:
    """Human-readable per-metric table with the final verdict."""
    lines = [f"perf-check: bench {result.bench!r} — "
             + ("PASS" if result.ok else "FAIL")]
    for c in result.checks:
        base = "-" if c.baseline is None else f"{c.baseline:g}"
        cur = "-" if c.current is None else f"{c.current:g}"
        line = (f"  [{_STATUS_MARK[c.status]}] {c.name:<28s} "
                f"{c.kind:<8s} base={base:<14s} now={cur:<14s}")
        if c.detail:
            line += f" {c.detail}"
        lines.append(line)
    return "\n".join(lines)
