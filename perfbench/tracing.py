"""Span tracing of waylab's public functions, installed from outside the package.

Each traced function is replaced in every ``waylab`` module namespace
that holds it, so a call is seen however its caller looks it up
(``gate_fidelity`` lives in ``waylab.cnot`` and is imported by name
into ``waylab.scenarios`` and ``waylab.cli``); ``HilbertSpec.embed`` is
wrapped on its class.  A span records name, start, end, parent span and
the CLI call it belongs to.  Spans stay in memory until the run writes
them out.  The private ``fidelity_sq`` hot loop is never wrapped:
evaluation counts come from ``FidelityResult.evaluations`` instead.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (span name, module, attribute) for every traced function.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "waylab.cli", "main"),
    ("cnot.gate_fidelity", "waylab.cnot", "gate_fidelity"),
    ("cnot.noise_fidelity_link", "waylab.cnot", "noise_fidelity_link"),
    ("scenarios.optimize_fidelity", "waylab.scenarios", "optimize_fidelity"),
    ("conservation.commutant_basis", "waylab.conservation", "commutant_basis"),
    ("conservation.conserving_unitary", "waylab.conservation", "conserving_unitary"),
    ("conservation.conservation_residual", "waylab.conservation", "conservation_residual"),
    ("bounds.trade_off", "waylab.bounds", "qway_bounds"),
    ("bounds.trade_off", "waylab.bounds", "summed_bound"),
    ("bounds.trade_off", "waylab.bounds", "fundamental_bound"),
    ("bounds.identity_reports", "waylab.bounds", "identity_reports"),
    ("measurement.rms", "waylab.measurement", "rms_error"),
    ("measurement.rms", "waylab.measurement", "rms_disturbance"),
    ("measurement.certify", "waylab.measurement", "is_precise"),
    ("measurement.certify", "waylab.measurement", "is_nondisturbing"),
    ("operators.std_dev", "waylab.operators", "std_dev"),
    ("sampling.random_conserving_model", "waylab.sampling", "random_conserving_model"),
    ("serialize.digest", "waylab.serialize", "digest"),
)

# Span names with calls/self_s metrics, in report order.
LAYERS = (
    "cnot.gate_fidelity",
    "cnot.noise_fidelity_link",
    "scenarios.optimize_fidelity",
    "conservation.commutant_basis",
    "conservation.conserving_unitary",
    "conservation.conservation_residual",
    "bounds.trade_off",
    "bounds.identity_reports",
    "measurement.rms",
    "measurement.certify",
    "operators.embed",
    "operators.std_dev",
    "sampling.random_conserving_model",
    "serialize.digest",
    "cli.main",
)

# A start is useful when its final value is this close to the call's minimum.
USEFUL_START_TOL = 1e-6


def _gate_fidelity_attrs(result: Any) -> dict[str, float]:
    finals = [float(t["final"]) for t in result.trace]
    useful = sum(1 for f in finals if f - result.fidelity <= USEFUL_START_TOL)
    return {
        "evals": float(result.evaluations),
        "f": float(result.fidelity),
        "starts": float(len(finals)),
        "useful": float(useful),
    }


def _optimize_attrs(result: Any) -> dict[str, float]:
    return {"evals": float(result.evaluations)}


_ATTRS: dict[str, Callable[[Any], dict[str, float]]] = {
    "cnot.gate_fidelity": _gate_fidelity_attrs,
    "scenarios.optimize_fidelity": _optimize_attrs,
}


class Tracer:
    """Spans and counters for one traced run.

    Wrappers record only while ``recording`` is set, so the benchmark's
    own checks between CLI calls leave no spans.
    """

    def __init__(self) -> None:
        # Each span: [id, parent id or None, name, call id, start, end, attrs]
        self.spans: list[list[Any]] = []
        self.canonical_bytes = 0
        self.recording = False
        self.call_id = 0
        self._stack: list[list[Any]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else None
            span = [len(self.spans), parent, name, self.call_id, time.perf_counter(), 0.0, None]
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span[6] = attrs_of(result)
            return result

        return wrapper

    def _count_bytes(self, fn: Callable[..., str]) -> Callable[..., str]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> str:
            text = fn(*args, **kwargs)
            if self.recording:
                self.canonical_bytes += len(text.encode("utf-8"))
            return text

        return wrapper

    def _replace_everywhere(self, original: Any, wrapper: Any) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "waylab" and not mod_name.startswith("waylab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every target in place; :meth:`uninstall` undoes it."""
        import waylab.operators
        import waylab.serialize

        for name, mod_name, attr in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._wrap(name, original))
        spec_cls = waylab.operators.HilbertSpec
        self._restore.append((spec_cls, "embed", spec_cls.embed))
        spec_cls.embed = self._wrap("operators.embed", spec_cls.embed)
        canonical = waylab.serialize.canonical_json
        self._replace_everywhere(canonical, self._count_bytes(canonical))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][4] if self.spans else 0.0
        with path.open("w") as fh:
            for sid, parent, name, call, start, end, attrs in self.spans:
                row = {
                    "id": sid, "parent": parent, "name": name, "call": call,
                    "start": start - origin, "end": end - origin,
                }
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    One thread makes the calls, so children nest inside their parent
    without overlapping and their durations can simply be summed.
    """
    child_time = [0.0] * len(spans)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[sid] for sid, _, _, _, start, end, _ in spans]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures of the traced rounds; counts and times are per round."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        calls[span[2]] += 1
        busy[span[2]] += t
    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name] / rounds
        out[f"{name}.self_s"] = busy[name] / rounds

    # Calls that raised carry no result attributes.
    gate = [s for s in spans if s[2] == "cnot.gate_fidelity" and s[6]]
    gate_s = sum(s[5] - s[4] for s in gate)
    evals = sum(s[6]["evals"] for s in gate)
    starts = sum(s[6]["starts"] for s in gate)
    out["cnot.gate_fidelity.ms_p50"] = (
        1e3 * statistics.median(s[5] - s[4] for s in gate) if gate else 0.0
    )
    out["cnot.fidelity_evals"] = evals / rounds
    out["cnot.evals_per_s"] = evals / gate_s if gate_s > 0 else 0.0
    out["cnot.useful_start_frac"] = (
        sum(s[6]["useful"] for s in gate) / starts if starts else 0.0
    )

    # Outer evaluations are the gate_fidelity calls made directly by an
    # optimize_fidelity call; one improves when it beats every earlier
    # evaluation of the same optimize call.
    optimize_ids = {s[0] for s in spans if s[2] == "scenarios.optimize_fidelity"}
    running: dict[int, float] = {}
    outer = improving = 0
    for s in gate:
        if s[1] in optimize_ids:
            outer += 1
            if s[6]["f"] > running.get(s[1], -1.0):
                improving += 1
                running[s[1]] = s[6]["f"]
    out["scenarios.outer_evals"] = sum(
        s[6]["evals"] for s in spans if s[2] == "scenarios.optimize_fidelity" and s[6]
    ) / rounds
    out["scenarios.improving_eval_frac"] = improving / outer if outer else 0.0
    out["serialize.canonical_json.bytes"] = tracer.canonical_bytes / rounds
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name in ("cnot.fidelity_evals", "scenarios.outer_evals"):
        return "count/round"
    if name.endswith(".self_s"):
        return "s/round"
    if name.endswith(".bytes") or name == "cli.report_bytes":
        return "B/round"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("fsq") or name.endswith("fsq_excess_max"):
        return "F2"
    return {"cnot.gate_fidelity.ms_p50": "ms", "cnot.evals_per_s": "1/s",
            "cli.report_digests": "count"}[name]
