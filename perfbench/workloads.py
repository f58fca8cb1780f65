"""The benchmark's workloads: generated inputs, the fixed CLI calls of one
round, and the checks every report must pass.

Every input comes from the workload seed: CLI seeds are drawn from it
and every implementation the CLI evaluates is generated here and written
into a config file.  Budgets and counts are fixed, so two commits run
the same calls.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference
from waylab.cnot import implementation_to_json, pauli
from waylab.conservation import ConservationLaw, commutant_basis, conserving_unitary
from waylab.operators import HilbertSpec
from waylab.sampling import random_conserving_implementation
from waylab.scenarios import build_boson, build_spin
from waylab.serialize import law_to_json

# A reported value may sit this far on the wrong side of a bound or of
# the exact worst-case fidelity before it counts as wrong (the CLI's
# own slack tolerance).
TOL = 1e-9

# Inner search budget of the eval workloads: acceptance criterion 5's.
EVAL_SEARCH = {"restarts": 4, "max_iter": 80}
SMOKE_SEARCH = {"restarts": 1, "max_iter": 10}

BOSON_NBARS = (1.0, 2.0, 4.0)

MAXIMIN = {
    "kind": "spin", "n": 3, "restarts": 0, "max_iter": 30, "polish_steps": 10,
    "search": {"restarts": 4, "max_iter": 80},
}
SMOKE_MAXIMIN = {
    "kind": "spin", "n": 3, "restarts": 0, "max_iter": 3, "polish_steps": 2,
    "search": SMOKE_SEARCH,
}

Score = Callable[[dict[str, Any]], tuple[list[str], dict[str, float]]]


@dataclass
class Call:
    """One CLI invocation of a round and what its report must hold."""

    argv: list[str]
    report: Path
    records: int
    main: bool = True  # counted in call_ms_p50
    score: Score | None = None


@dataclass
class Outcome:
    """What the checks found in one call's report."""

    attempted: int
    failed: int
    problems: list[str]
    values: dict[str, float] = field(default_factory=dict)
    body_digest: str | None = None
    report_bytes: int = 0


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _cli_call(
    workdir: Path, name: str, command: str, config: dict[str, Any], records: int,
    main: bool = True, score: Score | None = None,
) -> Call:
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / f"{name}.json"
    config_path.write_text(json.dumps(config))
    report = workdir / f"{name}-report.json"
    argv = [command, "--config", str(config_path), "--out", str(report), "--quiet"]
    return Call(argv, report, records, main, score)


class _FidelityScore:
    """Compares an eval-impl report's F^2 with the benchmark's reference.

    The reference is exact (hull distance) without an ancilla and an
    estimate from above otherwise; only the exact one can prove the
    report wrong.
    """

    def __init__(self, unitary: np.ndarray, ancilla: np.ndarray):
        self.unitary = unitary
        self.ancilla = ancilla

    @functools.cached_property
    def reference(self) -> float:
        if self.ancilla.size == 1:
            return reference.hull_fsq(self.unitary)
        return reference.descent_fsq(reference.kraus_forms(self.unitary, self.ancilla))

    def __call__(self, report: dict[str, Any]) -> tuple[list[str], dict[str, float]]:
        reported = float(report["summary"]["fidelity_sq"])
        problems = []
        if self.ancilla.size == 1 and reported < self.reference - TOL:
            problems.append(
                f"reported F^2 {reported!r} is below the exact hull value {self.reference!r}"
            )
        return problems, {"fsq_excess": reported - self.reference}


class _MaximinScore:
    """Rescores the coefficients an optimize report names.

    The report's own F^2 is the library's estimate from above; the
    benchmark rebuilds the unitary and scores it with its own search, so
    a more accurate library search cannot read as a worse result.
    """

    def __init__(self) -> None:
        self.cache: dict[tuple[float, ...], float] = {}

    def rescore(self, coefficients: tuple[float, ...]) -> float:
        if coefficients not in self.cache:
            scenario = build_spin(MAXIMIN["n"])
            u = conserving_unitary(commutant_basis(scenario.law), np.array(coefficients))
            forms = reference.kraus_forms(u.entries, scenario.ancilla_state.amplitudes)
            self.cache[coefficients] = reference.descent_fsq(forms)
        return self.cache[coefficients]

    def __call__(self, report: dict[str, Any]) -> tuple[list[str], dict[str, float]]:
        record = report["records"][0]
        best = self.rescore(tuple(float(c) for c in record["coefficients"]))
        return [], {"best_fsq": best, "fsq_excess": float(record["best_fidelity_sq"]) - best}


def bounds_sweep(seed: int, workdir: Path, smoke: bool) -> list[Call]:
    # Several shorter calls per round give each run more latency samples.
    checks, verifies = (1, 1) if smoke else (4, 2)
    triples, models = (8, 4) if smoke else (60, 50)
    seeds = _seeds(seed, checks + verifies)
    calls = [
        _cli_call(workdir, f"check-bounds-{k}", "check-bounds",
                  {"seed": seeds[k], "count": triples}, records=4 * triples)
        for k in range(checks)
    ]
    calls += [
        _cli_call(workdir, f"verify-identities-{k}", "verify-identities",
                  {"seed": seeds[checks + k], "count": models}, records=2 * models, main=False)
        for k in range(verifies)
    ]
    return calls


def _eval_calls(
    workdir: Path, cases: list[tuple[Any, ConservationLaw]], seeds: list[int], search: dict
) -> list[Call]:
    calls = []
    for k, ((impl, law), seed) in enumerate(zip(cases, seeds)):
        config = {
            "implementation": implementation_to_json(impl),
            "law": law_to_json(law),
            "seed": seed,
            "search": search,
        }
        score = _FidelityScore(impl.unitary.entries, impl.ancilla_state.amplitudes)
        # squared-noise, fidelity-link and sigma-ceiling records
        calls.append(_cli_call(workdir, f"eval-{k:02d}", "eval-impl", config, 3, score=score))
    return calls


def eval_d1(seed: int, workdir: Path, smoke: bool) -> list[Call]:
    count = 2 if smoke else 20
    law = ConservationLaw(HilbertSpec((2, 2)), pauli("X"), pauli("X"))
    basis = commutant_basis(law)
    seeds = _seeds(seed, 2 * count)
    cases = [
        (random_conserving_implementation(s, law, basis=basis), law) for s in seeds[:count]
    ]
    return _eval_calls(workdir, cases, seeds[count:], SMOKE_SEARCH if smoke else EVAL_SEARCH)


def eval_boson(seed: int, workdir: Path, smoke: bool) -> list[Call]:
    nbars, per_nbar = (BOSON_NBARS[:1], 1) if smoke else (BOSON_NBARS, 4)
    scenarios = [build_boson(nbar) for nbar in nbars]
    bases = [commutant_basis(sc.law) for sc in scenarios]
    count = per_nbar * len(nbars)
    seeds = _seeds(seed, 2 * count)
    cases = []
    for k in range(count):
        sc, basis = scenarios[k % len(nbars)], bases[k % len(nbars)]
        impl = random_conserving_implementation(
            seeds[k], sc.law, basis=basis, ancilla_state=sc.ancilla_state
        )
        cases.append((impl, sc.law))
    return _eval_calls(workdir, cases, seeds[count:], SMOKE_SEARCH if smoke else EVAL_SEARCH)


def maximin_spin3(seed: int, workdir: Path, smoke: bool) -> list[Call]:
    config = dict(SMOKE_MAXIMIN if smoke else MAXIMIN, seed=_seeds(seed, 1)[0])
    return [_cli_call(workdir, "optimize", "optimize", config, 1, score=_MaximinScore())]


WORKLOADS: dict[str, Callable[[int, Path, bool], list[Call]]] = {
    "bounds-sweep": bounds_sweep,
    "eval-d1": eval_d1,
    "eval-boson": eval_boson,
    "maximin-spin3": maximin_spin3,
}


def body_digest(report: dict[str, Any]) -> str:
    """sha256 of the report without ``header.generated_at``."""
    body = dict(report)
    header = dict(body.get("header", {}))
    header.pop("generated_at", None)
    body["header"] = header
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def inspect(call: Call, exit_code: Any, error: str | None) -> Outcome:
    """Check one call: exit code, exception, record count and verdicts,
    ceiling margins, and the workload's own score.

    An operation is the call itself or one non-advisory record; the call
    fails when any check on it fails, and each failed record fails too.
    """
    problems = []
    if error is not None:
        problems.append(f"exception out of main: {error}")
    elif exit_code != 0:
        problems.append(f"exit code {exit_code!r}")
    try:
        text = call.report.read_text()
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        problems.append(f"no readable report: {exc}")
        return Outcome(1, 1, problems)

    binding: list = []
    failed_records = 0
    values: dict[str, float] = {}
    try:
        records = report["records"]
        binding = [r for r in records if not r.get("advisory")]
        failed_records = sum(1 for r in binding if r.get("passed") is not True)
        if len(records) != call.records:
            problems.append(f"{len(records)} records, config asks for {call.records}")
        for r in records:
            if r.get("min_gap_evaluated", 0.0) < -TOL:
                problems.append(f"min_gap_evaluated {r['min_gap_evaluated']!r} below -{TOL}")
        if call.score is not None:
            found, values = call.score(report)
            problems += found
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    size = len(text.encode())
    csv = call.report.with_suffix(".csv")
    if csv.exists():
        size += csv.stat().st_size
    return Outcome(
        attempted=1 + len(binding),
        failed=(1 if problems else 0) + failed_records,
        problems=problems,
        values=values,
        body_digest=body_digest(report),
        report_bytes=size,
    )
