#!/usr/bin/env python3
"""Self-test of the benchmark: reference scorers, output checks, tracing,
and a smoke-size run of every workload.

    python3 perfbench/selftest.py

Run it from the root of a source checkout.  Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from waylab.cnot import GateImplementation, state_fidelity  # noqa: E402
from waylab.conservation import commutant_basis  # noqa: E402
from waylab.operators import Operator, StateVector  # noqa: E402
from waylab.sampling import random_conserving_implementation  # noqa: E402
from waylab.scenarios import build_boson, build_spin  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / "selftest"


def _haar(seed: int, dim: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _near_cnot(seed: int, strength: float) -> np.ndarray:
    """CNOT followed by exp(-i t H) for a random Hermitian H: the hull of
    the eigenvalues of C^dag U stays clear of the origin for small t."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, v = np.linalg.eigh(h + h.conj().T)
    return reference.CNOT @ (v * np.exp(-1j * strength * w)) @ v.conj().T


def test_hull_and_descent_agree_without_ancilla():
    spin2 = build_spin(2)
    basis = commutant_basis(spin2.law)
    unitaries = [_haar(s) for s in range(10)]
    unitaries += [_near_cnot(s, t) for s in range(5) for t in (0.1, 0.3, 0.6)]
    unitaries += [
        random_conserving_implementation(s, spin2.law, basis=basis).unitary.entries
        for s in range(5)
    ]
    assert sum(reference.hull_fsq(u) > 1e-2 for u in unitaries) >= 5
    for u in unitaries:
        exact = reference.hull_fsq(u)
        found = reference.descent_fsq(reference.kraus_forms(u, np.ones(1)))
        assert abs(exact - found) <= 1e-8, (exact, found)


def test_kraus_forms_match_library_state_fidelity():
    scenario = build_boson(1.0)
    impl = random_conserving_implementation(
        3, scenario.law, ancilla_state=scenario.ancilla_state
    )
    forms = reference.kraus_forms(impl.unitary.entries, impl.ancilla_state.amplitudes)
    rng = np.random.default_rng(0)
    for _ in range(5):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        fsq, _ = reference._fsq(forms, psi[None, :])
        lib = state_fidelity(impl, StateVector(psi)) ** 2
        assert abs(float(fsq[0]) - lib) <= 1e-12, (fsq, lib)


def _report(path: Path, records: list[dict], **summary) -> None:
    path.write_text(json.dumps({
        "schema": 1,
        "header": {"command": "x", "generated_at": "now"},
        "summary": summary,
        "records": records,
    }))


def test_inspect_counts_each_kind_of_failure():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    report = SCRATCH / "report.json"
    ok = {"relation": "r", "passed": True}
    call = workloads.Call(["x"], report, records=2)

    _report(report, [ok, ok])
    assert workloads.inspect(call, 0, None).failed == 0
    assert workloads.inspect(call, 0, None).attempted == 3
    assert workloads.inspect(call, 2, None).failed == 1
    assert workloads.inspect(call, None, "AssertionError: boom").failed == 1

    _report(report, [ok, {"relation": "r", "passed": False}])
    assert workloads.inspect(call, 0, None).failed == 1
    _report(report, [ok, {"relation": "r", "passed": False, "advisory": True}])
    outcome = workloads.inspect(call, 0, None)
    assert (outcome.attempted, outcome.failed) == (2, 0)

    _report(report, [ok])
    assert workloads.inspect(call, 0, None).failed == 1
    _report(report, [ok, dict(ok, min_gap_evaluated=-1e-6)])
    assert workloads.inspect(call, 0, None).failed == 1

    report.unlink()
    outcome = workloads.inspect(call, 0, None)
    assert (outcome.attempted, outcome.failed) == (1, 1)

    # a reported F^2 below the exact hull value is a soundness failure
    u = _near_cnot(0, 0.3)
    exact = reference.hull_fsq(u)
    scored = workloads.Call(["x"], report, 0, score=workloads._FidelityScore(u, np.ones(1)))
    _report(report, [], fidelity_sq=exact - 1e-6)
    assert workloads.inspect(scored, 0, None).failed == 1
    _report(report, [], fidelity_sq=exact + 1e-6)
    outcome = workloads.inspect(scored, 0, None)
    assert outcome.failed == 0 and abs(outcome.values["fsq_excess"] - 1e-6) < 1e-12


def test_body_digest_ignores_only_generated_at():
    a = {"header": {"generated_at": "1", "seed": 1}, "records": [{"x": 1.0}]}
    b = {"header": {"generated_at": "2", "seed": 1}, "records": [{"x": 1.0}]}
    c = {"header": {"generated_at": "1", "seed": 1}, "records": [{"x": 2.0}]}
    assert workloads.body_digest(a) == workloads.body_digest(b) != workloads.body_digest(c)


def test_self_times_subtract_direct_children():
    spans = [
        [0, None, "a", 1, 0.0, 10.0, None],
        [1, 0, "b", 1, 1.0, 4.0, None],
        [2, 1, "c", 1, 2.0, 3.0, None],
        [3, 0, "b", 1, 5.0, 6.0, None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_where_callers_look_up_and_restores():
    import waylab.cli
    import waylab.cnot
    import waylab.scenarios

    original = waylab.cnot.gate_fidelity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = waylab.cnot.gate_fidelity
        assert wrapped is not original
        assert waylab.scenarios.gate_fidelity is wrapped is waylab.cli.gate_fidelity
        impl = GateImplementation(
            build_spin(2).spec, Operator(np.eye(4), unitary=True)
        )
        tracer.recording = True
        waylab.cnot.noise_fidelity_link(impl, build_spin(2).law)
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert waylab.cli.gate_fidelity is original
    names = [s[2] for s in tracer.spans]
    link = names.index("cnot.noise_fidelity_link")
    gate = names.index("cnot.gate_fidelity")
    assert tracer.spans[gate][1] == link
    assert tracer.spans[gate][6]["evals"] > 0
    layers = tracing.layer_metrics(tracer, 1)
    assert layers["cnot.gate_fidelity.calls"] == 1.0
    assert 0.0 < layers["cnot.useful_start_frac"] <= 1.0


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_smoke_runs_report_every_declared_metric():
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            done = _run(workload, trace)
            assert done.returncode == 0, (workload, trace, done.stderr[-2000:])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared[trace], (workload, trace, set(got) ^ set(declared[trace]))
            if trace == 1:
                metrics = {k: m["value"] for k, m in result["metrics"].items()}
                spans = ROOT / ".perfbench" / "spans" / f"{workload}-seed7.jsonl"
                rows = [json.loads(line) for line in spans.read_text().splitlines()]
                assert rows and all(r["end"] >= r["start"] for r in rows)
                if workload == "bounds-sweep":
                    assert metrics["cnot.gate_fidelity.calls"] == 0.0
                if workload == "maximin-spin3":
                    assert metrics["scenarios.best_fsq"] > 0.0


def test_refuses_to_run_without_sources():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("eval-d1", 0, cwd=bare)
        assert done.returncode != 0
        assert "correct" not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception:
            failures += 1
            print(f"FAIL  {name}")
            traceback.print_exc()
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
