"""CLI tests: exit codes, report schema, determinism, error paths.

Commands run in-process through main(argv) so coverage and debuggers
see them; each writes its report into the pytest tmp dir.
"""

import base64
import contextlib
import csv
import io
import itertools
import json
import math
import re
import sys
import tempfile
import time
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import waylab.cli
import waylab.operators
import waylab.scenarios
import waylab.serialize
from waylab import (
    FidelityResult,
    ConservationLaw,
    GateImplementation,
    HilbertSpec,
    SearchConfig,
    cnot_unitary,
    commutant_basis,
    conserving_unitary,
)
from waylab.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from waylab.cnot import implementation_from_json, implementation_to_json, pauli, sigma_ceiling_fsq
from waylab.serialize import digest, law_to_json, model_to_json, operator_to_json
from waylab.measurement import IndirectMeasurementModel
from waylab.operators import MAX_TOTAL_DIM, StateVector
from waylab.sampling import random_conserving_model, random_conserving_models, random_state

from oracles import (
    WIRE_SPOILERS,
    pair_form,
    reference_conserving_model,
    reference_csv,
    reference_descent,
    reference_identity_reports,
    reference_trade_off_reports,
    spoiled_implementation,
)


def run_cli(tmp_path: Path, command: str, config: dict | None = None, *extra: str) -> tuple[int, dict]:
    cfg_path = tmp_path / "config.json"
    out_path = tmp_path / "report.json"
    argv = [command, "--out", str(out_path), "--quiet", *extra]
    if config is not None:
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    code = main(argv)
    report = json.loads(out_path.read_text()) if out_path.exists() else {}
    return code, report


def _conserving_unitary(law: ConservationLaw, seed: int):
    basis = commutant_basis(law)
    return conserving_unitary(basis, np.random.default_rng(seed).standard_normal(basis.generator_count))


def _conserving_impl_json() -> tuple[dict, dict]:
    x = pauli("X")
    spec = HilbertSpec((2, 2))
    law = ConservationLaw(spec, x, x)
    u = _conserving_unitary(law, seed=5)
    impl = GateImplementation(spec, u)
    return implementation_to_json(impl), law_to_json(law)


def _ancilla_impl_and_law() -> tuple[GateImplementation, ConservationLaw]:
    x = pauli("X")
    spec = HilbertSpec((2, 2, 2))
    law = ConservationLaw(spec, x, x, x)
    return GateImplementation(spec, _conserving_unitary(law, seed=5), StateVector.basis(2, 0)), law


def _ancilla_impl_config() -> dict:
    impl, law = _ancilla_impl_and_law()
    return {"implementation": implementation_to_json(impl), "law": law_to_json(law)}


def test_verify_identities_seeded(tmp_path):
    code, report = run_cli(
        tmp_path,
        "verify-identities",
        {"count": 6, "factor_dims": [[2, 2], [2, 2, 2]]},
        "--seed",
        "7",
    )
    assert code == EXIT_OK
    assert report["schema"] == 2
    assert report["header"]["command"] == "verify-identities"
    assert report["header"]["prng"] == "numpy PCG64"
    assert report["header"]["seed"] == 7
    assert report["summary"]["records"] == 12  # two identities per model
    assert report["summary"]["failed"] == 0
    assert all(r["passed"] for r in report["records"])
    assert report["summary"]["worst_slack"] <= 1e-9


def test_report_body_is_deterministic(tmp_path):
    impl_json, law_json = _conserving_impl_json()
    runs = {
        "verify-identities": ({"count": 4}, ["--seed", "11"]),
        "check-bounds": ({"count": 3}, ["--seed", "5"]),
        "boson-check": (
            {"nbars": [1.0], "samples_per": 1, "search": {"restarts": 2, "max_iter": 30}},
            ["--seed", "4"],
        ),
        "positive-control": ({"basis": "z"}, []),
        "optimize": (
            {
                "kind": "spin", "n": 2, "restarts": 0, "max_iter": 4,
                "search": {"restarts": 2, "max_iter": 30},
            },
            ["--seed", "2"],
        ),
        "eval-impl": (
            {"implementation": impl_json, "law": law_json, "search": {"restarts": 2, "max_iter": 30}},
            [],
        ),
    }
    for command, (config, extra) in runs.items():
        bodies = []
        for name in ("a", "b"):
            out = tmp_path / f"{command}-{name}.json"
            code = main(
                [command, "--config", str(_write(tmp_path, config)), "--out", str(out), "--quiet", *extra]
            )
            assert code == EXIT_OK, command
            data = json.loads(out.read_text())
            data["header"].pop("generated_at")
            csv_path = out.with_suffix(".csv")
            csv_text = csv_path.read_text() if csv_path.exists() else None
            bodies.append((json.dumps(data, sort_keys=True), csv_text))
        assert bodies[0] == bodies[1], command


def _write(tmp_path: Path, config: dict) -> Path:
    path = tmp_path / f"cfg-{abs(hash(json.dumps(config, sort_keys=True)))}.json"
    path.write_text(json.dumps(config))
    return path


def test_verify_identities_explicit_model(tmp_path):
    x = pauli("X")
    spec = HilbertSpec((2, 2))
    law = ConservationLaw(spec, x, x)
    u = _conserving_unitary(law, seed=1)
    model = IndirectMeasurementModel(
        spec=spec,
        probe_state=StateVector.basis(2, 0),
        ancilla_state=None,
        interaction=u,
        pointer=pauli("Z"),
        observable=pauli("Z"),
    )
    code, report = run_cli(
        tmp_path,
        "verify-identities",
        {"model": model_to_json(model), "law": law_to_json(law)},
    )
    assert code == EXIT_OK
    assert report["summary"]["records"] == 2


def test_verify_identities_nonconserving_is_input_error(tmp_path, capsys):
    x = pauli("X")
    spec = HilbertSpec((2, 2))
    law = ConservationLaw(spec, x, x)
    model = IndirectMeasurementModel(
        spec=spec,
        probe_state=StateVector.basis(2, 0),
        ancilla_state=None,
        interaction=cnot_unitary(),
        pointer=pauli("Z"),
        observable=pauli("Z"),
    )
    code, _ = run_cli(
        tmp_path,
        "verify-identities",
        {"model": model_to_json(model), "law": law_to_json(law)},
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "residual" in err


def test_check_bounds_with_csv(tmp_path):
    code, report = run_cli(
        tmp_path, "check-bounds", {"count": 5, "factor_dims": [[2, 2]]}, "--seed", "3"
    )
    assert code == EXIT_OK
    assert report["summary"]["records"] == 20  # four relations per triple
    csv_path = tmp_path / "report.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 21
    assert lines[0].startswith("relation,")


def test_eval_impl_perfect_gate(tmp_path):
    impl_json = implementation_to_json(
        GateImplementation(HilbertSpec((2, 2)), cnot_unitary())
    )
    code, report = run_cli(
        tmp_path,
        "eval-impl",
        {"implementation": impl_json, "search": {"restarts": 6, "max_iter": 100}},
    )
    assert code == EXIT_OK
    assert report["summary"]["gate_fidelity"] == pytest.approx(1.0, abs=1e-8)
    # no ancilla: the hull value is exact, so it is its own lower value
    assert report["summary"]["fidelity_sq_lower"] == report["summary"]["fidelity_sq"]
    assert report["summary"]["precision_worst_eps"] <= 1e-12
    assert report["summary"]["disturbance_worst_eta"] <= 1e-12


def test_eval_impl_counts_the_states_its_search_evaluated(tmp_path):
    # search_evaluations is the one search's count, as the descent written
    # out plainly counts it
    config = {**_ancilla_impl_config(), "search": {"restarts": 4, "max_iter": 80}}
    code, report = run_cli(tmp_path, "eval-impl", config, "--seed", "3")
    assert code == EXIT_OK
    impl = implementation_from_json(config["implementation"])
    expected = reference_descent(impl, SearchConfig(restarts=4, max_iter=80, seed=3))[4]
    assert report["summary"]["search_evaluations"] == expected


def test_eval_impl_with_law_emits_bound_records(tmp_path):
    impl_json, law_json = _conserving_impl_json()
    code, report = run_cli(
        tmp_path,
        "eval-impl",
        {
            "implementation": impl_json,
            "law": law_json,
            "search": {"restarts": 6, "max_iter": 100},
        },
    )
    assert code == EXIT_OK
    relations = sorted(r["relation"] for r in report["records"])
    assert relations == ["fidelity-link", "sigma-ceiling", "squared-noise"]
    assert all(r["passed"] for r in report["records"])


def test_eval_impl_checks_unitarity_of_the_implementation_once(tmp_path, monkeypatch):
    # the implementation and each measurement view of it hold the same
    # Operator, so only the first unitarity check forms U^dag U, and the
    # lifts of the one-qubit pointer and observable keep their flags
    # without a full-dimension product
    impl, law = _ancilla_impl_and_law()
    impl_json, law_json = implementation_to_json(impl), law_to_json(law)
    matrix = impl.unitary.entries
    products = []
    defect = waylab.operators._unitarity_defect

    def counting(entries):
        if entries.shape == matrix.shape:
            products.append(np.array_equal(entries, matrix))
        return defect(entries)

    monkeypatch.setattr(waylab.operators, "_unitarity_defect", counting)
    code, report = run_cli(
        tmp_path,
        "eval-impl",
        {"implementation": impl_json, "law": law_json, "search": {"restarts": 2, "max_iter": 20}},
    )
    assert code == EXIT_OK
    assert len(report["records"]) == 3
    assert products == [True]


def test_eval_impl_never_encodes_the_implementation(tmp_path, monkeypatch):
    # the chain's three records share one digest, hashed once per call; it
    # covers the implementation by its unitary's bits, never its text
    impl_json, law_json = _conserving_impl_json()
    matrix = implementation_from_json(impl_json).unitary.entries
    encodes = []
    for encoder in ("_pairs", "_packed"):

        def counting(values, encode=getattr(waylab.serialize, encoder)):
            if values.shape == matrix.shape and np.array_equal(values, matrix):
                encodes.append(1)
            return encode(values)

        monkeypatch.setattr(waylab.serialize, encoder, counting)
    digests = []
    for name, module in list(sys.modules.items()):
        if name.startswith("waylab") and getattr(module, "digest", None) is digest:
            monkeypatch.setattr(module, "digest", lambda **kw: digests.append(1) or digest(**kw))
    code, report = run_cli(
        tmp_path,
        "eval-impl",
        {"implementation": impl_json, "law": law_json, "search": {"restarts": 2, "max_iter": 20}},
    )
    assert code == EXIT_OK
    assert len(report["records"]) == 3
    assert len({r["digest"] for r in report["records"]}) == 1
    assert len(digests) == 1
    assert encodes == []


@pytest.mark.parametrize(
    "spoil",
    [lambda p: p[:1], lambda p: p + [7.0], lambda p: [repr(p[0]), p[1]]],
    ids=["one-number", "three-numbers", "string"],
)
def test_eval_impl_with_malformed_unitary_is_input_error(tmp_path, capsys, spoil):
    # the spoiled pair keeps its numbers, so only the shape or type is wrong
    impl_json, law_json = _conserving_impl_json()
    impl_json = pair_form(impl_json)
    entries = impl_json["unitary"]["entries"]
    entries[0][0] = spoil(entries[0][0])
    code, _ = run_cli(tmp_path, "eval-impl", {"implementation": impl_json, "law": law_json})
    assert code == EXIT_USAGE
    assert "usage error: implementation is not a valid document" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spoil",
    [
        lambda d: {**d, "dtype": "<c8"},
        lambda d: {**d, "shape": [d["shape"][0], d["shape"][1] + 1]},
        lambda d: {k: v for k, v in d.items() if k != "base64"},
        lambda d: {**d, "base64": None},
        lambda d: {**d, "base64": "!" + d["base64"][1:]},
        lambda d: {**d, "base64": d["base64"][:-24]},
    ],
    ids=["dtype", "shape", "missing-base64", "null-base64", "bad-character", "one-entry-short"],
)
def test_eval_impl_with_malformed_packed_unitary_is_input_error(tmp_path, capsys, spoil):
    impl_json, law_json = _conserving_impl_json()
    impl_json["unitary"]["entries"] = spoil(impl_json["unitary"]["entries"])
    code, _ = run_cli(tmp_path, "eval-impl", {"implementation": impl_json, "law": law_json})
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error: implementation is not a valid document" in err and "entries" in err
    assert "Traceback" not in err


def _nan_at(values: np.ndarray, index: tuple[int, ...]) -> dict:
    """``values`` with one NaN entry, in the packed form."""
    spoiled = np.array(values, dtype="<c16")
    spoiled[index] = complex(float("nan"), 0.0)
    return {"dtype": "<c16", "shape": list(spoiled.shape), "base64": base64.b64encode(spoiled).decode()}


@pytest.mark.parametrize("law", [False, True], ids=["no-law", "law"])
@pytest.mark.parametrize("field", ["ancilla_state", "unitary", "ancilla_state-packed", "unitary-packed"])
def test_eval_impl_with_nan_entry_is_input_error(tmp_path, capsys, field, law):
    # json reads the NaN literal; a NaN fails no tolerance comparison, so
    # only an explicit finiteness check stops it, whichever form carries it
    impl, conserved = _ancilla_impl_and_law()
    impl_json = pair_form(implementation_to_json(impl))
    if field == "ancilla_state":
        impl_json["ancilla_state"]["amplitudes"][1] = [float("nan"), 0.0]
    elif field == "unitary":
        impl_json["unitary"]["entries"][0][0] = [float("nan"), 0.0]
    elif field == "ancilla_state-packed":
        impl_json["ancilla_state"]["amplitudes"] = _nan_at(impl.ancilla_state.amplitudes, (1,))
    else:
        impl_json["unitary"]["entries"] = _nan_at(impl.unitary.entries, (0, 0))
    config = {"implementation": impl_json, "search": {"restarts": 2, "max_iter": 20}}
    if law:
        config["law"] = law_to_json(conserved)
    code, _ = run_cli(tmp_path, "eval-impl", config)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error: implementation is not a valid document" in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spoilers", [(name,) for name in WIRE_SPOILERS] + [tuple(WIRE_SPOILERS)], ids=[*WIRE_SPOILERS, "all"]
)
def test_eval_impl_with_unconverted_wire_field_is_input_error(tmp_path, capsys, spoilers):
    # eval-impl exited 0 on each: the decoders converted the field into a valid one
    config = {"implementation": spoiled_implementation(*spoilers), "search": {"restarts": 2, "max_iter": 20}}
    code, _ = run_cli(tmp_path, "eval-impl", config)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error: implementation is not a valid document" in err and "Traceback" not in err


def _wire_configs() -> dict[str, tuple[str, dict, str]]:
    impl, law = _conserving_impl_json()
    search = {"restarts": 1, "max_iter": 5}
    model, model_law = random_conserving_model(3, HilbertSpec((2, 2, 2)))
    model, model_law = model_to_json(model), law_to_json(model_law)
    return {
        "implementation-number": ("eval-impl", {"implementation": 3}, "implementation"),
        "implementation-no-spec": (
            "eval-impl", {"implementation": {}}, "implementation is not a valid document: no field 'spec'"
        ),
        "law-list": ("eval-impl", {"implementation": impl, "law": [1], "search": search}, "law"),
        "model-number": ("verify-identities", {"model": 3, "law": model_law}, "model"),
        "model-null-pointer": ("verify-identities", {"model": {**model, "pointer": None}, "law": model_law}, "model"),
        "law-one-factor": (
            "verify-identities", {"model": model, "law": {**model_law, "spec": {"factor_dims": [2]}}}, "law"
        ),
    }


@pytest.mark.parametrize("case", list(_wire_configs()))
def test_unreadable_wire_document_is_usage_error_naming_its_key(tmp_path, capsys, case):
    # each failed as an input error that named no key: 'int' object is not
    # subscriptable for {"implementation": 3}
    command, config, message = _wire_configs()[case]
    code, report = run_cli(tmp_path, command, config)
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    key = message.split()[0]
    assert f"usage error: {key} is not a valid document" in err and message in err
    assert "Traceback" not in err


def test_eval_impl_requires_implementation(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "eval-impl", {})
    assert code == EXIT_USAGE
    assert "implementation" in capsys.readouterr().err


def test_optimize_spin_small_budget(tmp_path):
    code, report = run_cli(
        tmp_path,
        "optimize",
        {
            "kind": "spin",
            "n": 2,
            "restarts": 0,
            "max_iter": 6,
            "search": {"restarts": 3, "max_iter": 50},
        },
        "--seed",
        "2",
    )
    assert code == EXIT_OK
    record = report["records"][0]
    assert record["relation"] == "ceiling"
    assert record["passed"]
    assert record["ceiling_fsq"] == pytest.approx(15.0 / 16.0)
    assert report["summary"]["best_fidelity_sq"] <= 15.0 / 16.0 + 1e-9
    assert record["best_fidelity_sq_lower"] == record["best_fidelity_sq"]  # n = 2: the exact hull
    assert (tmp_path / "report.csv").exists()


def test_reports_carry_the_certified_lower_value(tmp_path):
    search = {"restarts": 2, "max_iter": 40}
    config = {"kind": "spin", "n": 3, "restarts": 0, "max_iter": 4, "search": search}
    code, report = run_cli(tmp_path, "optimize", config, "--seed", "2")
    assert code == EXIT_OK
    (record,) = report["records"]
    assert 0.0 <= record["best_fidelity_sq_lower"] <= record["best_fidelity_sq"]
    csv_header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert csv_header == "scenario,ceiling_fsq,best_fidelity_sq,gap,min_gap_evaluated,evaluations"

    config = {"nbars": [1.0], "samples_per": 1, "search": search}
    code, report = run_cli(tmp_path, "boson-check", config, "--seed", "4")
    assert code == EXIT_OK
    records = {r["relation"]: r for r in report["records"]}
    details = {relation: r["details"] for relation, r in records.items()}
    lower = details["sigma-ceiling"]["fidelity_sq_lower"]
    assert details["nbar-ceiling"]["fidelity_sq_lower"] == lower
    assert 0.0 <= lower <= records["sigma-ceiling"]["lhs"]  # lhs is the search's F^2
    assert "fidelity_sq_lower" not in details["sigma-l3"]
    assert list(details["sigma-ceiling"]) == sorted(details["sigma-ceiling"])
    # the CSV rows carry the same details as the report's records
    rows = {row["relation"]: row for row in csv.DictReader(io.StringIO((tmp_path / "report.csv").read_text()))}
    for relation, record_details in details.items():
        assert json.loads(rows[relation]["details"]) == record_details


def test_optimize_ceiling_violation_is_reported(tmp_path, monkeypatch):
    # a search claiming F = 1 crosses every finite-size ceiling
    def perfect(impl, config=None):
        return FidelityResult(1.0, 1.0, 0.0, StateVector.basis(4, 0), 1)

    monkeypatch.setattr(waylab.scenarios, "gate_fidelity", perfect)
    code, report = run_cli(
        tmp_path, "optimize", {"kind": "spin", "n": 2, "restarts": 0}, "--seed", "1"
    )
    assert code == EXIT_VIOLATION
    assert report["summary"]["failed"] == 1
    (record,) = report["records"]
    assert record["relation"] == "ceiling"
    assert not record["passed"]
    assert record["fidelity_sq"] == 1.0
    assert record["ceiling_fsq"] == pytest.approx(15.0 / 16.0)
    assert record["slack"] == pytest.approx(-1.0 / 16.0)
    assert len(record["coefficients"]) > 0


def test_optimize_unknown_kind(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "optimize", {"kind": "spherical"}, "--seed", "1")
    assert code == EXIT_USAGE
    assert "spherical" in capsys.readouterr().err


def test_boson_check_advisories_do_not_fail_run(tmp_path):
    code, report = run_cli(
        tmp_path,
        "boson-check",
        {
            "nbars": [1.0],
            "samples_per": 1,
            "search": {"restarts": 2, "max_iter": 40},
        },
        "--seed",
        "4",
    )
    assert code == EXIT_OK
    kinds = [r["relation"] for r in report["records"]]
    assert sorted(kinds) == ["nbar-ceiling", "sigma-ceiling", "sigma-l3"]
    advisory = [r for r in report["records"] if r.get("advisory")]
    assert len(advisory) == 2
    # non-advisory rigorous ceiling must hold
    rigorous = [r for r in report["records"] if r["relation"] == "sigma-ceiling"]
    assert rigorous[0]["passed"]


def test_boson_check_csv_lists_each_implementation_ceiling_first(tmp_path):
    config = {"nbars": [1.0, 2.0], "samples_per": 2, "search": {"restarts": 1, "max_iter": 10}}
    code, report = run_cli(tmp_path, "boson-check", config, "--seed", "4")
    assert code == EXIT_OK
    cells = list(csv.reader(io.StringIO((tmp_path / "report.csv").read_text())))[1:]
    assert [c[0] for c in cells] == ["sigma-ceiling", "sigma-l3", "nbar-ceiling"] * 4
    for i in range(0, 12, 3):
        ceiling, sigma_l3, nbar_ceiling = cells[i : i + 3]
        assert ceiling[5] == sigma_l3[5] == nbar_ceiling[5]
        assert float(ceiling[3]) == sigma_ceiling_fsq(float(sigma_l3[2]))
    assert len({c[5] for c in cells}) == 4
    assert sorted(r["digest"] for r in report["records"]) == sorted(c[5] for c in cells)


def test_boson_check_nearby_nbars_draw_different_implementations(tmp_path, monkeypatch):
    # before, both nbars drew from seed + 1000 and got the same unitaries
    drawn = []
    sample = waylab.cli.random_conserving_implementation

    def recording(*args, **kwargs):
        impl = sample(*args, **kwargs)
        drawn.append(digest(unitary=operator_to_json(impl.unitary)))
        return impl

    monkeypatch.setattr(waylab.cli, "random_conserving_implementation", recording)
    code, _ = run_cli(
        tmp_path,
        "boson-check",
        {"nbars": [1.0, 1.0004], "samples_per": 2, "search": {"restarts": 1, "max_iter": 5}},
        "--seed",
        "4",
    )
    assert code == EXIT_OK
    assert len(drawn) == 4  # nbar 1.0, then nbar 1.0004
    assert not set(drawn[:2]) & set(drawn[2:])


def test_positive_control_bases(tmp_path):
    for basis in ("x", "z", "scalar", "X"):
        code, report = run_cli(tmp_path, "positive-control", {"basis": basis})
        assert code == EXIT_OK, basis
        assert report["header"]["config"]["basis"] == basis.lower()
        assert report["summary"]["records"] == 3
        assert report["summary"]["worst_slack"] <= 1e-9
    code, _ = run_cli(tmp_path, "positive-control", {"basis": "y"})
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("positive-control", {"tol": float("nan")}, ()),
        ("positive-control", {"tol": float("inf")}, ()),
        ("check-bounds", {"count": 2}, ("--seed", "1", "--tol", "nan")),
    ],
    ids=["config-nan", "config-infinity", "flag-nan"],
)
def test_non_finite_tol_is_usage_error(tmp_path, capsys, command, config, flags):
    # a NaN tolerance fails every record and an infinite one passes every
    # record, so either would turn the exit code into noise
    code, report = run_cli(tmp_path, command, config, *flags)
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error" in err and "tol" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval-impl", "boson-check", "optimize"])
@pytest.mark.parametrize(
    "search, key",
    [
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"tol": -1e-3}, "tol"),
        ({"max_iter": -1}, "max_iter"),
        ({"restarts": 2.5}, "restarts"),
        ({"include_seed_states": "false"}, "include_seed_states"),
        ({"include_seed_states": 0}, "include_seed_states"),
        ({"seed": True}, "seed"),
        ({"seed": 2.0}, "seed"),
    ],
    ids=[
        "tol-nan", "tol-infinity", "tol-negative", "max-iter-negative", "restarts-fraction",
        "seed-states-string", "seed-states-integer", "seed-bool", "seed-float",
    ],
)
def test_bad_search_block_is_usage_error(tmp_path, capsys, command, search, key):
    # a NaN tol never stops the descent early and a negative max_iter
    # runs no descent step; neither left a trace in the report.  Every
    # search has its seed states, so the retired include_seed_states is
    # refused as a key SearchConfig does not have
    config: dict = {"search": search}
    if command == "eval-impl":
        config["implementation"] = implementation_to_json(_ancilla_impl_and_law()[0])
    code, report = run_cli(tmp_path, command, config, "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error" in err and f"search {key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [2.5, "5", True, -3], ids=["fraction", "string", "bool", "negative"])
@pytest.mark.parametrize(
    "command, key",
    [
        ("check-bounds", "count"),
        ("verify-identities", "count"),
        ("boson-check", "samples_per"),
        ("optimize", "restarts"),
        ("optimize", "max_iter"),
    ],
)
def test_bad_count_is_usage_error(tmp_path, capsys, command, key, value):
    # int() would truncate 2.5 and accept "5" and true; a negative count
    # ended in numpy's "negative dimensions are not allowed"
    code, report = run_cli(tmp_path, command, {key: value}, "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error" in err and f"{key} must be a nonnegative integer" in err
    assert "Traceback" not in err


def test_huge_count_draws_each_case_seed_when_its_case_is_reached(tmp_path, capsys, monkeypatch):
    # at the largest count allowed, seeds are still drawn one chunk at a
    # time, each when its chunk is reached, so the second chunk's input
    # error ends the run before more seeds are drawn
    pulled, calls = [], []
    case_seeds = waylab.cli._case_seeds

    def counting(seed, count):
        for case_seed in case_seeds(seed, count):
            pulled.append(case_seed)
            yield case_seed

    def second_fails(seeds, specs):
        calls.append((len(seeds), len(pulled)))
        if len(calls) == 2:
            raise ValueError("second chunk refused")
        return random_conserving_models(seeds, specs)

    monkeypatch.setattr(waylab.cli, "_case_seeds", counting)
    monkeypatch.setattr(waylab.cli, "random_conserving_models", second_fails)
    code, report = run_cli(tmp_path, "check-bounds", {"count": waylab.cli.MAX_CASES}, "--seed", "1")
    assert code == EXIT_USAGE and report == {}
    chunk = waylab.cli.CASES_PER_CHUNK
    assert calls == [(chunk, chunk), (chunk, 2 * chunk)]
    err = capsys.readouterr().err
    assert "input error" in err and "second chunk refused" in err
    assert "MemoryError" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, key",
    [("check-bounds", "count"), ("verify-identities", "count"), ("boson-check", "samples_per")],
)
@pytest.mark.parametrize("excess", [1, 10**18])
def test_case_count_above_the_cap_is_a_usage_error_before_any_seed(tmp_path, capsys, monkeypatch, command, key, excess):
    # every report stays in memory until the last case, so a count past
    # MAX_CASES is refused before a case seed is drawn; 10**18 ran on
    # until it was killed
    pulled = []
    case_seeds = waylab.cli._case_seeds
    monkeypatch.setattr(waylab.cli, "_case_seeds", lambda seed, count: pulled.append(count) or case_seeds(seed, count))
    value = waylab.cli.MAX_CASES + excess
    code, report = run_cli(tmp_path, command, {key: value}, "--seed", "1")
    assert code == EXIT_USAGE and report == {}
    assert pulled == []
    err = capsys.readouterr().err
    assert "usage error" in err and f"{key} must be at most {waylab.cli.MAX_CASES}, got {value}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "entries, samples",
    [(waylab.cli.MAX_CASES + 1, 1), (2, waylab.cli.MAX_CASES // 2 + 1), (waylab.cli.MAX_CASES + 1, 0)],
)
def test_boson_check_total_case_count_above_the_cap_is_a_usage_error(tmp_path, capsys, monkeypatch, entries, samples):
    # the cap is on len(nbars) x samples_per, each nbar counting at least
    # once (it builds its scenario and basis): refused before any is built
    built = []
    monkeypatch.setattr(waylab.cli, "build_boson", lambda *a: built.append(a))
    code, report = run_cli(tmp_path, "boson-check", {"nbars": [1.0] * entries, "samples_per": samples}, "--seed", "1")
    assert code == EXIT_USAGE and report == {} and built == []
    err = capsys.readouterr().err
    assert "usage error" in err and f"must be at most {waylab.cli.MAX_CASES} cases" in err
    assert "Traceback" not in err


def test_boson_check_at_the_case_cap_reaches_its_scenarios(tmp_path, capsys, monkeypatch):
    # exactly MAX_CASES cases pass the cap: the first scenario is built
    def refusing(*args):
        raise ValueError("first scenario reached")

    monkeypatch.setattr(waylab.cli, "build_boson", refusing)
    config = {"nbars": [1.0, 2.0], "samples_per": waylab.cli.MAX_CASES // 2}
    code, report = run_cli(tmp_path, "boson-check", config, "--seed", "1")
    assert code == EXIT_USAGE and report == {}
    assert "input error: first scenario reached" in capsys.readouterr().err


CHUNK_LAYOUTS = [[2, 2], [3, 2], [2, 2, 2, 2]]


@pytest.mark.parametrize(
    "command, count",
    [("check-bounds", n) for n in (0, 1, 64, 65, 130)] + [("verify-identities", 65)],
)
def test_chunked_cases_give_the_records_of_the_per_case_oracle(tmp_path, command, count):
    # across chunk boundaries the records are those of the models the
    # per-case oracle draws from the same case seeds: digests, floats,
    # order and CSV
    code, report = run_cli(tmp_path, command, {"count": count, "factor_dims": CHUNK_LAYOUTS}, "--seed", "5")
    assert code == EXIT_OK
    specs = itertools.cycle([HilbertSpec(tuple(dims)) for dims in CHUNK_LAYOUTS])
    oracle = []
    for case_seed, spec in zip(waylab.cli._case_seeds(5, count), specs):
        model, law, _ = reference_conserving_model(case_seed, spec)
        if command == "check-bounds":
            psi = random_state(np.random.default_rng(case_seed + 1), spec.object_dim)
            oracle += reference_trade_off_reports(model, law, psi)
        else:
            oracle += reference_identity_reports(model, law)
    tol = waylab.cli.DEFAULT_TOL
    passed = {"identity": lambda slack: slack <= tol, "inequality": lambda slack: slack >= -tol}
    records = sorted(
        ({**r, "passed": passed[r["kind"]](r["slack"])} for r in oracle),
        key=lambda r: (r["digest"], r["relation"]),
    )
    assert len(report["records"]) == len(records) == count * (4 if command == "check-bounds" else 2)
    for got, want in zip(report["records"], records):  # one record at a time keeps a failure's diff small
        assert json.dumps(got) == json.dumps(want)
    if command == "check-bounds":
        got_rows = (tmp_path / "report.csv").read_text().splitlines()
        want_rows = reference_csv(oracle).splitlines()
        assert len(got_rows) == len(want_rows)
        for got, want in zip(got_rows, want_rows):
            assert got == want


def test_chunk_size_bounds_every_stack(tmp_path, monkeypatch):
    # the rule on its arithmetic: the largest layout, (2,)*12, holds one
    # case, the default layouts a full chunk, and no stack of total-space
    # matrices exceeds one case's matrix or CHUNK_ENTRIES, so none is
    # larger than the largest one-case matrix there is
    chunk_cases = waylab.cli._chunk_cases
    assert chunk_cases(HilbertSpec((2,) * 12).total_dim) == 1
    assert chunk_cases(16) == waylab.cli.CASES_PER_CHUNK
    for n in range(1, MAX_TOTAL_DIM + 1):
        m = chunk_cases(n)
        assert 1 <= m <= waylab.cli.CASES_PER_CHUNK
        assert m * n * n <= max(n * n, waylab.cli.CHUNK_ENTRIES) <= MAX_TOTAL_DIM**2
    # the randomized commands size their chunks by their largest layout
    sizes = []
    sample = waylab.cli.random_conserving_models
    monkeypatch.setattr(waylab.cli, "random_conserving_models", lambda s, p: sizes.append(len(s)) or sample(s, p))
    code, report = run_cli(tmp_path, "verify-identities", {"count": 20, "factor_dims": [[2, 2], [2] * 6]}, "--seed", "3")
    assert code == EXIT_OK and report["summary"]["records"] == 40
    assert sizes == [chunk_cases(64)] + [20 - chunk_cases(64)] == [16, 4]


@pytest.mark.parametrize(
    "seed", [1, 11, 20021017, np.random.SeedSequence(14).spawn(2)[1]], ids=["1", "11", "20021017", "spawned"]
)
def test_case_seeds_drawn_one_at_a_time_match_the_batched_draw(seed):
    # the reports' case seeds, and so their bytes, are those of one batched draw
    batched = np.random.default_rng(seed).integers(0, 2**62, size=7)
    assert list(waylab.cli._case_seeds(seed, 7)) == [int(s) for s in batched]


def _explicit_model_config() -> dict:
    model, law = random_conserving_model(1, HilbertSpec((2, 2)))
    return {"model": model_to_json(model), "law": law_to_json(law)}


def _body_text(path: Path) -> str:
    """The report file's text without its ``generated_at`` field."""
    text, count = re.subn(r'"generated_at": "[^"]*", ', "", path.read_text())
    assert count == 1
    return text


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("eval-impl", _ancilla_impl_config(), ["--seed", "3"]),
        ("verify-identities", _explicit_model_config(), []),
    ],
    ids=["eval-impl", "verify-identities"],
)
def test_pair_and_packed_inputs_give_identical_reports(tmp_path, command, config, flags):
    # every document packed, every one in pairs, and each mixture
    first, second = config
    forms = {
        "packed": config,
        "pairs": pair_form(config),
        f"pair-{first}": {**config, first: pair_form(config[first])},
        f"pair-{second}": {**config, second: pair_form(config[second])},
    }
    assert "base64" in json.dumps(config) and "base64" not in json.dumps(forms["pairs"])
    search = {"search": {"restarts": 2, "max_iter": 20}} if command == "eval-impl" else {}
    bodies = {}
    for name, documents in forms.items():
        out = tmp_path / f"{name}.json"
        argv = [command, "--config", str(_write(tmp_path, {**documents, **search})), "--out", str(out), "--quiet"]
        assert main(argv + flags) == EXIT_OK, name
        csv_path = out.with_suffix(".csv")
        bodies[name] = (_body_text(out), csv_path.read_text() if csv_path.exists() else None)
        assert json.loads(out.read_text())["records"][0]["digest"]
    assert all(body == bodies["packed"] for body in bodies.values()), bodies.keys()


@pytest.mark.parametrize("value", [1.5, True, "7", -1], ids=["fraction", "bool", "string", "negative"])
@pytest.mark.parametrize(
    "command, key, config, flags",
    [
        ("check-bounds", "seed", {"count": 2}, []),
        ("verify-identities", "seed", {"count": 2}, []),
        ("verify-identities", "seed", _explicit_model_config(), []),
        ("eval-impl", "seed", {"implementation": _conserving_impl_json()[0]}, []),
        ("optimize", "n", {"restarts": 0, "max_iter": 2}, ["--seed", "3"]),
    ],
    ids=["check-bounds", "verify-identities", "verify-identities-explicit", "eval-impl", "optimize-n"],
)
def test_bad_integer_is_usage_error(tmp_path, capsys, command, key, config, flags, value):
    # int() truncated 1.5 and took true and "7": check-bounds with seed
    # 1.5 reported seed 1, and optimize with n 2.9 ran spin-n2; a
    # negative seed ended in numpy's error or, where no draw used it,
    # went into the report
    code, report = run_cli(tmp_path, command, {**config, key: value}, *flags)
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error" in err and f"{key} must be a nonnegative integer" in err
    assert "Traceback" not in err


def test_report_config_lists_every_setting(tmp_path):
    # optimize left out n, nbar, tail_tol, initial_points and the inner
    # search's tol and seed, and the eval-impl and boson-check search
    # blocks left out tol: runs that differed only there wrote the same
    # block
    search = {"restarts": 1, "max_iter": 5, "tol": 1e-8}
    outer = {"restarts": 0, "max_iter": 2, "search": search}
    code, report = run_cli(tmp_path, "optimize", {"kind": "spin", "n": 2, **outer}, "--seed", "2")
    assert code == EXIT_OK
    assert report["header"]["config"] == {
        "kind": "spin", "restarts": 0, "max_iter": 2, "seed": 2,
        "inner": {**search, "seed": 2}, "initial_points": [], "n": 2,
    }
    boson = {"kind": "boson", "nbar": 0.25, "tail_tol": 1e-3, **outer}
    code, report = run_cli(tmp_path, "optimize", boson, "--seed", "2")
    assert code == EXIT_OK
    assert report["header"]["config"]["nbar"] == 0.25
    assert report["header"]["config"]["tail_tol"] == 1e-3
    impl_json, _ = _conserving_impl_json()
    config = {"implementation": impl_json, "search": search}
    code, report = run_cli(tmp_path, "eval-impl", config, "--seed", "5")
    assert code == EXIT_OK
    assert report["header"]["config"]["search"] == {**search, "seed": 5}
    config = {"nbars": [0.25], "samples_per": 1, "tail_tol": 1e-3, "search": search}
    code, report = run_cli(tmp_path, "boson-check", config, "--seed", "4")
    assert code == EXIT_OK
    assert report["header"]["config"]["search"] == {**search, "seed": 4}


def test_retired_polish_steps_is_ignored(tmp_path):
    # the compass polish is gone, but the benchmark's maximin workload still
    # sends its budget: optimize declares the key retired, accepts any value
    # and drops it, where any other undeclared key is a usage error
    config = {"kind": "spin", "n": 2, "restarts": 0, "max_iter": 2, "polish_steps": 10,
              "search": {"restarts": 1, "max_iter": 5}}
    code, report = run_cli(tmp_path, "optimize", config, "--seed", "2")
    assert code == EXIT_OK
    assert "polish_steps" not in report["header"]["config"]


@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
@pytest.mark.parametrize(
    "command, config, name",
    [
        ("check-bounds", lambda v: {"count": 2, "tol": v}, "tol"),
        ("eval-impl", lambda v: {"implementation": _conserving_impl_json()[0], "tol": v}, "tol"),
        ("eval-impl", lambda v: {"implementation": _conserving_impl_json()[0], "search": {"tol": v}},
         "search tol"),
        ("optimize", lambda v: {"kind": "boson", "nbar": v}, "nbar"),
        ("optimize", lambda v: {"kind": "boson", "tail_tol": v}, "tail_tol"),
        ("boson-check", lambda v: {"nbars": [1.0, v]}, "nbars entry"),
        ("boson-check", lambda v: {"strength": v}, "strength"),
        ("boson-check", lambda v: {"tail_tol": v}, "tail_tol"),
    ],
    ids=[
        "check-bounds-tol", "eval-impl-tol", "eval-impl-search-tol", "optimize-nbar",
        "optimize-tail-tol", "boson-check-nbars", "boson-check-strength", "boson-check-tail-tol",
    ],
)
def test_bad_real_is_usage_error(tmp_path, capsys, command, config, name, value):
    # float() took true as 1.0 and parsed "0.5": check-bounds with tol
    # true exited 0 reporting tol 1.0
    code, report = run_cli(tmp_path, command, config(value), "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error" in err and f"{name} must be a number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("nbar", [float("nan"), float("inf"), 1e6], ids=["nan", "infinity", "huge"])
@pytest.mark.parametrize(
    "command, config",
    [("optimize", lambda v: {"kind": "boson", "nbar": v}), ("boson-check", lambda v: {"nbars": [v]})],
    ids=["optimize", "boson-check"],
)
def test_unusable_nbar_is_input_error(tmp_path, capsys, command, config, nbar):
    # infinity and 1e6 escaped main as a RuntimeError traceback from
    # poisson_cutoff, and NaN failed only inside StateVector
    code, report = run_cli(tmp_path, command, config(nbar), "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("strength", [float("inf"), float("nan")], ids=["infinity", "nan"])
def test_non_finite_strength_is_usage_error(tmp_path, capsys, strength):
    # both reached the sampled generator: numpy warned, and the run ended
    # with "Eigenvalues did not converge", or a RuntimeWarning traceback
    # when warnings are errors
    config = {"nbars": [1.0], "samples_per": 1, "strength": strength, "search": {"restarts": 1, "max_iter": 5}}
    code, report = run_cli(tmp_path, "boson-check", config, "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error: strength must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "strength", [1e308, -1e308, 2 * waylab.cli.MAX_STRENGTH], ids=["huge", "negative", "twice-cap"]
)
def test_strength_whose_draws_can_overflow_is_usage_error(tmp_path, capsys, strength):
    # finite, but its product with a standard normal overflowed to infinity:
    # a RuntimeWarning traceback when warnings are errors
    config = {"nbars": [1.0], "samples_per": 1, "strength": strength, "search": {"restarts": 1, "max_iter": 5}}
    code, report = run_cli(tmp_path, "boson-check", config, "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error: strength must be finite and at most" in err
    assert "Traceback" not in err
    # the cap itself is a valid draw
    config["strength"] = -waylab.cli.MAX_STRENGTH
    code, report = run_cli(tmp_path, "boson-check", config, "--seed", "3")
    assert code != EXIT_USAGE and report["header"]["config"]["strength"] == -waylab.cli.MAX_STRENGTH


def test_negative_strength_is_a_valid_draw(tmp_path):
    config = {"nbars": [1.0], "samples_per": 1, "strength": -0.5, "search": {"restarts": 1, "max_iter": 5}}
    code, report = run_cli(tmp_path, "boson-check", config, "--seed", "3")
    assert code == EXIT_OK
    assert report["header"]["config"]["strength"] == -0.5


@pytest.mark.parametrize(
    "entry", [float("inf"), float("nan"), "1", True], ids=["infinity", "nan", "string", "bool"]
)
def test_bad_initial_point_entry_is_usage_error(tmp_path, capsys, entry):
    # infinity, "1" and true ran to exit 0, and the report header then
    # carried a bare Infinity; NaN failed later as "operator entries must be finite"
    config = {"kind": "spin", "n": 2, "restarts": 0, "max_iter": 1,
              "initial_points": [[0.5, 0, 0, 0, 0, 0], [entry, 0, 0, 0, 0, 0]]}
    code, report = run_cli(tmp_path, "optimize", config, "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error" in err and "initial_points entr" in err
    assert "Traceback" not in err


def test_initial_points_are_reported_as_given(tmp_path):
    points = [[1, 0, 0, 0, 0, -2.5]]
    config = {"kind": "spin", "n": 2, "restarts": 0, "max_iter": 1, "initial_points": points}
    code, report = run_cli(tmp_path, "optimize", config, "--seed", "3")
    assert code == EXIT_OK
    assert report["header"]["config"]["initial_points"] == points
    assert isinstance(report["header"]["config"]["initial_points"][0][0], int)


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("positive-control", {}, ["--seed", "3"]),
        ("positive-control", {}, ["--restarts", "5"]),
        ("optimize", {"kind": "spin", "n": 2, "restarts": 0, "max_iter": 1}, ["--tol", "5", "--seed", "1"]),
        ("check-bounds", {"count": 2}, ["--restarts", "2", "--seed", "1"]),
        ("verify-identities", {"count": 2}, ["--restarts", "2", "--seed", "1"]),
    ],
    ids=["positive-control-seed", "positive-control-restarts", "optimize-tol",
         "check-bounds-restarts", "verify-identities-restarts"],
)
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys, command, config, flags):
    # each ran to exit 0 with the flag ignored: positive-control reported
    # "seed": null, and optimize judged its record at 1e-9 whatever --tol said
    code, report = run_cli(tmp_path, command, config, *flags)
    assert code == EXIT_USAGE
    assert report == {}
    assert f"usage error: {command} does not read {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, dims",
    [
        ("optimize", {"kind": "boson", "nbar": 1e4}, (2, 2, 10644)),
        ("boson-check", {"nbars": [1e4]}, (2, 2, 10644)),
        ("optimize", {"kind": "spin", "n": 16}, (2,) * 16),
        ("check-bounds", {"count": 2, "factor_dims": [[64, 64, 64]]}, (64, 64, 64)),
    ],
    ids=["optimize-nbar", "boson-check-nbar", "optimize-spin", "check-bounds-dims"],
)
def test_space_past_the_dense_limit_is_input_error(tmp_path, capsys, command, config, dims):
    # nbar 1e4 asked for a 42 576-dimensional space, about 27 GiB per dense
    # matrix.  The guard runs first, so code without the limit fails here
    # instead of allocating.
    with pytest.raises(ValueError, match="dense limit"):
        HilbertSpec(dims)
    code, report = run_cli(tmp_path, command, config, "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "input error" in err and "exceeds the dense limit 4096" in err


@pytest.mark.parametrize(
    "command, config",
    [
        ("boson-check", {"nbars": [1.0], "samples_per": 1}),
        ("eval-impl", _ancilla_impl_config()),
        ("optimize", {"kind": "spin", "n": 2, "restarts": 0, "max_iter": 1}),
    ],
    ids=["boson-check", "eval-impl", "optimize"],
)
def test_restarts_past_the_dense_limit_is_input_error(tmp_path, capsys, command, config):
    # boson-check and eval-impl died in an uncaught numpy MemoryError
    # ("Unable to allocate 6.94 EiB"): each start is a row of the descent
    search = {"search": {"restarts": 10**18, "max_iter": 10}}
    code, report = run_cli(tmp_path, command, {**config, **search}, "--seed", "1")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "input error" in err and "restarts must lie in [0, 4096]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("restarts, max_iter", [(10**18, 1), (100000, 0)], ids=["huge", "past-the-cap"])
def test_outer_restarts_past_the_dense_limit_is_input_error(tmp_path, capsys, monkeypatch, restarts, max_iter):
    # optimize's own starts had no cap, and both configs ran until a
    # 10 s timeout stopped them: they take a search's cap and message,
    # refused before the commutant basis is built
    built = []
    basis = waylab.scenarios.commutant_basis
    monkeypatch.setattr(waylab.scenarios, "commutant_basis", lambda law: built.append(law) or basis(law))
    config = {"kind": "spin", "n": 2, "restarts": restarts, "max_iter": max_iter, "search": {"restarts": 1, "max_iter": 2}}
    start = time.perf_counter()
    code, report = run_cli(tmp_path, "optimize", config, "--seed", "2")
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_USAGE and report == {} and built == []
    err = capsys.readouterr().err
    assert f"input error: restarts must lie in [0, 4096], got {restarts}" in err
    assert "Traceback" not in err


def test_integer_past_the_digit_limit_is_usage_error(tmp_path, capsys):
    # json.loads refuses an integer of more than 4300 digits with a plain
    # ValueError (Python 3.11 and later 3.10 patches), which exited as an
    # input error naming neither the key nor the file; where there is no
    # such limit, the count cap refuses it, so the message is not pinned
    path = tmp_path / "config.json"
    path.write_text('{"count": 1' + "0" * 5000 + "}")
    code = main(["check-bounds", "--seed", "1", "--config", str(path), "--out", str(tmp_path / "report.json"), "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and "usage error" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


HUGE = 10**400  # a JSON integer past the largest double


@pytest.mark.parametrize(
    "command, config",
    [
        ("optimize", {"kind": "boson", "nbar": HUGE}),
        ("check-bounds", {"count": 2, "tol": HUGE}),
        ("boson-check", {"nbars": [1.0, HUGE], "samples_per": 1}),
        ("optimize", {"kind": "spin", "n": 2, "initial_points": [[HUGE, 0, 0, 0, 0, 0]]}),
        ("optimize", {"kind": "spin", "n": HUGE}),
    ],
    ids=["optimize-nbar", "check-bounds-tol", "boson-check-nbars", "initial-points", "spin-n"],
)
def test_integer_past_a_double_is_refused(tmp_path, capsys, command, config):
    # float() of such an integer raised OverflowError, which main let
    # through as a traceback
    code, report = run_cli(tmp_path, command, config, "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert len(err) < 300


def test_spin_n_past_the_dense_limit_is_refused_with_a_short_message(tmp_path, capsys):
    # n = 10**6 took 21.6 s and printed every one of its factors
    code, report = run_cli(tmp_path, "optimize", {"kind": "spin", "n": 10**6}, "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "input error" in err and "exceeds the dense limit 4096" in err
    assert len(err) < 300


def test_optimize_judges_the_ceiling_with_one_named_tolerance(tmp_path, monkeypatch):
    config = {"kind": "spin", "n": 2, "restarts": 0, "max_iter": 2}
    code, report = run_cli(tmp_path, "optimize", config, "--seed", "3")
    assert code == EXIT_OK
    assert report["records"][0]["slack"] >= -waylab.scenarios.CEILING_TOL
    # the optimizer raises at the named tolerance: demanding a margin of 1
    # turns the first evaluation into a violation witness
    monkeypatch.setattr(waylab.scenarios, "CEILING_TOL", -1.0)
    code, report = run_cli(tmp_path, "optimize", config, "--seed", "3")
    assert code == EXIT_VIOLATION
    assert report["records"][0]["relation"] == "ceiling"
    assert report["records"][0]["passed"] is False


@pytest.mark.parametrize("command", ["check-bounds", "verify-identities"])
@pytest.mark.parametrize(
    "row", [[2.7, 2], ["2", 2], [True, 2], [2, 0], [2], []],
    ids=["fraction", "string", "bool", "zero", "one-entry", "empty"],
)
def test_bad_factor_dims_is_usage_error(tmp_path, capsys, command, row):
    # int() truncated 2.7 and took "2" and true: check-bounds exited 0
    # with factor_dims [[2, 2]] or [[2, 1]] in its header; a row without
    # object and probe factors failed as an input error naming no key
    config = {"count": 2, "factor_dims": [[2, 2], row]}
    code, report = run_cli(tmp_path, command, config, "--seed", "3")
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error" in err and "factor_dims" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, config, message",
    [
        # dict() read an array of pairs as a search block and ran with restarts 3
        ("optimize", {"search": [["restarts", 3], ["max_iter", 5]]}, "search must be a JSON object"),
        ("optimize", {"search": None}, "search must be a JSON object"),
        ("optimize", {"initial_points": [1, 2]}, "initial_points entry must be a list"),
        ("boson-check", {"nbars": 3}, "nbars must be a list"),
        # iterating these failed as an input error: 'int' object is not iterable
        ("check-bounds", {"factor_dims": 3}, "factor_dims must be a list"),
        ("check-bounds", {"factor_dims": [3]}, "factor_dims entry must be a list"),
        ("verify-identities", {"factor_dims": [[2, 2], 2]}, "factor_dims entry must be a list"),
        # str() read null as "None" and a list as "['spin']"
        ("optimize", {"kind": None}, "kind must be a string"),
        ("optimize", {"kind": ["spin"]}, "kind must be a string"),
        ("positive-control", {"basis": 3}, "basis must be a string"),
    ],
    ids=["search-pairs", "search-null", "initial-points-numbers", "nbars-number",
         "factor-dims-number", "factor-dims-numbers", "factor-dims-mixed",
         "kind-null", "kind-list", "basis-number"],
)
def test_config_container_of_the_wrong_kind_is_usage_error(tmp_path, capsys, command, config, message):
    # checked rather than converted or iterated: null and a number failed as
    # an input error that did not name the key
    flags = () if command == "positive-control" else ("--seed", "3")
    code, report = run_cli(tmp_path, command, config, *flags)
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert "usage error" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("check-bounds", {"cuont": 3, "count": 1}, "cuont"),
        ("verify-identities", {"count": 1, "samples_per": 1}, "samples_per"),
        ("eval-impl", {**_ancilla_impl_config(), "serach": {"restarts": 1}}, "serach"),
        ("boson-check", {"nbarz": [1.0], "samples_per": 1}, "nbarz"),
        ("optimize", {"kind": "spin", "n": 2, "max_iterr": 1}, "max_iterr"),
        ("optimize", {"kind": "spin", "n": 2, "nbar": "x"}, "nbar"),
        ("optimize", {"kind": "spin", "n": 2, "tail_tol": -5}, "tail_tol"),
        ("optimize", {"kind": "boson", "n": 2}, "n"),
        ("positive-control", {"basis": "x", "seed": 3}, "seed"),
    ],
    ids=["check-bounds", "verify-identities", "eval-impl", "boson-check", "optimize",
         "spin-nbar", "spin-tail-tol", "boson-n", "positive-control"],
)
def test_unknown_config_key_is_usage_error_naming_it(tmp_path, capsys, command, config, key):
    # each was read as nothing: {"cuont": 3, "count": 1} ran to exit 0, and a
    # spin optimize took the boson kind's nbar and tail_tol whatever they held
    flags = () if command == "positive-control" else ("--seed", "1")
    code, report = run_cli(tmp_path, command, config, *flags)
    assert code == EXIT_USAGE
    assert report == {}
    err = capsys.readouterr().err
    assert f"usage error: {key} is not read by {command}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval-impl", "boson-check"])
def test_restarts_flag_overrides_the_search_block(tmp_path, monkeypatch, command):
    config: dict = {"search": {"restarts": 2, "max_iter": 5}}
    if command == "eval-impl":
        config["implementation"] = implementation_to_json(_ancilla_impl_and_law()[0])
    else:
        config.update(nbars=[1.0], samples_per=1)
    searches = []
    search = waylab.cli.gate_fidelity
    monkeypatch.setattr(
        waylab.cli, "gate_fidelity", lambda impl, cfg: searches.append(cfg) or search(impl, cfg)
    )
    code, report = run_cli(tmp_path, command, config, "--seed", "4", "--restarts", "3")
    assert code == EXIT_OK
    assert [(s.restarts, s.max_iter, s.seed) for s in searches] == [(3, 5, 4)]
    assert report["header"]["config"]["search"] == {"restarts": 3, "max_iter": 5, "tol": 1e-10, "seed": 4}


def test_stdout_lists_violations(tmp_path, capsys, monkeypatch):
    def perfect(impl, config=None):
        return FidelityResult(1.0, 1.0, 0.0, StateVector.basis(4, 0), 1)

    monkeypatch.setattr(waylab.scenarios, "gate_fidelity", perfect)
    config = _write(tmp_path, {"kind": "spin", "n": 2, "restarts": 0})
    code = main(["optimize", "--seed", "1", "--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_VIOLATION
    stdout = capsys.readouterr().out
    assert "optimize: 0/1 records passed -> FAIL" in stdout
    assert "[waylab]   violation: ceiling slack=-6.250e-02 digest=None" in stdout


def test_randomized_commands_require_seed(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "verify-identities", {"count": 2})
    assert code == EXIT_USAGE
    assert "seed" in capsys.readouterr().err


def test_malformed_config_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"count": 2,\n  "oops"\n}')
    code = main(["verify-identities", "--config", str(bad), "--quiet"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "at line 3, column 1" in err


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("check-bounds", [1, 2], "config root must be a JSON object, got list"),
        ("check-bounds", None, "cannot read config"),
        ("verify-identities", {"model": _explicit_model_config()["model"]}, 'needs both "model" and "law"'),
    ],
    ids=["root-list", "unreadable-path", "model-without-law"],
)
def test_unusable_config_is_usage_error(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"  # with no config, a path that does not exist
    if config is not None:
        path.write_text(json.dumps(config))
    code = main([command, "--config", str(path), "--seed", "3", "--out", str(tmp_path / "r.json"), "--quiet"])
    assert code == EXIT_USAGE
    assert not (tmp_path / "r.json").exists()
    err = capsys.readouterr().err
    assert "usage error" in err and message in err
    assert "Traceback" not in err


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["positive-control", "--quiet"])
    assert code == EXIT_OK
    assert (tmp_path / "waylab-positive-control-report.json").exists()


def test_stdout_summary_unless_quiet(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["positive-control", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "positive-control" in stdout
    assert "PASS" in stdout


def test_exit_codes_are_distinct():
    assert (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION) == (0, 1, 2)


@pytest.mark.parametrize(
    "argv",
    [["bogus"], ["check-bounds", "--sed", "1"], ["check-bounds", "--seed", "x"]],
    ids=["unknown-command", "misspelled-flag", "non-integer-seed"],
)
def test_argument_errors_are_usage_errors(tmp_path, capsys, argv):
    # argparse's own exit status 2 would read as a violated bound
    code, report = run_cli(tmp_path, argv[0], None, *argv[1:])
    assert code == EXIT_USAGE
    assert report == {}
    assert "usage error" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: waylab" in capsys.readouterr().out


# The config fuzz: every key each command (and each optimize kind) declares,
# set in turn to arbitrary JSON on a base config that runs in milliseconds.
# Valid values are drawn only where they stay cheap: a count, n or budget
# of at most 3 (an n of 12 runs for minutes, and optimize's restarts up
# to their cap of 4096 as long), an nbar of at most 2 (500 allocates GBs) and a tail_tol of at
# least 1e-4 (5e-324 takes seconds); the rest are negative, fractional,
# not finite or huge integers, which every cap and dense limit refuses.
_SMALL = st.integers(-3, 3)
_HUGE = st.integers(10**18, 10**400)  # past int64, and past the largest double
_CHEAP = _SMALL | st.floats()  # for budgets whose huge values are valid and slow
_NUMBERS = {
    "restarts": _CHEAP,
    "max_iter": _CHEAP,
    "nbar": _SMALL | _HUGE | st.floats(max_value=2.0) | st.floats(min_value=1e4) | st.just(math.nan),
    "tail_tol": _SMALL | _HUGE | st.floats(max_value=0.0) | st.floats(min_value=1e-4) | st.just(math.nan),
}
_NUMBERS["nbars"] = _NUMBERS["nbar"]
_TEXT = st.text(st.characters(blacklist_characters="/"), max_size=8)  # so a document path stays relative


def _json_values(numbers):
    leaves = st.none() | st.booleans() | _TEXT | numbers
    return st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )


# shapes arbitrary JSON seldom reaches: well-formed lists, search settings, names
_SHAPES = {
    "factor_dims": st.lists(st.lists(_SMALL | _HUGE, max_size=4), max_size=3),
    "initial_points": st.lists(st.lists(_SMALL | _HUGE | st.floats(), min_size=6, max_size=6), max_size=2),
    "nbars": st.lists(_NUMBERS["nbar"], max_size=3),
    "search": st.dictionaries(
        st.sampled_from(["tol", "restarts", "max_iter", "seed"]) | st.text(max_size=4), _json_values(_CHEAP), max_size=4
    ),
    "kind": st.sampled_from(["spin", "boson", "SPIN"]),
    "basis": st.sampled_from(["x", "X", "z", "scalar", "y"]),
}
_FUZZ_SEARCH = {"restarts": 1, "max_iter": 2}
_FUZZ_BASES = {
    "check-bounds": {"seed": 1, "count": 1, "factor_dims": [[2, 2]]},
    "verify-identities": {"seed": 1, "count": 1, "factor_dims": [[2, 2]]},
    "eval-impl": {"implementation": _conserving_impl_json()[0], "search": _FUZZ_SEARCH},
    "boson-check": {"seed": 1, "nbars": [0.5], "samples_per": 1, "search": _FUZZ_SEARCH},
    "optimize": {"seed": 1, "restarts": 0, "max_iter": 1, "search": _FUZZ_SEARCH},
    "positive-control": {},
}
_FUZZ_KEYS = [(command, None, key) for command, (_, keys) in waylab.cli._COMMANDS.items() for key in keys] + [
    ("optimize", kind, key) for kind, keys in waylab.cli._OPTIMIZE_KINDS.items() for key in keys
]


@pytest.mark.parametrize("command, kind, key", _FUZZ_KEYS, ids=[f"{c}-{k or ''}-{key}" for c, k, key in _FUZZ_KEYS])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_config_value_exits_cleanly_and_a_usage_error_names_its_key(command, kind, key, data):
    numbers = _NUMBERS.get(key, _SMALL | _HUGE | st.floats())
    value = data.draw(numbers | _TEXT | _SHAPES.get(key, numbers) | _json_values(numbers))
    config = {**_FUZZ_BASES[command], **({"kind": kind} if kind else {}), key: value}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as PYTHONWARNINGS=error::RuntimeWarning
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "report.json"), "--quiet"])
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION), err
    if code == EXIT_USAGE:
        assert "usage error" in err or "input error" in err, err
        assert "usage error" not in err or key in err, err
