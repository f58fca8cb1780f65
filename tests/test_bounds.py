"""Trade-off bound tests: identities, inequality slack, report plumbing.

Structural relations double as oracles here: the summed bound must
majorize the sum of the two base variants, and the norm-form noise bound
must be weaker than its recorded sigma-variant, on every sample.
"""

import csv
import functools
import io
import json
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from waylab import (
    BoundReport,
    ConservationError,
    ConservationLaw,
    HilbertSpec,
    IndirectMeasurementModel,
    Operator,
    SearchConfig,
    StateVector,
    cnot_unitary,
    gate_fidelity,
    identity_reports,
    is_nondisturbing,
    is_precise,
    noise_fidelity_link,
    trade_off_reports,
)
import waylab.bounds
import waylab.conservation
import waylab.measurement
import waylab.operators
from waylab.bounds import (
    bound_ingredients,
    fundamental_bound,
    qway_bounds,
    reports_to_csv,
    require_conserving,
    stacked_identity_reports,
    stacked_trade_off_reports,
    summed_bound,
)
from waylab.cnot import pauli
from waylab.conservation import commutant_basis, conservation_residual
from waylab.sampling import (
    random_conserving_implementation,
    random_conserving_model,
    random_conserving_models,
    random_state,
)
from waylab.scenarios import build_boson
from waylab.serialize import digests

from oracles import digest_of_bits, reference_csv, reference_identity_reports, reference_trade_off_reports


Z = pauli("Z")


def _random_object_state(seed: int, dim: int = 2) -> StateVector:
    return random_state(np.random.default_rng(seed), dim)


def test_identity_residuals_vanish_on_conserving_models():
    spec = HilbertSpec((2, 2, 2))
    for seed in range(10):
        model, law = random_conserving_model(seed, spec)
        for rep in identity_reports(model, law):
            assert rep.lhs <= 1e-9, rep.relation


def test_identity_reports_structure():
    model, law = random_conserving_model(3, HilbertSpec((2, 2)))
    rep1, rep2 = identity_reports(model, law)
    assert rep1.relation == "identity-1"
    assert rep2.relation == "identity-2"
    for rep in (rep1, rep2):
        assert rep.kind == "identity"
        assert rep.rhs == 0.0
        assert rep.slack == rep.lhs
        assert rep.passed(1e-9)
        assert len(rep.digest) == 16
    assert rep1.digest == rep2.digest


def test_identity_rejects_nonconserving_interaction():
    # CNOT does not conserve total X
    x = pauli("X")
    spec = HilbertSpec((2, 2))
    law = ConservationLaw(spec, x, x)
    model = IndirectMeasurementModel(
        spec=spec,
        probe_state=StateVector.basis(2, 0),
        ancilla_state=None,
        interaction=cnot_unitary(),
        pointer=Z,
        observable=Z,
    )
    with pytest.raises(ConservationError) as exc:
        identity_reports(model, law)
    assert exc.value.residual > 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_trade_off_bounds_hold(seed):
    model, law = random_conserving_model(seed, HilbertSpec((2, 2)))
    psi = _random_object_state(seed + 17)
    b1, b2 = qway_bounds(model, law, psi)
    bs = summed_bound(model, law, psi)
    bf = fundamental_bound(model, law, psi)
    for rep in (b1, b2, bs, bf):
        assert rep.kind == "inequality"
        assert rep.slack >= -1e-9, rep.relation


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_summed_majorizes_base_variants(seed):
    model, law = random_conserving_model(seed, HilbertSpec((2, 2, 2)))
    psi = _random_object_state(seed + 1)
    b1, b2 = qway_bounds(model, law, psi)
    bs = summed_bound(model, law, psi)
    # both base bounds state (1/2)|<c>| <= rhs; the summed form doubles
    # the left side and can only widen the right side
    assert bs.lhs == pytest.approx(2.0 * b1.lhs, rel=1e-12)
    assert bs.rhs >= b1.rhs + b2.rhs - 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_fundamental_sigma_variant_is_tighter(seed):
    model, law = random_conserving_model(seed, HilbertSpec((2, 2)))
    psi = _random_object_state(seed + 5)
    rep = fundamental_bound(model, law, psi)
    assert "lhs_sigma_variant" in rep.details
    # deviations never exceed operator norms, so the sigma-form lower
    # bound is at least as large, and it still sits under the noise
    assert rep.details["lhs_sigma_variant"] >= rep.lhs - 1e-12
    assert rep.details["lhs_sigma_variant"] <= rep.rhs + 1e-9


def _spy_residual_svds(monkeypatch, total_dim: int) -> list:
    """Record each SVD of one total-space matrix, the gate's exact
    residual: operator_norms takes stacks of the factor charges, and the
    identity pass one stack of residuals."""
    svds = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        if np.shape(a) == (total_dim, total_dim):
            svds.append(1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return svds


def test_trade_off_reports_is_one_pass_behind_every_bound(monkeypatch):
    model, law = random_conserving_model(17, HilbertSpec((2, 2, 2)))
    psi = _random_object_state(18)
    slices = [*qway_bounds(model, law, psi), summed_bound(model, law, psi), fundamental_bound(model, law, psi)]
    calls = []
    gate = waylab.bounds._require_conserving
    monkeypatch.setattr(
        waylab.bounds, "_require_conserving", lambda s, lws, u: calls.append(len(lws)) or gate(s, lws, u)
    )
    residuals = _spy_residual_svds(monkeypatch, 8)
    reports = trade_off_reports(model, law, psi)
    # one conservation gate over a stack of one case, which a conserving
    # model passes on its Frobenius norm alone
    assert calls == [1]
    assert residuals == []
    assert [r.relation for r in reports] == ["qway-1", "qway-2", "summed", "fundamental"]
    assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in slices]


STACK_LAYOUTS = [(2, 2), (3, 2), (2, 2, 2), (2, 2, 2, 2), (4, 4, 4)]


@functools.cache
def _stack_cases():
    """130 sampled cases cycling through STACK_LAYOUTS, each with its
    object state, and the per-case oracle's trade-off and identity
    records of each."""
    specs = [HilbertSpec(STACK_LAYOUTS[i % len(STACK_LAYOUTS)]) for i in range(130)]
    seeds = range(4000, 4130)
    cases = [
        (model, law, random_state(np.random.default_rng(seed + 1), spec.object_dim))
        for seed, spec, (model, law) in zip(seeds, specs, random_conserving_models(seeds, specs))
    ]
    trade = [reference_trade_off_reports(*case) for case in cases]
    ident = [reference_identity_reports(model, law) for model, law, _ in cases]
    return cases, trade, ident


@pytest.mark.parametrize("chunk", [1, 2, 63, 64, 65, 130])
def test_stacked_passes_are_the_per_case_oracle_byte_for_byte(monkeypatch, chunk):
    # the stacked passes over chunks of mixed layouts give each case the
    # records of the per-case oracle: floats, digests, order and CSV, with
    # one conservation gate per layout of a chunk
    cases, trade, ident = _stack_cases()
    gates = []
    gate = waylab.bounds._require_conserving
    monkeypatch.setattr(
        waylab.bounds, "_require_conserving", lambda s, lws, u: gates.append(len(lws)) or gate(s, lws, u)
    )
    got_trade, got_ident = [], []
    for start in range(0, len(cases), chunk):
        part = cases[start : start + chunk]
        got_trade += stacked_trade_off_reports(part)
        got_ident += stacked_identity_reports([(model, law) for model, law, _ in part])
        batch = [{"model": model, "law": law, "psi": psi} for model, law, psi in part]
        batch += [{"model": model, "law": law} for model, law, _ in part]
        assert digests(batch) == [digest_of_bits(**parts) for parts in batch]
    # each pass gates each layout of a chunk once, layouts in order of first appearance
    want = []
    for start in range(0, len(cases), chunk):
        sizes = list(Counter(case[0].spec for case in cases[start : start + chunk]).values())
        want += sizes + sizes
    assert gates == want
    for got, want in zip(got_trade + got_ident, trade + ident, strict=True):
        assert [json.dumps(r.to_json_dict()) for r in got] == [json.dumps(r) for r in want]
    got_rows = reports_to_csv([r for reports in got_trade for r in reports]).splitlines()
    want_rows = reference_csv([r for records in trade for r in records]).splitlines()
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):  # one row at a time keeps a failure's diff small
        assert got == want


def test_conservation_gate_takes_the_svd_only_above_the_tolerance(monkeypatch):
    scenario = build_boson(1.0)
    law, spec = scenario.law, scenario.law.spec
    u = random_conserving_implementation(3, law, basis=commutant_basis(law)).unitary
    svds = _spy_residual_svds(monkeypatch, spec.total_dim)
    # conserving: the Frobenius norm certifies it, with no SVD
    require_conserving(spec, u, law)
    assert svds == []
    # spectral residual inside the tolerance, Frobenius norm above it:
    # the SVD decides, and the unitary passes as before
    tilt = np.kron(np.diag(np.exp([-0.25e-9j, 0.25e-9j])), np.eye(u.dim // 2))
    tilted = Operator(u.entries @ tilt)
    commuted = tilted.entries @ law.lifts[3] - law.lifts[3] @ tilted.entries
    assert np.linalg.norm(commuted, 2) <= 1e-9 < np.linalg.norm(commuted)
    require_conserving(spec, tilted, law)
    assert len(svds) == 1
    # not conserving: the error carries conservation_residual's value
    cnot = Operator(np.kron(cnot_unitary().entries, np.eye(u.dim // 4)))
    with pytest.raises(ConservationError) as exc:
        require_conserving(spec, cnot, law)
    assert exc.value.residual == conservation_residual(cnot, law)


def test_a_commutator_past_the_largest_double_is_refused():
    # charges near the largest double: [U, L] overflows, and the exact
    # residual is refused as an Operator's entries are, where an SVD of
    # the overflowed matrix reads NaN, which the gate's test would pass
    spec = HilbertSpec((2, 2))
    big = Operator(np.diag([8e307, -8e307]), hermitian=True)
    law = ConservationLaw(spec, big, big)
    u = Operator(np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0], unitary=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        for check in (lambda: conservation_residual(u, law), lambda: require_conserving(spec, u, law)):
            with pytest.raises(ValueError, match="operator entries must be finite"):
                check()


def test_inputs_on_the_wrong_factors_are_refused():
    model, law = random_conserving_model(1, HilbertSpec((2, 2, 2)))
    # an object state of the wrong dimension, and a law whose factors share
    # the interaction's total dimension but not its layout
    with pytest.raises(ValueError, match="object state dim 3, expected 2"):
        bound_ingredients([model], [law], [StateVector.basis(3, 0)], {})
    with pytest.raises(ValueError, match="do not match law factors"):
        require_conserving(HilbertSpec((2, 4)), model.interaction, law)


def test_flagged_operators_are_checked_for_hermiticity_once(monkeypatch):
    # every max|M - M^dag| comparison, keyed by the matrix it ran on: a
    # flagged operator is compared when it is built and never again, and
    # no matrix is compared twice
    seen: dict[int, int] = {}
    keep = []
    defect = waylab.operators._hermiticity_defect

    def counting(entries):
        keep.append(entries)
        seen[id(entries)] = seen.get(id(entries), 0) + 1
        return defect(entries)

    monkeypatch.setattr(waylab.operators, "_hermiticity_defect", counting)
    for dims in ((2, 2), (2, 2, 2), (2, 2, 2, 2)):
        model, law = random_conserving_model(5, HilbertSpec(dims))
        psi = _random_object_state(6)
        trade_off_reports(model, law, psi)
        identity_reports(model, law)
    assert keep and max(seen.values()) == 1


def test_law_lifts_are_built_once(monkeypatch):
    # each law's lifts are built once, as one read-only (4, d, d) stack of
    # l1, l2, l3 and the total, and no Operator: the law's three parts,
    # each a stack of one from the sampler; the passes read that stack,
    # and an identity pass lifts its models' observables as one stack for
    # the identities' [A, L1] (E and D, like the trade-off pass's E x and
    # D x, apply P and A to U x on their own factors)
    calls = []
    lift = HilbertSpec.lift
    monkeypatch.setattr(
        HilbertSpec, "lift", lambda s, entries, role: calls.append((role, entries.shape[:-2])) or lift(s, entries, role)
    )
    # the sampler's operators come from stacks, through the private
    # constructor, which runs no __post_init__; both ways are counted
    built = []
    init, checked = Operator.__post_init__, Operator._checked
    monkeypatch.setattr(Operator, "__post_init__", lambda op: built.append(op.entries.shape) or init(op))
    monkeypatch.setattr(
        Operator, "_checked", lambda entries, *flags: built.append(entries.shape) or checked(entries, *flags)
    )
    model, law = random_conserving_model(9, HilbertSpec((2, 2, 2)))
    assert sorted(calls) == [("ancilla", (1,)), ("object", (1,)), ("probe", (1,))]
    stack = law.lifts
    assert stack.shape == (4, 8, 8) and not stack.flags.writeable
    # of the total-space operators, the sampler builds only the interaction
    assert built.count((8, 8)) == 1
    calls.clear()
    built.clear()
    psi = _random_object_state(10)
    trade_off_reports(model, law, psi)
    assert calls == []
    trade_off_reports(model, law, psi)
    assert calls == []
    identity_reports(model, law)
    assert calls == [("object", (1,))]
    calls.clear()
    trade_off_reports(model, law, psi)
    assert calls == []
    assert law.lifts is stack and (8, 8) not in built


def test_noise_operators_are_built_only_for_the_identities(monkeypatch):
    # eps, eta and the certificates read E x and D x at the inputs, at
    # most one column per object basis state; only the operator
    # identities pass the whole basis, whose images are E and D
    calls = []
    images = waylab.measurement.stacked_noise_images

    def recording(spec, u, a, p, x):
        calls.append((x.shape[-1], spec.object_dim, spec.total_dim))
        return images(spec, u, a, p, x)

    for module in (waylab.measurement, waylab.bounds):
        monkeypatch.setattr(module, "stacked_noise_images", recording)
    model, law = random_conserving_model(9, HilbertSpec((2, 2, 2)))
    trade_off_reports(model, law, _random_object_state(10))
    is_precise(model)
    is_nondisturbing(model)
    x_law = ConservationLaw(HilbertSpec((2, 2, 2)), pauli("X"), pauli("X"), pauli("X"))
    impl = random_conserving_implementation(1, x_law)
    noise_fidelity_link(impl, x_law, fidelity=gate_fidelity(impl, SearchConfig(restarts=1, max_iter=10)))
    # one call each: the trade-off pass, one pass for both certificates,
    # and the chain's one ingredient pass over its two control states
    assert len(calls) == 3 and all(columns <= object_dim for columns, object_dim, _ in calls)
    calls.clear()
    identity_reports(model, law)
    assert calls == [(8, 2, 8)]


def test_commuting_law_degenerates_gracefully():
    # observable Z, charges Z: <[A, L1]> = 0, bounds hold with lhs 0
    spec = HilbertSpec((2, 2))
    law = ConservationLaw(spec, Z, Z)
    model = IndirectMeasurementModel(
        spec=spec,
        probe_state=StateVector.basis(2, 0),
        ancilla_state=None,
        interaction=Operator(np.eye(4), unitary=True),
        pointer=Z,
        observable=Z,
    )
    psi = _random_object_state(9)
    b1, b2 = qway_bounds(model, law, psi)
    assert b1.lhs == pytest.approx(0.0, abs=1e-12)
    assert b1.passed() and b2.passed()
    bf = fundamental_bound(model, law, psi)
    assert bf.lhs == pytest.approx(0.0, abs=1e-12)
    assert bf.passed()


def test_bound_report_passed_semantics():
    ident = BoundReport("r", "identity", 1e-12, 0.0, "deadbeefdeadbeef")
    assert ident.passed(1e-9)
    assert not BoundReport("r", "identity", 1e-3, 0.0, "d" * 16).passed(1e-9)
    ineq = BoundReport("r", "inequality", 1.0, 2.0, "d" * 16)
    assert ineq.passed(1e-9)
    assert not BoundReport("r", "inequality", 2.0, 1.0, "d" * 16).passed(1e-9)
    with pytest.raises(ValueError):
        BoundReport("r", "mystery", 0.0, 0.0, "d" * 16)


def test_slack_is_derived_from_kind_and_sides():
    # rhs - lhs for an inequality, the distance |lhs - rhs| for an
    # identity; the slack cannot be passed, so it cannot disagree
    assert BoundReport("r", "inequality", 2.5, 1.0, "d" * 16).slack == -1.5
    assert BoundReport("r", "inequality", 1.0, 2.5, "d" * 16).slack == 1.5
    assert BoundReport("r", "identity", 3e-3, 0.0, "d" * 16).slack == 3e-3
    assert BoundReport("r", "identity", 1.0, 2.5, "d" * 16).slack == 1.5
    with pytest.raises(TypeError):
        BoundReport("r", "inequality", 1.0, 2.0, "d" * 16, slack=1.0)
    model, law = random_conserving_model(4, HilbertSpec((2, 2, 2)))
    psi = _random_object_state(5)
    for rep in (*identity_reports(model, law), *trade_off_reports(model, law, psi)):
        expected = rep.rhs - rep.lhs if rep.kind == "inequality" else rep.lhs
        assert rep.slack == expected, rep.relation


def test_report_json_dict_sorts_details():
    rep = BoundReport("r", "inequality", 1.0, 2.0, "d" * 16, details={"zeta": 1.0, "alpha": 2.0})
    data = rep.to_json_dict()
    assert list(data["details"].keys()) == ["alpha", "zeta"]
    assert data["relation"] == "r"
    assert data["slack"] == 1.0


def test_reports_csv_roundtrip():
    model, law = random_conserving_model(1, HilbertSpec((2, 2)))
    psi = _random_object_state(2)
    reports = [*qway_bounds(model, law, psi), summed_bound(model, law, psi)]
    text = reports_to_csv(reports)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    assert rows[0]["relation"] == reports[0].relation
    for row, rep in zip(rows, reports):
        assert float(row["slack"]) == pytest.approx(rep.slack, rel=1e-15)
        assert row["digest"] == rep.digest


def test_the_stacked_routines_return_nothing_for_no_cases():
    assert waylab.conservation.commutant_bases([]) == []
    assert waylab.conservation.conserving_unitaries([], []) == []
    assert waylab.operators.flagged_operators([], hermitian=True, unitary=True) == []
    assert waylab.operators.operator_norms([]) == []
    assert random_conserving_models([], []) == []
    assert stacked_trade_off_reports([]) == []
    assert stacked_identity_reports([]) == []
    assert digests([]) == []
