"""CNOT evaluation tests with two independent fidelity oracles.

For an ancilla-free implementation U the worst-case fidelity has a
closed form: with V = U_CN^dag U unitary, min_psi |<psi|V psi>| is the
distance from the origin to the convex hull of V's eigenvalues.  All
eigenvalues sit on the unit circle, so sorting them by angle and
looking at the largest angular gap decides everything: a gap <= pi
means the origin lies inside the hull (fidelity 0), and otherwise the
nearest hull point is the chord across the occupied arc, at distance
cos(arc/2).  This formula shares no code with the search under test.
"""

import dataclasses
import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from waylab import (
    ConservationError,
    ConservationLaw,
    GateImplementation,
    HilbertSpec,
    Operator,
    SearchConfig,
    StateVector,
    cnot_unitary,
    commutant_basis,
    commutator,
    conserving_unitary,
    error_operator,
    expectation,
    gate_fidelity,
    is_nondisturbing,
    is_precise,
    measurement_view,
    noise_fidelity_link,
    pauli,
    tensor_states,
    trade_off_reports,
)
import waylab.cnot
import waylab.operators
import waylab.scenarios
from waylab.cnot import (
    _BIG_W,
    _FSQ,
    _IPLUS,
    _PLUS,
    _S,
    _W,
    _FidelityEvaluator,
    _newton_moves,
    _newton_system,
    _search_starts,
    l3_moments,
    sigma_ceiling_fsq,
    state_fidelity,
)
from waylab.sampling import random_conserving_implementation
from waylab.operators import moments
from waylab.scenarios import OptimizeConfig, build_boson, build_spin, optimize_fidelity, projected_gate_coefficients
from waylab.serialize import digest

from oracles import (
    angle_states,
    channel_apply,
    grid_search_fidelity,
    kraus_fidelity_sq,
    kraus_forms,
    kraus_lower_fsq,
)


X = pauli("X")
Z = pauli("Z")
SPEC22 = HilbertSpec((2, 2))


def hull_fidelity(u4: np.ndarray) -> float:
    """Closed-form worst-case fidelity for an ancilla-free unitary."""
    v = cnot_unitary().entries.conj().T @ u4
    angles = np.sort(np.angle(np.linalg.eigvals(v)))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    widest = float(np.max(gaps))
    if widest <= np.pi:
        return 0.0
    return float(np.cos((2 * np.pi - widest) / 2))


def conserving_xx_unitary(seed: int) -> Operator:
    """A conserving X+X two-qubit unitary from standard normal coefficients."""
    basis = commutant_basis(ConservationLaw(SPEC22, X, X))
    return conserving_unitary(basis, np.random.default_rng(seed).standard_normal(basis.generator_count))


def density(psi: StateVector) -> Operator:
    return Operator(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def haar_unitary(seed: int, dim: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_cnot_truth_table():
    u = cnot_unitary()
    assert u.is_unitary()
    basis = [StateVector.basis(4, k) for k in range(4)]
    # |a b> -> |a, b xor a>
    expected = [0, 1, 3, 2]
    for k, target in enumerate(expected):
        out = u.entries @ basis[k].amplitudes
        assert abs(out[target]) == pytest.approx(1.0)
    np.testing.assert_allclose(u.entries @ u.entries, np.eye(4), atol=1e-15)


def test_pauli_conventions():
    np.testing.assert_allclose(pauli("Y").entries, [[0, -1j], [1j, 0]], atol=0)
    np.testing.assert_allclose(X.entries @ pauli("Y").entries, 1j * Z.entries, atol=1e-15)
    with pytest.raises(ValueError):
        pauli("Q")


def test_implementation_validation():
    with pytest.raises(ValueError):
        GateImplementation(HilbertSpec((3, 2)), Operator(np.eye(6)))
    with pytest.raises(ValueError):
        GateImplementation(SPEC22, Operator(np.eye(4) * 1.5))
    with pytest.raises(ValueError, match="dim 8, expected 4"):
        GateImplementation(SPEC22, Operator(np.eye(8)))  # unitary of the wrong size
    spec = HilbertSpec((2, 2, 2))
    with pytest.raises(ValueError):
        GateImplementation(spec, Operator(np.eye(8)))  # ancilla state required
    with pytest.raises(ValueError):
        GateImplementation(spec, Operator(np.eye(8)), StateVector.basis(4, 0))


def test_channel_apply_no_ancilla_is_conjugation():
    impl = GateImplementation(SPEC22, cnot_unitary())
    psi = StateVector.from_amplitudes([1.0, 0.0, 1.0, 0.0])
    out = channel_apply(impl, density(psi))
    expected = cnot_unitary().entries @ density(psi).entries @ cnot_unitary().entries.conj().T
    np.testing.assert_allclose(out.entries, expected, atol=1e-14)


def test_channel_apply_traces_out_ancilla():
    spec = HilbertSpec((2, 2, 2))
    u = Operator(haar_unitary(5, 8), unitary=True)
    impl = GateImplementation(spec, u, StateVector.basis(2, 0))
    psi = StateVector.from_amplitudes([1.0, 2.0, 0.0, 1j])
    rho_out = channel_apply(impl, density(psi))
    assert rho_out.dim == 4
    assert np.trace(rho_out.entries).real == pytest.approx(1.0, abs=1e-12)
    assert rho_out.is_hermitian()
    # independent reconstruction through the full-space density matrix,
    # traced over the ancilla basis one vector at a time
    full = tensor_states(psi, StateVector.basis(2, 0))
    evolved = u.entries @ full.amplitudes
    big = np.outer(evolved, evolved.conj())
    expected = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        bra = np.kron(np.eye(4), np.eye(2)[k])
        expected += bra @ big @ bra.T
    np.testing.assert_allclose(rho_out.entries, expected, atol=1e-12)


def test_state_fidelity_matches_channel_overlap():
    spec = HilbertSpec((2, 2, 2))
    u = Operator(haar_unitary(12, 8), unitary=True)
    impl = GateImplementation(spec, u, StateVector.from_amplitudes([1.0, 1j]))
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi = StateVector.from_amplitudes(
            rng.standard_normal(4) + 1j * rng.standard_normal(4)
        )
        target = cnot_unitary().entries @ psi.amplitudes
        rho_out = channel_apply(impl, density(psi))
        overlap = float(np.real(target.conj() @ rho_out.entries @ target))
        assert state_fidelity(impl, psi) ** 2 == pytest.approx(overlap, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=6, max_size=6))
def test_angles_always_give_normalized_states(angles):
    psi = angle_states(*angles)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_gate_fidelity_perfect_implementation():
    impl = GateImplementation(SPEC22, cnot_unitary())
    res = gate_fidelity(impl, SearchConfig(restarts=8, max_iter=100))
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.error_probability == pytest.approx(0.0, abs=1e-9)
    # global phase is invisible to the channel
    phased = GateImplementation(SPEC22, Operator(cnot_unitary().entries * np.exp(0.7j)))
    res_p = gate_fidelity(phased, SearchConfig(restarts=8, max_iter=100))
    assert res_p.fidelity == pytest.approx(1.0, abs=1e-9)


def test_gate_fidelity_matches_phase_oracle():
    # U = U_CN diag(1, 1, 1, e^{i phi}): V has eigenvalues {1, e^{i phi}}
    # and the worst-case fidelity is exactly cos(phi / 2)
    for phi in (0.3, 1.1, 2.0):
        u = cnot_unitary().entries @ np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
        impl = GateImplementation(SPEC22, Operator(u, unitary=True))
        res = gate_fidelity(impl, SearchConfig(restarts=16, max_iter=300))
        assert res.fidelity == pytest.approx(np.cos(phi / 2), abs=1e-12)
        assert hull_fidelity(u) == pytest.approx(np.cos(phi / 2), abs=1e-12)


def test_gate_fidelity_zero_when_hull_contains_origin():
    # (Z on the control) after a perfect CNOT: V eigenvalues are +-1
    u = np.kron(Z.entries, np.eye(2)) @ cnot_unitary().entries
    impl = GateImplementation(SPEC22, Operator(u, unitary=True))
    assert hull_fidelity(u) == 0.0
    res = gate_fidelity(impl, SearchConfig(restarts=16, max_iter=300))
    assert res.fidelity <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_gate_fidelity_matches_hull_oracle(seed):
    u = haar_unitary(seed)
    impl = GateImplementation(SPEC22, Operator(u, unitary=True))
    res = gate_fidelity(impl, SearchConfig(restarts=24, max_iter=300))
    assert res.fidelity == pytest.approx(hull_fidelity(u), abs=1e-12)


def _hull_witness_cases():
    z_control = np.kron(Z.entries, np.eye(2)) @ cnot_unitary().entries
    cases = [
        pytest.param(cnot_unitary(), id="perfect"),  # one eigenvalue, four times
        pytest.param(Operator(z_control, unitary=True), id="z-control"),  # +-1
    ]
    cases += [
        pytest.param(conserving_xx_unitary(s), id=f"conserving-{s}")
        for s in range(6)
    ]
    return cases


@pytest.mark.parametrize("unitary", _hull_witness_cases())
def test_hull_witness_achieves_reported_value(unitary):
    # the exact path reports the value of a real state: repeated
    # eigenvalues, the origin on an edge (+-1) and the origin inside
    # the hull (every conserving X+X implementation) all give a witness
    impl = GateImplementation(SPEC22, unitary)
    res = gate_fidelity(impl)
    assert [t["start"] for t in res.trace] == ["hull"]
    assert state_fidelity(impl, res.worst_state) == pytest.approx(res.fidelity, abs=1e-12)
    assert res.fidelity == pytest.approx(hull_fidelity(unitary.entries), abs=1e-12)


def test_gate_fidelity_result_is_consistent():
    u = haar_unitary(9)
    impl = GateImplementation(SPEC22, Operator(u, unitary=True))
    res = gate_fidelity(impl, SearchConfig(restarts=8, max_iter=200))
    # the reported worst state must actually achieve the reported value
    assert state_fidelity(impl, res.worst_state) == pytest.approx(
        res.fidelity, abs=1e-10
    )
    assert res.fidelity_sq == pytest.approx(res.fidelity**2, rel=1e-12)
    assert res.error_probability == pytest.approx(1 - res.fidelity_sq, rel=1e-12)
    assert res.evaluations > 0


def test_more_restarts_never_worsen_the_minimum():
    # the Gaussian starts extend as a prefix sequence, so a larger budget
    # can only probe a superset of states
    u = haar_unitary(21)
    impl = GateImplementation(SPEC22, Operator(u, unitary=True))
    small = gate_fidelity(impl, SearchConfig(restarts=4, max_iter=150))
    large = gate_fidelity(impl, SearchConfig(restarts=16, max_iter=150))
    assert large.fidelity <= small.fidelity + 1e-12


def test_grid_oracle_agrees_with_optimizer():
    # one flat instance and one with structure near the ideal gate
    cases = [
        haar_unitary(33),
        cnot_unitary().entries @ np.diag([1, 1, 1, np.exp(0.9j)]),
    ]
    for u in cases:
        impl = GateImplementation(SPEC22, Operator(u, unitary=True))
        f_grid, worst = grid_search_fidelity(impl, zoom_rounds=5)
        f_opt = gate_fidelity(impl, SearchConfig(restarts=24, max_iter=300)).fidelity
        assert f_grid == pytest.approx(f_opt, abs=1e-4)
        assert state_fidelity(impl, worst) == pytest.approx(f_grid, abs=1e-12)


def _spin3_implementations():
    # perturbations of the projected gate whose worst case sits well
    # above zero: the lattice resolves a smooth minimum to 1e-4, but not
    # the cone of |<psi|A psi>| around a zero
    scenario = build_spin(3)
    basis = commutant_basis(scenario.law)
    center = projected_gate_coefficients(scenario, basis)
    rng = np.random.default_rng(3)
    impls = []
    for _ in range(2):
        u = conserving_unitary(basis, center + 0.3 * rng.standard_normal(center.size))
        impls.append(GateImplementation(scenario.spec, u, scenario.ancilla_state))
    return impls


def test_grid_oracle_agrees_with_descent_with_ancilla():
    for impl in _spin3_implementations():
        assert impl.spec.ancilla_dim == 2
        f_grid, worst = grid_search_fidelity(impl, zoom_rounds=5)
        res = gate_fidelity(impl, SearchConfig(restarts=24, max_iter=300))
        assert res.fidelity > 0.01
        assert f_grid == pytest.approx(res.fidelity, abs=1e-4)
        assert state_fidelity(impl, res.worst_state) == pytest.approx(res.fidelity, abs=1e-12)


def test_more_restarts_never_worsen_the_descent():
    # both searches stop once their minimum is certified, and a larger batch
    # may certify, and so stop, earlier: more starts never raise the
    # minimum by more than tol, and may cost fewer evaluations
    for impl in _spin3_implementations():
        small = gate_fidelity(impl, SearchConfig(restarts=4, max_iter=80))
        large = gate_fidelity(impl, SearchConfig(restarts=16, max_iter=80))
        tol = SearchConfig().tol
        for res in (small, large):
            assert 0.0 < res.fidelity_sq_lower and res.fidelity_sq - res.fidelity_sq_lower <= tol
        assert large.fidelity_sq <= small.fidelity_sq + tol
        assert len(large.trace) == len(small.trace) + 12


def _uncertified(monkeypatch) -> None:
    """Make every row's lower value 0: no search stops on its certificate,
    so each runs as it did before the certificate existed."""
    monkeypatch.setattr(waylab.cnot, "_lower_fsq", lambda ev, points: np.zeros(len(points)))


def _eval_boson_inputs():
    # the eval-boson benchmark's kind of input: random conserving gates on
    # the coherent field, two per nbar
    impls = []
    for nbar in (1.0, 2.0, 4.0):
        sc = build_boson(nbar)
        basis = commutant_basis(sc.law)
        impls += [
            random_conserving_implementation(seed, sc.law, basis=basis, ancilla_state=sc.ancilla_state)
            for seed in (31, 32)
        ]
    return impls


def test_certified_lower_value_brackets_the_minimum():
    impls = _spin3_implementations() + _eval_boson_inputs()
    for impl in impls:
        res = gate_fidelity(impl, SearchConfig(restarts=4, max_iter=80))
        strong = gate_fidelity(impl, SearchConfig(restarts=64, max_iter=400))
        for r in (res, strong):
            assert 0.0 <= r.fidelity_sq_lower <= r.fidelity_sq
            # the search's lower value is the largest over its rows, the
            # worst state's among them, which the Kraus form computes apart
            assert r.fidelity_sq_lower >= kraus_lower_fsq(impl, r.worst_state) - 1e-12
        # a lower value from one search sits below the other's estimate
        assert res.fidelity_sq_lower <= strong.fidelity_sq
        assert strong.fidelity_sq_lower <= res.fidelity_sq


def test_hull_lower_value_is_the_exact_value():
    for seed in range(5):
        impl = GateImplementation(SPEC22, Operator(haar_unitary(seed), unitary=True))
        res = gate_fidelity(impl, SearchConfig(restarts=4, max_iter=80))
        assert res.fidelity_sq_lower == res.fidelity_sq


def test_certified_stop_at_the_maximin_optimum(monkeypatch):
    # the maximin-spin3 benchmark's optimum: its minimum row is a
    # stationary point whose F^2 is the lowest eigenvalue of S
    scenario = build_spin(3)
    seed = int(np.random.SeedSequence(20021017).generate_state(1)[0])
    inner = SearchConfig(restarts=4, max_iter=80)
    run = optimize_fidelity(scenario, OptimizeConfig(restarts=0, max_iter=30, seed=seed, inner=inner))
    u = conserving_unitary(commutant_basis(scenario.law), np.array(run.coefficients))
    impl = GateImplementation(scenario.spec, u, scenario.ancilla_state)
    certified = gate_fidelity(impl, inner)
    assert 0.0 <= certified.fidelity_sq - certified.fidelity_sq_lower <= inner.tol
    assert certified.fidelity_sq_lower >= 0.2499
    _uncertified(monkeypatch)
    waited = gate_fidelity(impl, inner)
    assert certified.evaluations < waited.evaluations
    assert abs(certified.fidelity_sq - waited.fidelity_sq) <= inner.tol


def test_warm_passes_skip_the_final_lower_value(monkeypatch):
    # at the maximin-spin3 budget only the searches from their own starts
    # compute the batched lower value; the warm passes, whose lower value
    # the optimizer never reads, report 0.0 and leave the run unchanged
    scenario = build_spin(3)
    seed = int(np.random.SeedSequence(20021017).generate_state(1)[0])
    cfg = OptimizeConfig(restarts=0, max_iter=30, seed=seed, inner=SearchConfig(restarts=4, max_iter=80))
    plain = optimize_fidelity(scenario, cfg)
    lower_fsq, gate = waylab.cnot._lower_fsq, waylab.scenarios.gate_fidelity
    batched, cold = [], []
    monkeypatch.setattr(
        waylab.cnot, "_lower_fsq", lambda ev, points: batched.append(len(points) > 1) or lower_fsq(ev, points)
    )
    monkeypatch.setattr(
        waylab.scenarios,
        "gate_fidelity",
        lambda impl, config=None, *, starts=None: cold.append(starts is None) or gate(impl, config, starts=starts),
    )
    assert optimize_fidelity(scenario, cfg) == plain
    assert 0 < sum(cold) < len(cold)
    assert sum(batched) == sum(cold)


def test_zero_fidelity_is_not_stopped_by_the_certificate(monkeypatch):
    # a random spin-3 gate on the F = 0 plateau: a lower value of 0 is
    # within tol of F^2 ~ 1e-33, but certifies nothing, so the search
    # waits for its quiet stop as before
    scenario = build_spin(3)
    impl = random_conserving_implementation(0, scenario.law, ancilla_state=scenario.ancilla_state)
    cfg = SearchConfig(restarts=4, max_iter=80)
    res = gate_fidelity(impl, cfg)
    assert 0.0 < res.fidelity_sq < 1e-30
    assert res.fidelity_sq_lower == 0.0
    _uncertified(monkeypatch)
    waited = gate_fidelity(impl, cfg)
    assert res.fidelity_sq.hex() == waited.fidelity_sq.hex()
    assert res.evaluations == waited.evaluations


def test_long_descent_keeps_a_finite_step():
    # with no early stop, a start that rejects every step halves its
    # step more than a thousand times
    impl = _spin3_implementations()[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gate_fidelity(impl, SearchConfig(restarts=0, max_iter=1200, tol=-1.0))
    assert res.trace[0]["iterations"] == 1200.0
    assert np.isfinite(res.fidelity)


def test_search_starts_are_built_once_and_read_only():
    cfg = SearchConfig(restarts=6, seed=3)
    labels, states = _search_starts(cfg)
    again_labels, again_states = _search_starts(SearchConfig(restarts=6, seed=3))
    assert again_labels is labels and again_states is states
    assert not states.flags.writeable
    fresh_labels, fresh_states = _search_starts.__wrapped__(cfg)
    assert fresh_labels == labels
    assert fresh_states.tobytes() == states.tobytes()
    with pytest.raises(ValueError):
        states[0, 0] = 0.0


# The first two Gaussian starts at seeds 0 and 20021017, real parts then
# imaginary parts, so that a change of numpy cannot move the search's
# starts unnoticed.
_FROZEN_STARTS = {
    0: [
        [0.06750061473502707, -0.07092296032014339, 0.3438228471979393, 0.056317584841808654,
         -0.2875840960801554, 0.1941290509097708, 0.7000767508028545, 0.5084580831809623],
        [-0.2222201761918653, -0.39958519617162674, -0.19681288335962602, 0.013049604374740346,
         -0.734180586821509, -0.06908837249373749, -0.3934243109206539, -0.23122983233197264],
    ],
    20021017: [
        [0.2057236397798933, 0.07769512715251173, 0.41125580286581215, 0.5842461527796976,
         0.46848559833998293, -0.12957677263197273, -0.01889478926433776, -0.45226147293877744],
        [-0.24052606957181527, 0.35636757753301956, 0.7198865553940961, 0.31895576314177526,
         0.15474228083917818, -0.23553418967171005, -0.022769735672218034, 0.33947008589100963],
    ],
}


@pytest.mark.parametrize("seed", sorted(_FROZEN_STARTS))
def test_gaussian_starts_frozen_values(seed):
    labels, states = _search_starts(SearchConfig(restarts=2, seed=seed))
    assert labels[16:] == ("random-0", "random-1")
    rows = np.array(_FROZEN_STARTS[seed])
    expected = rows[:, :4] + 1j * rows[:, 4:]
    assert states[16:].tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 20021017])
def test_gaussian_starts_extend_as_a_prefix(seed):
    small_labels, small = _search_starts(SearchConfig(restarts=4, seed=seed))
    large_labels, large = _search_starts(SearchConfig(restarts=16, seed=seed))
    assert large_labels[: len(small_labels)] == small_labels
    assert large[: len(small)].tobytes() == small.tobytes()
    assert np.max(np.abs(np.linalg.norm(large, axis=1) - 1.0)) <= 1e-15


def test_restarts_past_the_dense_limit_are_refused():
    # each start is a row of the descent, so a huge count would try to
    # allocate before the first step; the limit is refused at once
    impl = _spin3_implementations()[0]
    for restarts in (waylab.operators.MAX_TOTAL_DIM + 1, 10**18, -1):
        with pytest.raises(ValueError, match="restarts"):
            gate_fidelity(impl, SearchConfig(restarts=restarts, max_iter=1))
    # the limit itself is still a valid count
    labels, states = _search_starts(SearchConfig(restarts=waylab.operators.MAX_TOTAL_DIM))
    assert len(labels) == len(states) == 16 + waylab.operators.MAX_TOTAL_DIM


def test_cached_starts_leave_the_search_bit_identical(monkeypatch):
    impl = _spin3_implementations()[1]
    cfg = SearchConfig(restarts=5, max_iter=60, seed=11)
    cached = [gate_fidelity(impl, cfg), gate_fidelity(impl, cfg)]
    monkeypatch.setattr(waylab.cnot, "_search_starts", _search_starts.__wrapped__)
    fresh = gate_fidelity(impl, cfg)
    for res in cached:
        assert res.fidelity_sq.hex() == fresh.fidelity_sq.hex()
        assert res.worst_state.amplitudes.tobytes() == fresh.worst_state.amplitudes.tobytes()
        assert res.trace == fresh.trace
        assert res.evaluations == fresh.evaluations


def test_given_starts_run_the_same_descent():
    impl = _spin3_implementations()[0]
    cfg = SearchConfig(restarts=5, max_iter=60, seed=11)
    cold = gate_fidelity(impl, cfg)
    given = gate_fidelity(impl, cfg, starts=_search_starts(cfg)[1])
    assert given.fidelity_sq.hex() == cold.fidelity_sq.hex()
    assert given.final_states.tobytes() == cold.final_states.tobytes()
    assert [t["final"] for t in given.trace] == [t["final"] for t in cold.trace]
    assert given.trace[0]["start"] == "given-0"
    # one row per start, the worst among them, and in neither repr nor equality
    assert cold.final_states.shape == (len(cold.trace), 4)
    assert np.min(np.linalg.norm(cold.final_states - cold.worst_state.amplitudes, axis=1)) < 1e-12
    assert "final_states" not in repr(cold)
    assert dataclasses.replace(cold, final_states=None) == cold
    # the final states reproduce the minimum without a step
    again = gate_fidelity(impl, SearchConfig(max_iter=0), starts=cold.final_states)
    assert again.fidelity_sq.hex() == cold.fidelity_sq.hex()
    assert again.evaluations == len(cold.trace)


@pytest.mark.parametrize("kind", ["spin-3", "boson-1"])
def test_fidelity_keeps_its_relative_precision_near_zero(kind):
    # coefficients of size 1e-5 leave the gate next to the identity,
    # whose worst case against CNOT is F = 0: the minimum found is about
    # 2e-11, where F^2 = sum_k r_k^2 keeps its relative precision and
    # the shorter W (M^T M) W^T loses about 1e-5 of it
    sc = build_spin(3) if kind == "spin-3" else build_boson(1.0)
    basis = commutant_basis(sc.law)
    coefficients = 1e-5 * np.random.default_rng(3).standard_normal(basis.generator_count)
    impl = GateImplementation(sc.spec, conserving_unitary(basis, coefficients), sc.ancilla_state)
    res = gate_fidelity(impl, SearchConfig(restarts=4, max_iter=80))
    assert 1e-12 < res.fidelity_sq < 1e-10
    expected = kraus_fidelity_sq(impl)(res.worst_state.amplitudes[None, :])[0]
    assert res.fidelity_sq == pytest.approx(expected, rel=1e-9, abs=0.0)


def _unit_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    w = rng.standard_normal((count, 8))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _geodesic_hessian(fsq_of, w: np.ndarray, h: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian Hessian H of F^2 at the unit vector w of R^8, in an
    orthonormal basis b_i of the tangent space: the central second
    difference along the geodesic cos(t) w + sin(t) u, u = d / |d|, gives
    u^T H u, for d = b_i + b_j, so H_ij = (d^T H d - H_ii - H_jj) / 2."""
    basis = np.linalg.svd(np.eye(8) - np.outer(w, w))[0][:, :7]
    pairs = list(itertools.combinations_with_replacement(range(7), 2))
    dirs = np.array([basis[:, i] + basis[:, j] for i, j in pairs])
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    units = dirs / norms
    pts = np.concatenate([w[None, :], np.cos(h) * w + np.sin(h) * units, np.cos(h) * w - np.sin(h) * units])
    f = fsq_of(pts[:, :4] + 1j * pts[:, 4:])
    n = len(pairs)
    quad = dict(zip(pairs, (f[1 : n + 1] + f[n + 1 :] - 2.0 * f[0]) / h**2 * norms[:, 0] ** 2))
    hess = np.empty((7, 7))
    for i, j in pairs:
        diag_i, diag_j = quad[i, i] / 4.0, quad[j, j] / 4.0
        hess[i, j] = hess[j, i] = diag_i if i == j else (quad[i, j] - diag_i - diag_j) / 2.0
    return basis, hess


def _newton_case(name: str) -> GateImplementation:
    if name == "xx-2":
        return GateImplementation(SPEC22, conserving_xx_unitary(4))
    if name == "spin-3":
        return _spin3_implementations()[0]
    boson = build_boson(float(name.removeprefix("boson-")))
    return random_conserving_implementation(
        5, boson.law, strength=0.5, ancilla_state=boson.ancilla_state
    )


@pytest.mark.parametrize("name, d_anc", [("xx-2", 1), ("spin-3", 2), ("boson-1", 13)])
def test_evaluator_rows_match_the_kraus_forms(name, d_anc):
    # r, S and J^T J = W K against derivatives of z_a = <psi|A_a|psi>
    # contracted directly with the oracle's forms: the coordinate e_i of
    # R^8 is the state E_i = e_i (i < 4) or i e_(i-4) of C^4, so
    # dz_a / dw_i = <E_i|A_a|psi> + <psi|A_a|E_i> and
    # d^2 z_a / dw_i dw_j = <E_i|A_a|E_j> + <E_j|A_a|E_i>
    impl = _newton_case(name)
    assert impl.spec.ancilla_dim == d_anc
    forms = kraus_forms(impl)
    ev = _FidelityEvaluator(impl)
    w = _unit_rows(np.random.default_rng(9), 4)
    psi = w[:, :4] + 1j * w[:, 4:]
    basis = np.concatenate([np.eye(4), 1j * np.eye(4)])
    z = np.einsum("ni,aij,nj->na", psi.conj(), forms, psi)
    dz = np.einsum("ki,aij,nj->nak", basis.conj(), forms, psi)
    dz += np.einsum("ni,aij,kj->nak", psi.conj(), forms, basis)
    d2z = np.einsum("ki,aij,lj->akl", basis.conj(), forms, basis)
    d2z += np.swapaxes(d2z, 1, 2)
    jac = np.concatenate([dz.real, dz.imag], axis=1)
    curvature = 0.5 * (
        np.einsum("na,akl->nkl", z.real, d2z.real) + np.einsum("na,akl->nkl", z.imag, d2z.imag)
    )

    before = ev.evaluations
    points = ev.points(w)
    assert ev.evaluations == before + len(w)
    big_w = points[:, _BIG_W]
    res = big_w @ ev._rows.T
    np.testing.assert_allclose(res, np.concatenate([z.real, z.imag], axis=1), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(big_w, np.einsum("ni,nj->nij", w, w).reshape(-1, 64))
    assert points.shape == (len(w), 137)
    np.testing.assert_array_equal(points[:, _W], w)
    np.testing.assert_allclose(points[:, _S].reshape(-1, 8, 8), curvature, rtol=0, atol=1e-14)
    np.testing.assert_allclose(points[:, _FSQ], kraus_fidelity_sq(impl)(psi), rtol=1e-13)
    np.testing.assert_allclose(
        (big_w @ ev._gram).reshape(-1, 8, 8), np.swapaxes(jac, 1, 2) @ jac, rtol=0, atol=1e-13
    )
    # the right-hand side T^T r, with the tangent Jacobian T = J (I - w w^T)
    tangent = jac - (jac @ w[:, :, None]) * w[:, None, :]
    _, rhs = _newton_system(ev, points, np.full(len(w), 0.5))
    np.testing.assert_allclose(rhs, np.einsum("nki,nk->ni", tangent, res), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name, d_anc", [("spin-3", 2), ("boson-1", 13), ("boson-4", 23)])
def test_newton_matrix_is_half_the_riemannian_hessian(name, d_anc):
    # F^2 for the finite differences comes from the oracle's Kraus forms,
    # not from the evaluator whose matrix is under test
    impl = _newton_case(name)
    assert impl.spec.ancilla_dim == d_anc
    fsq_of = kraus_fidelity_sq(impl)
    ev = _FidelityEvaluator(impl)
    w = _unit_rows(np.random.default_rng(8), 3)
    damping = np.array([0.7, 2.0, 40.0])
    normal, _ = _newton_system(ev, ev.points(w), damping)
    for row in range(len(w)):
        basis, hess = _geodesic_hessian(fsq_of, w[row])
        tangent_part = basis.T @ (normal[row] - damping[row] * np.eye(8)) @ basis
        scale = np.linalg.norm(hess)
        assert np.linalg.norm(tangent_part - 0.5 * hess) <= 1e-5 * scale
        # N maps w to damping * w and, being symmetric, the tangent space
        # into itself: the solved move stays tangent
        assert normal[row] @ w[row] == pytest.approx(damping[row] * w[row], abs=1e-12)
        assert np.max(np.abs(normal[row] - normal[row].T)) <= 1e-12


def _assert_rows_go_on_alone(impl: GateImplementation) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = gate_fidelity(impl, SearchConfig(restarts=6, max_iter=40, tol=-1.0))
        alone = gate_fidelity(impl, SearchConfig(restarts=0, max_iter=40, tol=-1.0))
    seeds = [t for t in full.trace if t["start"].startswith("seed-")]
    assert [t["start"] for t in seeds] == [t["start"] for t in alone.trace]
    assert len(seeds) == 16 and len(full.trace) == 22
    for a, b in zip(seeds, alone.trace):
        assert a["final"] == pytest.approx(b["final"], abs=1e-12)
    assert np.isfinite(full.fidelity_sq)


def _first_points(impl: GateImplementation) -> tuple[tuple[str, ...], _FidelityEvaluator, np.ndarray, np.ndarray]:
    """The search's starts at ``SearchConfig(restarts=4)`` as packed rows,
    with the first damping 2."""
    labels, states = _search_starts(SearchConfig(restarts=4))
    ev = _FidelityEvaluator(impl)
    points = ev.points(np.concatenate([states.real, states.imag], axis=1))
    return labels, ev, points, np.full(len(points), 2.0)


def _first_newton_system(impl: GateImplementation) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    labels, ev, points, damping = _first_points(impl)
    normal, rhs = _newton_system(ev, points, damping)
    # each row's system is built on its own: alone it is the same bits
    for i in range(len(points)):
        one_normal, one_rhs = _newton_system(ev, points[i : i + 1], damping[i : i + 1])
        np.testing.assert_array_equal(one_normal[0], normal[i])
        np.testing.assert_array_equal(one_rhs[0], rhs[i])
    return labels, normal, rhs


def _projected_spin3() -> GateImplementation:
    sc = build_spin(3)
    basis = commutant_basis(sc.law)
    return GateImplementation(
        sc.spec, conserving_unitary(basis, projected_gate_coefficients(sc, basis)), sc.ancilla_state
    )


def _dyadic_phase_gate() -> GateImplementation:
    unitary = np.kron(cnot_unitary().entries @ np.diag([1, 1, 1j, 1j]), np.eye(2))
    return GateImplementation(HilbertSpec((2, 2, 2)), Operator(unitary, unitary=True), StateVector.basis(2, 0))


def test_singular_newton_system_falls_back_per_row():
    # at the projected gate the start |1>|+> (seed-14) has F^2 = 1 up to
    # rounding, so with the first damping 2 = 2 F^2 its Newton system is
    # exactly singular; that row keeps its place and the others go on as
    # if it were not there
    impl = _projected_spin3()
    labels, normal, rhs = _first_newton_system(impl)
    row = labels.index("seed-14")
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(normal[row], rhs[row])
    _assert_rows_go_on_alone(impl)


def test_dyadic_singular_newton_system_falls_back_per_row():
    # CNOT after the control phase gate diag(1, i) with an idle ancilla:
    # z = p + i (1 - p) with p = |psi_0|^2 + |psi_1|^2, so at |00> (seed-0)
    # F^2 = 1 and half the Riemannian Hessian is -2 along the four
    # tangents that move weight to |10> and |11>.  Every entry is a small
    # dyadic number computed without rounding, so with the first damping
    # 2 = 2 F^2 the row's Newton system is singular in exact arithmetic
    impl = _dyadic_phase_gate()
    labels, normal, rhs = _first_newton_system(impl)
    row = labels.index("seed-0")
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(normal[row], rhs[row])
    _assert_rows_go_on_alone(impl)


@pytest.mark.parametrize("case, known", [("projected-spin3", "seed-14"), ("dyadic", "seed-0")])
def test_singular_row_keeps_its_place(case, known):
    # a row whose own solve raises gets an all-zero move, so its trial is
    # rejected and its damping doubles; every other row gets exactly its
    # own solve.  On x86-64 with OpenBLAS 0.3.31 the singular rows are seed-5
    # and seed-14 of the projected gate and seed-0 to seed-3 of the dyadic one
    impl = _projected_spin3() if case == "projected-spin3" else _dyadic_phase_gate()
    labels, ev, points, damping = _first_points(impl)
    normal, rhs = _newton_system(ev, points, damping)
    moves, moves_rhs = _newton_moves(ev, points, damping)
    np.testing.assert_array_equal(moves_rhs, rhs)
    singular = []
    for i, label in enumerate(labels):
        try:
            own = np.linalg.solve(normal[i], rhs[i])
        except np.linalg.LinAlgError:
            singular.append(label)
            own = np.zeros(8)
        assert moves[i].tobytes() == own.tobytes(), label
    assert known in singular


def test_conserving_two_qubit_implementations_are_blind():
    # with charges X (x) I + I (x) X and no ancilla, |+-> pins the
    # total-charge sector while CNOT maps it across sectors, so every
    # conserving implementation scores exactly zero on that state
    plus_minus = StateVector.from_amplitudes([1.0, -1.0, 1.0, -1.0])
    for seed in range(6):
        impl = GateImplementation(SPEC22, conserving_xx_unitary(seed))
        assert state_fidelity(impl, plus_minus) <= 1e-12
        res = gate_fidelity(impl, SearchConfig(restarts=6, max_iter=150))
        assert res.fidelity <= 1e-6


def test_measurement_view_of_perfect_cnot():
    impl = GateImplementation(SPEC22, cnot_unitary())
    view = measurement_view(impl)
    assert view.pointer.entries[0, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(view.probe_state.amplitudes, [1.0, 0.0], atol=0)
    assert is_precise(view)
    assert is_nondisturbing(view)


def test_candidate_control_states_commutator_values():
    comm = commutator(Z, X)
    assert abs(expectation(comm, _PLUS)) == pytest.approx(0.0, abs=1e-12)
    assert abs(expectation(comm, _IPLUS)) == pytest.approx(2.0, abs=1e-12)


def _conserving_impl(seed: int):
    return GateImplementation(SPEC22, conserving_xx_unitary(seed)), ConservationLaw(SPEC22, X, X)


def test_noise_fidelity_link_reports():
    impl, law = _conserving_impl(11)
    fidelity = gate_fidelity(impl, SearchConfig(restarts=8, max_iter=150))
    sq, link, ceiling = noise_fidelity_link(impl, law, fidelity=fidelity)
    assert sq.relation == "squared-noise"
    assert link.relation == "fidelity-link"
    assert sq.passed() and link.passed()
    assert sq.digest == link.digest
    for key in ("eps", "eta", "sigma_l3", "commutator_abs", "fidelity_sq", "ceiling_fsq"):
        assert key in sq.details
    # the alternate candidate state is evaluated and recorded
    assert "plus_commutator_abs" in sq.details
    assert sq.details["plus_commutator_abs"] == pytest.approx(0.0, abs=1e-12)
    # no-ancilla spin charges: ceiling must be the n=2 value 15/16
    assert sq.details["ceiling_fsq"] == pytest.approx(15.0 / 16.0, abs=1e-12)
    # the third record checks F^2 against that ceiling, under the same
    # digest: the implementation, the law and the headline control state
    assert ceiling.relation == "sigma-ceiling" and ceiling.kind == "inequality"
    assert ceiling.digest == sq.digest == digest(implementation=impl, law=law, psi=_IPLUS)
    assert ceiling.lhs == fidelity.fidelity_sq
    assert ceiling.rhs == sq.details["ceiling_fsq"]
    assert ceiling.details == {"sigma_l3": sq.details["sigma_l3"]}
    assert ceiling.passed()


def _link_cases():
    """(implementation, law) for d_anc = 1, boson nbar = 1 and spin n = 3."""
    impl, law = _conserving_impl(11)
    boson = build_boson(1.0)
    spin = build_spin(3)
    return [
        (impl, law),
        (random_conserving_implementation(3, boson.law, ancilla_state=boson.ancilla_state), boson.law),
        (random_conserving_implementation(4, spin.law), spin.law),
    ]


@pytest.mark.parametrize("case", range(3), ids=["d1", "boson-nbar1", "spin3"])
@pytest.mark.parametrize("control", ["iplus", "plus"])
def test_noise_fidelity_link_reads_the_fundamental_bound(case, control):
    # the chain's first link is the fundamental trade-off bound on the
    # measurement view: the same ingredients, lhs and rhs, to the bit, at
    # the headline input and, in the plus_ details, at |+>
    impl, law = _link_cases()[case]
    fidelity = gate_fidelity(impl, SearchConfig(restarts=2, max_iter=20))
    sq = noise_fidelity_link(impl, law, fidelity=fidelity)[0]
    prefix = "" if control == "iplus" else "plus_"
    fund = trade_off_reports(measurement_view(impl), law, _IPLUS if control == "iplus" else _PLUS)[3]
    q = {key: sq.details[prefix + key] for key in ("eps", "eta", "sigma_l3", "commutator_abs")}
    for key, val in q.items():
        assert val == fund.details[key], key
    if control == "iplus":
        assert (sq.lhs, sq.rhs) == (fund.lhs, fund.rhs)
    else:  # the sides the first record takes at |+>, by the chain's own formulas
        lhs = q["commutator_abs"] ** 2 / (2.0 * (2.0 + q["sigma_l3"]) ** 2)
        assert (lhs, q["eps"] ** 2 + q["eta"] ** 2) == (fund.lhs, fund.rhs)


@pytest.mark.parametrize("case", ["spin3", "spin4", "boson-nbar1"])
def test_sigma_ceiling_is_the_same_record_at_every_control_state(case):
    # the ceiling's sigma(L3') is the headline input's, as l3_moments takes
    # it: a sigma taken at another control state gave two numbers for one
    # relation, the spin n=4 case below read rhs 0.973228 at the headline
    # input and 0.968316 at |+>
    if case == "boson-nbar1":
        scenario = build_boson(1.0)
        impl = random_conserving_implementation(3, scenario.law, ancilla_state=scenario.ancilla_state)
    else:
        scenario = build_spin(int(case[-1]))
        impl = random_conserving_implementation(3, scenario.law)
    fidelity = gate_fidelity(impl, SearchConfig(restarts=2, max_iter=20))
    record = noise_fidelity_link(impl, scenario.law, fidelity=fidelity)[2]
    assert (record.relation, record.lhs) == ("sigma-ceiling", fidelity.fidelity_sq)
    sigma = l3_moments(impl, scenario.law)[1]
    assert (record.rhs, record.details) == (sigma_ceiling_fsq(sigma), {"sigma_l3": sigma})


def test_noise_fidelity_link_evolves_the_charge_once(monkeypatch):
    impl, law = _link_cases()[1]
    error_operator(measurement_view(impl))  # the view's noise operators exist from here on
    evolve = waylab.operators.evolve
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("waylab") and getattr(module, "evolve", None) is evolve:
            monkeypatch.setattr(module, "evolve", lambda ops, u: calls.append(1) or evolve(ops, u))
    fidelity = gate_fidelity(impl, SearchConfig(restarts=2, max_iter=20))
    noise_fidelity_link(impl, law, fidelity=fidelity)
    assert len(calls) == 1


def test_evolve_takes_a_sequence():
    # a bare operator is not a sequence of them: an old-style
    # evolve(op, u) call fails instead of computing a wrong product
    with pytest.raises(TypeError):
        waylab.operators.evolve(X, Z)
    assert np.array_equal(waylab.operators.evolve((X,), Z)[0].entries, -X.entries)


def test_noise_fidelity_link_rejects_wrong_charges():
    impl, _ = _conserving_impl(2)
    bad_law = ConservationLaw(SPEC22, Z, Z)
    with pytest.raises(ValueError):
        noise_fidelity_link(impl, bad_law)


def test_noise_fidelity_link_rejects_nonconserving():
    law = ConservationLaw(SPEC22, X, X)
    impl = GateImplementation(SPEC22, cnot_unitary())
    with pytest.raises(ConservationError):
        noise_fidelity_link(impl, law)


def test_sigma_l3_reads_the_law_lift(monkeypatch):
    scenario = build_spin(3)
    impl = random_conserving_implementation(4, scenario.law)
    want = impl.unitary.entries.conj().T @ np.kron(
        np.eye(4), scenario.law.ancilla_part.entries
    ) @ impl.unitary.entries
    # the chain's headline input: control (|0> + i|1>)/sqrt(2), target |0>
    full = measurement_view(impl).initial_state(_IPLUS)
    scenario.law.total()  # the lifts exist from here on
    calls = []
    monkeypatch.setattr(HilbertSpec, "embed", lambda *a: calls.append(a) or None)
    assert waylab.cnot.l3_moments(impl, scenario.law) == moments(Operator(want), full)
    assert calls == []
    monkeypatch.undo()
    # a law whose ancilla lift cannot act on the implementation's space
    other = ConservationLaw(HilbertSpec((2, 2, 2, 2)), X, X, Operator(np.eye(4), hermitian=True))
    with pytest.raises(ValueError, match="does not fit"):
        waylab.cnot.l3_moments(impl, other)
