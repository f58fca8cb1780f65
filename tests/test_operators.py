"""Operator-layer tests: algebra, tensor plumbing, and the spectral
oracles (``tests/oracles.py``) that other tests build on.

The uncertainty-relation property at the bottom doubles as the unit-level
version of the Robertson check that the acceptance suite runs at scale.
"""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from waylab import (
    HilbertSpec,
    Operator,
    StateVector,
    commutator,
    expectation,
    operator_norm,
    std_dev,
    tensor_states,
)
import waylab.operators
from waylab.cnot import pauli

from oracles import eig_hermitian, expm_skew, gue_hermitian


X = pauli("X")
Y = pauli("Y")
Z = pauli("Z")


def test_pauli_commutator_zx():
    # [Z, X] = 2iY fixes the sign convention everything downstream uses.
    np.testing.assert_allclose(
        commutator(Z, X).entries, 2j * Y.entries, atol=1e-15
    )


def test_operator_rejects_nonsquare():
    with pytest.raises(ValueError):
        Operator(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("flags", [{}, {"hermitian": True}, {"unitary": True}])
def test_operator_and_state_reject_non_finite_entries(bad, flags):
    # a NaN passes every "deviation > tol" comparison, so each
    # constructor has to refuse it outright
    entries = np.eye(2, dtype=np.complex128)
    entries[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Operator(entries, **flags)
    with pytest.raises(ValueError, match="finite"):
        StateVector(np.array([1.0, bad]))
    # huge finite entries overflow the cheap sum-of-squares test but pass
    assert Operator(np.full((2, 2), 1e200)).dim == 2


def test_operator_flag_validation():
    nonherm = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Operator(nonherm, hermitian=True)
    with pytest.raises(ValueError):
        Operator(nonherm, unitary=True)
    # the same matrix is fine without advisory flags
    assert not Operator(nonherm).is_hermitian()


def test_is_hermitian_reads_the_flag_and_checks_once(monkeypatch):
    calls = []
    defect = waylab.operators._hermiticity_defect
    monkeypatch.setattr(
        waylab.operators, "_hermiticity_defect", lambda m: calls.append(1) or defect(m)
    )
    # within FLAG_TOL of Hermitian, but not exactly
    skew = np.array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
    flagged = Operator(skew, hermitian=True)
    assert len(calls) == 1  # the construction check
    assert flagged.is_hermitian() and flagged.is_hermitian()
    assert len(calls) == 1
    # an unflagged operator is checked once
    plain = Operator(skew)
    assert plain.is_hermitian() and plain.is_hermitian()
    assert len(calls) == 2
    assert not Operator(np.array([[0.0, 1.0], [0.0, 0.0]])).is_hermitian()


def test_operator_entries_frozen():
    op = Operator(np.eye(2))
    with pytest.raises((ValueError, RuntimeError)):
        op.entries[0, 0] = 5.0


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    sv = StateVector.from_amplitudes([1.0, 1.0])
    assert sv.dim == 2
    np.testing.assert_allclose(np.linalg.norm(sv.amplitudes), 1.0, atol=1e-14)


def test_state_basis_and_overlap():
    e0 = StateVector.basis(4, 0)
    e3 = StateVector.basis(4, 3)
    assert np.vdot(e0.amplitudes, e3.amplitudes) == 0
    plus = StateVector.from_amplitudes([1.0, 1.0])
    assert abs(np.vdot(plus.amplitudes, StateVector.basis(2, 0).amplitudes)) == pytest.approx(
        1 / np.sqrt(2)
    )


def test_density_is_projector():
    psi = StateVector.from_amplitudes([1.0, 1j, 0.5])
    rho = Operator(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    assert rho.is_hermitian()
    np.testing.assert_allclose(rho.entries @ rho.entries, rho.entries, atol=1e-14)
    assert np.trace(rho.entries) == pytest.approx(1.0)


def test_tensor_entry_convention():
    # (X (x) X)[0, 3] couples |00> with |11>: the object factor is slowest.
    spec = HilbertSpec((2, 2))
    xx = spec.embed(X, "object").entries @ spec.embed(X, "probe").entries
    assert xx[0, 3] == pytest.approx(1.0)
    assert xx[0, 0] == pytest.approx(0.0)


def test_tensor_matches_kron_and_associativity():
    # each role's lift is the left-slowest Kronecker product with
    # identities, byte for byte, a stack's lift is the lift of each of its
    # matrices, and the three lifts multiply to the Kronecker product
    rng = np.random.default_rng(4)
    for dims in ((2, 2), (1, 2), (3, 2), (2, 3, 2), (2, 2, 2, 2)):
        spec = HilbertSpec(dims)
        d_obj, d_probe, d_anc = spec.object_dim, spec.probe_dim, spec.ancilla_dim
        krons = {
            "object": (d_obj, lambda m: np.kron(m, np.eye(d_probe * d_anc))),
            "probe": (d_probe, lambda m: np.kron(np.kron(np.eye(d_obj), m), np.eye(d_anc))),
            "ancilla": (d_anc, lambda m: np.kron(np.eye(d_obj * d_probe), m)),
        }
        firsts = []
        for role, (d, kron) in krons.items():
            stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
            stack[0, 0, 0] = -0.0  # a negative zero keeps its sign as np.kron keeps it
            lifted = spec.lift(stack, role)
            assert lifted.shape == (3, spec.total_dim, spec.total_dim)
            for m, lift in zip(stack, lifted):
                assert spec.lift(m, role).tobytes() == lift.tobytes() == kron(m).tobytes(), (dims, role)
                assert spec.embed(Operator(m), role).entries.tobytes() == lift.tobytes()
            firsts.append(stack[0])
        a, b, c = firsts
        lifts = [spec.lift(m, role) for m, role in zip(firsts, krons)]
        np.testing.assert_allclose(
            lifts[0] @ lifts[1] @ lifts[2], np.kron(np.kron(a, b), c), rtol=0, atol=1e-13
        )


def test_evolved_stack_refuses_a_non_hermitian_operand():
    # the images are validated Hermitian as one stack: one non-Hermitian
    # operand among Hermitian ones is refused.  A stack of cases, each
    # with its own U, gives every image the bits of its own product
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="hermitian flag set"):
        waylab.operators.evolved_stack(np.array([X.entries, raising]), u)
    images = waylab.operators.evolved_stack(np.array([X.entries, Z.entries]), u)
    np.testing.assert_allclose(images[1], u.conj().T @ Z.entries @ u, atol=0)
    us = np.array([u, np.eye(2), u.conj().T])
    stacks = np.array([[X.entries, Z.entries], [Z.entries, X.entries], [Z.entries, Z.entries]])
    evolved = waylab.operators.evolved_stack(stacks, us)
    assert evolved.shape == (3, 2, 2, 2)
    for case, v, images in zip(stacks, us, evolved):
        for m, image in zip(case, images):
            assert image.tobytes() == (v.conj().T @ m @ v).tobytes()


def test_grouped_evaluates_each_key_once_in_order_of_first_appearance():
    calls = []

    def evaluate(members):
        calls.append(members)
        return [f"{i}/{len(members)}" for i in members]

    out = waylab.operators.grouped(["b", "a", "b", "c", "a", "b"], evaluate)
    assert calls == [[0, 2, 5], [1, 4], [3]]
    assert out == ["0/3", "1/2", "2/3", "3/1", "4/2", "5/3"]
    # no keys, no call
    assert waylab.operators.grouped([], lambda members: calls.append(members) or []) == []
    assert len(calls) == 3


def test_flag_checks_refuse_a_nan_stack():
    # a NaN defect fails the comparison (nan > tol is False, so a check
    # that asked that passed it, and only Operator's own finiteness check
    # caught the NaN); the stacked evolution builds no Operator
    stack = np.array([np.eye(2), np.eye(2)], dtype=complex)
    stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="hermitian flag set but max.* = nan"):
        waylab.operators._check_flags(stack, hermitian=True, unitary=None)
    with pytest.raises(ValueError, match="unitary flag set but max.* = nan"):
        waylab.operators._check_flags(stack, hermitian=None, unitary=True)
    with pytest.raises(ValueError, match="hermitian flag set"):
        waylab.operators.flagged_operators(stack, hermitian=True)
    with pytest.raises(ValueError, match="hermitian flag set"):
        waylab.operators.evolved_stack(stack, np.eye(2))
    np.testing.assert_array_equal(waylab.operators.evolved_stack(stack[:1], np.eye(2)), stack[:1])


def test_flagged_operators_are_read_only_views_of_one_checked_copy():
    rng = np.random.default_rng(4)
    mats = [gue_hermitian(rng, d).entries.copy() for d in (2, 3, 2)]
    ops = waylab.operators.flagged_operators(mats, hermitian=True)
    for op, mat in zip(ops, mats):
        assert op.entries.tobytes() == mat.tobytes() and op.entries.dtype == np.complex128
        assert not op.entries.flags.writeable and op.hermitian is True and op.unitary is None
    # the two 2 x 2 matrices share one stack, copied from the caller's input,
    # so writing to that input afterwards changes no operator
    assert ops[0].entries.base is ops[2].entries.base
    kept = [op.entries.copy() for op in ops]
    for mat in mats:
        mat[...] = 7.0
    assert all(op.entries.tobytes() == k.tobytes() for op, k in zip(ops, kept))
    stack = np.array([np.eye(2), np.diag([1.0, -1.0])])
    ops = waylab.operators.flagged_operators(stack, hermitian=True, unitary=True)
    stack[...] = np.nan
    assert [op.entries.tolist() for op in ops] == [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]
    # one NaN refuses the whole stack: by its flag when one is set, and
    # otherwise by the finiteness check
    stack = np.array([np.eye(2), np.eye(2), np.eye(2)])
    stack[2, 1, 1] = np.nan
    with pytest.raises(ValueError, match="hermitian flag set"):
        waylab.operators.flagged_operators(stack, hermitian=True)
    with pytest.raises(ValueError, match="must be finite"):
        waylab.operators.flagged_operators(list(stack))


def test_tensor_states_matches_kron():
    plus = StateVector.from_amplitudes([1.0, 1.0])
    e1 = StateVector.basis(2, 1)
    both = tensor_states(plus, e1)
    np.testing.assert_allclose(
        both.amplitudes, np.kron(plus.amplitudes, e1.amplitudes), atol=1e-15
    )


def test_embed_roles():
    spec = HilbertSpec((2, 2, 2))
    np.testing.assert_allclose(
        spec.embed(X, "object").entries,
        np.kron(X.entries, np.eye(4)),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        spec.embed(X, "probe").entries,
        np.kron(np.kron(np.eye(2), X.entries), np.eye(2)),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        spec.embed(X, "ancilla").entries,
        np.kron(np.eye(4), X.entries),
        atol=1e-15,
    )
    with pytest.raises(ValueError):
        spec.embed(X, "pointer")
    with pytest.raises(ValueError):
        spec.embed(Operator(np.eye(3)), "object")
    # the lift checks the role and the trailing dimensions of a matrix or stack
    with pytest.raises(ValueError, match="unknown role"):
        spec.lift(np.eye(2), "pointer")
    for bad in (np.eye(3), np.zeros((4, 2, 3)), np.zeros((4, 3, 3)), np.zeros(2)):
        with pytest.raises(ValueError, match="expected"):
            spec.lift(bad, "probe")


def test_hilbert_spec_shapes():
    spec = HilbertSpec((2, 3, 2, 2))
    assert spec.object_dim == 2
    assert spec.probe_dim == 3
    assert spec.ancilla_dim == 4
    assert spec.total_dim == 24
    assert spec.has_ancilla
    assert not HilbertSpec((2, 2)).has_ancilla
    with pytest.raises(ValueError):
        HilbertSpec((2,))


@pytest.mark.parametrize("dims", [(2, 2.0), (2, 2.9), (2, "2"), (2, True), (True, True)])
def test_hilbert_spec_refuses_factors_that_are_not_integers(dims):
    # int() made (2, 2), (2, 1) and (1, 1) of these
    with pytest.raises(ValueError, match="must be integers"):
        HilbertSpec(dims)


def test_hilbert_spec_stores_numpy_integers_as_python_ints():
    spec = HilbertSpec((np.int64(2), np.int32(3)))
    assert spec.factor_dims == (2, 3) and all(type(d) is int for d in spec.factor_dims)


def test_hilbert_spec_refuses_a_total_past_the_dense_limit():
    # only the dimensions are checked here: no matrix on such a space is built
    assert HilbertSpec((2, 2, 1024)).total_dim == waylab.operators.MAX_TOTAL_DIM == 4096
    for dims in ((2, 2, 1025), (2,) * 13, (64, 64, 64)):
        with pytest.raises(ValueError, match="exceeds the dense limit 4096"):
            HilbertSpec(dims)
    # the message names the factor count, not each factor: it printed all
    # of them, 300 048 characters for 100 000 qubits
    with pytest.raises(ValueError) as info:
        HilbertSpec((2,) * 100_000)
    assert str(info.value) == "total dimension of 100000 factors exceeds the dense limit 4096"


def test_expectation_and_std_dev():
    plus = StateVector.from_amplitudes([1.0, 1.0])
    assert expectation(X, plus) == pytest.approx(1.0)
    assert expectation(Z, plus) == pytest.approx(0.0)
    assert std_dev(Z, plus) == pytest.approx(1.0)
    # eigenstate variance cancels to float noise: sqrt(eps) ~ 1.5e-8
    assert std_dev(X, plus) == pytest.approx(0.0, abs=1e-7)


def _two_site_x() -> Operator:
    return Operator(np.kron(X.entries, np.eye(2)) + np.kron(np.eye(2), X.entries), hermitian=True)


def test_operator_norm_examples():
    assert operator_norm(Z) == pytest.approx(1.0)
    assert operator_norm(Operator(X.entries + Z.entries)) == pytest.approx(np.sqrt(2.0))
    assert operator_norm(_two_site_x()) == pytest.approx(2.0)


def test_expm_skew_pauli_x_half_turn():
    # exp(-i (pi/2) X) = -iX
    u = expm_skew(X, np.pi / 2)
    np.testing.assert_allclose(u.entries, -1j * X.entries, atol=1e-14)
    assert u.is_unitary()


def test_expm_skew_z_rotation():
    u = expm_skew(Z, np.pi / 4)
    np.testing.assert_allclose(
        u.entries,
        np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]),
        atol=1e-14,
    )


def test_expm_skew_rejects_nonhermitian():
    with pytest.raises(ValueError):
        expm_skew(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_expm_skew_unitary_roundtrip():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = Operator((m + m.conj().T) / 2, hermitian=True)
    u = expm_skew(h, 0.7)
    np.testing.assert_allclose(
        u.entries @ u.entries.conj().T, np.eye(5), atol=1e-12
    )
    # group property: U(t) U(s) = U(t + s)
    np.testing.assert_allclose(
        expm_skew(h, 0.3).entries @ expm_skew(h, 0.4).entries, u.entries, atol=1e-12
    )


def test_eig_hermitian_clusters_degenerate_levels():
    two_site = _two_site_x()
    values, projectors = eig_hermitian(two_site)
    np.testing.assert_allclose(values, [-2.0, 0.0, 2.0], atol=1e-12)
    ranks = [int(round(np.trace(p.entries).real)) for p in projectors]
    assert ranks == [1, 2, 1]
    total = sum((p.entries for p in projectors), np.zeros((4, 4)))
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)
    for val, p in zip(values, projectors):
        np.testing.assert_allclose(p.entries @ p.entries, p.entries, atol=1e-12)
        np.testing.assert_allclose(
            two_site.entries @ p.entries, val * p.entries, atol=1e-12
        )


def test_eig_hermitian_spectral_reconstruction():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = Operator((m + m.conj().T) / 2, hermitian=True)
    values, projectors = eig_hermitian(h)
    rebuilt = sum(
        (v * p.entries for v, p in zip(values, projectors)),
        np.zeros((6, 6), dtype=complex),
    )
    np.testing.assert_allclose(rebuilt, h.entries, atol=1e-12)


def _random_state(rng: np.random.Generator, dim: int) -> StateVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.from_amplitudes(v)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16))
def test_robertson_uncertainty_property(seed, dim):
    # sigma(X) sigma(Y) >= |<[X, Y]>| / 2 for any pair and any state.
    rng = np.random.default_rng(seed)
    a = gue_hermitian(rng, dim)
    b = gue_hermitian(rng, dim)
    psi = _random_state(rng, dim)
    lhs = std_dev(a, psi) * std_dev(b, psi)
    rhs = abs(expectation(commutator(a, b), psi)) / 2
    assert lhs >= rhs - 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 9))
def test_variance_is_minimum_over_shifts(seed, dim):
    # <(A - c)^2> is minimized at c = <A>, so std_dev must not exceed
    # the RMS deviation from any other reference point.
    rng = np.random.default_rng(seed)
    a = gue_hermitian(rng, dim)
    psi = _random_state(rng, dim)
    c = rng.standard_normal()
    shifted = a.entries - c * np.eye(dim)
    rms_from_c = np.sqrt(expectation(Operator(shifted @ shifted), psi).real)
    assert std_dev(a, psi) <= rms_from_c + 1e-12
