"""Measurement-scheme tests: error/disturbance operators and predicates.

Hand-computed oracles: the standard CNOT coupling reads the control's Z
perfectly without disturbing it (E and D annihilate every ready-state
input), while an uncoupled pointer has error sqrt(2 - 2<Z>) and the same
coupling disturbs X on the control with RMS sqrt(2 - 2<X>_probe).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from waylab import (
    HilbertSpec,
    IndirectMeasurementModel,
    Operator,
    StateVector,
    cnot_unitary,
    expectation,
    is_nondisturbing,
    is_precise,
    rms_disturbance,
    rms_error,
    std_dev,
)
from waylab.bounds import identity_reports
from waylab.cnot import measurement_view, pauli
from waylab.conservation import ConservationLaw
from waylab.measurement import CertificationResult, noise_images
from waylab.operators import evolved_stack, tensor_states
from waylab.sampling import random_conserving_implementation, random_conserving_model, random_state
from waylab.scenarios import build_boson, build_spin, way_positive_control

from oracles import (
    OutcomeDistribution,
    noise_operators,
    object_state_cloud,
    outcome_distribution,
    worst_noise_over_states,
)


X = pauli("X")
Z = pauli("Z")
SPEC22 = HilbertSpec((2, 2))
I4 = Operator(np.eye(4))
KET0 = StateVector.basis(2, 0)
PLUS = StateVector.from_amplitudes([1.0, 1.0])


def cnot_z_model() -> IndirectMeasurementModel:
    """Probe |0>, CNOT coupling, pointer Z, measured observable Z."""
    return IndirectMeasurementModel(
        spec=SPEC22,
        probe_state=KET0,
        ancilla_state=None,
        interaction=cnot_unitary(),
        pointer=Z,
        observable=Z,
    )


def uncoupled_model() -> IndirectMeasurementModel:
    return IndirectMeasurementModel(
        spec=SPEC22,
        probe_state=KET0,
        ancilla_state=None,
        interaction=I4,
        pointer=Z,
        observable=Z,
    )


def test_model_validation():
    with pytest.raises(ValueError):
        IndirectMeasurementModel(
            SPEC22, KET0, None, Operator(2.0 * np.eye(4)), Z, Z
        )  # not unitary
    with pytest.raises(ValueError):
        IndirectMeasurementModel(SPEC22, KET0, None, I4, Operator(np.eye(3)), Z)
    with pytest.raises(ValueError):
        IndirectMeasurementModel(
            SPEC22, KET0, None, I4, Z, Operator(1j * X.entries)
        )  # observable not Hermitian
    with pytest.raises(ValueError):
        IndirectMeasurementModel(SPEC22, StateVector.basis(3, 0), None, I4, Z, Z)


def test_initial_state_product():
    model = cnot_z_model()
    psi = StateVector.from_amplitudes([3.0, 4.0])
    full = model.initial_state(psi)
    np.testing.assert_allclose(
        full.amplitudes, np.kron(psi.amplitudes, KET0.amplitudes), atol=1e-15
    )
    with pytest.raises(ValueError):
        model.initial_state(StateVector.basis(3, 0))


def _lifts(model):
    """The measured observable and the pointer at time zero."""
    s = model.spec
    return {
        "measured": s.embed(model.observable, "object"),
        "pointer": s.embed(model.pointer, "probe"),
    }


def test_heisenberg_cnot_propagates_pointer():
    # CNOT in the Heisenberg picture: Z2 -> Z1 Z2, Z1 -> Z1
    model = cnot_z_model()
    lifts = _lifts(model)
    np.testing.assert_allclose(
        evolved_stack(lifts["pointer"].entries[None], model.interaction.entries)[0],
        np.kron(Z.entries, Z.entries),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        evolved_stack(lifts["measured"].entries[None], model.interaction.entries)[0],
        lifts["measured"].entries,
        atol=1e-14,
    )


def test_heisenberg_preserves_spectrum():
    model = cnot_z_model()
    for lift in _lifts(model).values():
        before = np.linalg.eigvalsh(lift.entries)
        after = np.linalg.eigvalsh(evolved_stack(lift.entries[None], model.interaction.entries)[0])
        np.testing.assert_allclose(before, after, atol=1e-12)


def test_cnot_model_is_exact():
    model = cnot_z_model()
    assert is_precise(model).worst_value <= 1e-12
    assert is_nondisturbing(model).worst_value <= 1e-12


def test_uncoupled_pointer_error():
    # E = Z_probe - Z_object; at |+> the error is sqrt(2)
    model = uncoupled_model()
    assert rms_error(model, PLUS) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rms_error(model, KET0) == pytest.approx(0.0, abs=1e-7)
    minus = StateVector.from_amplitudes([1.0, -1.0])
    assert rms_error(model, minus) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_cnot_disturbs_conjugate_observable():
    # the same interaction that reads Z kicks X: X1 -> X1 X2, so
    # D = X1 X2 - X1 and <D^2> = 2(1 - <X>_probe) = 2 at probe |0>
    model = IndirectMeasurementModel(
        spec=SPEC22,
        probe_state=KET0,
        ancilla_state=None,
        interaction=cnot_unitary(),
        pointer=Z,
        observable=X,
    )
    assert rms_disturbance(model, PLUS) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rms_disturbance(model, KET0) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_error_and_disturbance_operators_are_hermitian():
    # the noise images of the whole basis are E and D themselves
    model = cnot_z_model()
    for op in noise_images(model, np.eye(model.spec.total_dim)):
        assert Operator(op).is_hermitian()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rms_error_decomposes_into_bias_and_spread(seed):
    # <E^2> = sigma(E)^2 + <E>^2 for any model and input
    model, _ = random_conserving_model(seed, HilbertSpec((2, 2)))
    rng = np.random.default_rng(seed + 1)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = StateVector.from_amplitudes(v)
    full = model.initial_state(psi)
    e = Operator(noise_operators(model)[0])
    eps = rms_error(model, psi)
    decomposed = std_dev(e, full) ** 2 + expectation(e, full).real ** 2
    assert eps**2 == pytest.approx(decomposed, abs=1e-9)


def test_outcome_distribution_validation():
    with pytest.raises(ValueError):
        OutcomeDistribution(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        OutcomeDistribution(np.array([0.0, 1.0]), np.array([0.7, 0.7]))
    dist = OutcomeDistribution(np.array([-1.0, 1.0]), np.array([0.25, 0.75]))
    assert dist.moment(1) == pytest.approx(0.5)
    assert dist.moment(2) == pytest.approx(1.0)


def test_outcome_distribution_perfect_model_agrees():
    # readout statistics after the interaction match the ideal object
    # statistics before it, outcome by outcome
    model = cnot_z_model()
    psi = StateVector.from_amplitudes([1.0, 2.0])
    before = outcome_distribution(model, psi, "measured", evolved=False)
    after = outcome_distribution(model, psi, "pointer", evolved=True)
    np.testing.assert_allclose(before.outcomes, after.outcomes, atol=1e-10)
    np.testing.assert_allclose(before.probabilities, after.probabilities, atol=1e-10)
    # Z-eigenvalues ascend (-1, +1): weight 4/5 on |1>, 1/5 on |0>
    np.testing.assert_allclose(before.probabilities, [0.8, 0.2], atol=1e-12)


def test_outcome_distribution_uncoupled_pointer_is_blind():
    # without coupling the pointer stays at its ready-state statistics
    model = uncoupled_model()
    psi = StateVector.from_amplitudes([1.0, 2.0])
    after = outcome_distribution(model, psi, "pointer", evolved=True)
    np.testing.assert_allclose(after.probabilities, [0.0, 1.0], atol=1e-12)


def test_predicates_on_perfect_model():
    model = cnot_z_model()
    precise = is_precise(model)
    benign = is_nondisturbing(model)
    assert precise and benign
    assert precise.worst_value <= 1e-12
    assert benign.worst_value <= 1e-12


def test_predicates_fail_with_witness():
    model = uncoupled_model()
    verdict = is_precise(model)
    assert not verdict
    assert verdict.worst_value > 1.0
    assert verdict.witness is not None
    # the witness state actually exhibits the reported error
    assert rms_error(model, verdict.witness) == pytest.approx(
        verdict.worst_value, rel=1e-9
    )


def test_certification_result_booliness():
    good = CertificationResult(ok=True, worst_value=0.0, witness=None)
    assert bool(good) is True


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 2, 2)])
def test_predicates_report_the_exact_worst_case(dims):
    # no object state beats the reported worst case, a dense qubit
    # lattice comes within its resolution of it, and the witness
    # attains it
    predicates = (
        ("error", is_precise, rms_error),
        ("disturbance", is_nondisturbing, rms_disturbance),
    )
    for seed in range(5):
        model, _ = random_conserving_model(seed, HilbertSpec(dims))
        psis = object_state_cloud(dims[0], np.random.default_rng(seed))
        for kind, predicate, rms in predicates:
            verdict = predicate(model)
            sampled = worst_noise_over_states(model, kind, psis)
            assert verdict.worst_value >= sampled - 1e-12
            if dims[0] == 2:
                assert verdict.worst_value <= sampled + 1e-4
            assert rms(model, verdict.witness) == pytest.approx(verdict.worst_value, abs=1e-9)


def _heisenberg_figures(model, psi):
    """(rms, worst case) of E and then of D, read from the dense
    Heisenberg-picture operators: the norm of E x at x = psi x phi, and
    the square root of the top eigenvalue of the Gram matrix of E
    applied to each object basis state x phi."""
    phi = tensor_states(model.probe_state, model.ancilla_state).amplitudes
    state = model.initial_state(psi).amplitudes
    figures = []
    for op in noise_operators(model):
        images = op.reshape(len(op), model.spec.object_dim, phi.size) @ phi
        top = np.linalg.eigvalsh(images.conj().T @ images)[-1]
        figures.append((np.linalg.norm(op @ state), math.sqrt(max(top, 0.0))))
    return figures


def _figure_cases():
    """(name, model, law): random models, CNOT views and the positive controls."""
    for dims in ((2, 2), (2, 2, 2), (2, 2, 2, 2)):  # the CLI's default layouts
        for seed in range(3):
            yield f"random-{dims}-{seed}", *random_conserving_model(seed, HilbertSpec(dims))
    for name, scenario in (("spin3", build_spin(3)), ("boson-nbar1", build_boson(1.0))):
        for seed in range(2):
            impl = random_conserving_implementation(
                seed, scenario.law, ancilla_state=scenario.ancilla_state
            )
            yield f"{name}-view-{seed}", measurement_view(impl), scenario.law
    for basis, charge, observable in (("x", X, X), ("z", Z, Z), ("scalar", X, Operator(np.eye(2)))):
        law = ConservationLaw(HilbertSpec((2, 2, 2)), charge, charge, charge)
        yield f"positive-control-{basis}", way_positive_control(observable, law), law


@pytest.mark.parametrize(
    "name, model", [pytest.param(name, model, id=name) for name, model, _ in _figure_cases()]
)
def test_figures_match_the_heisenberg_forms(name, model):
    # eps, eta and the worst cases are read from U applied to the input;
    # they agree with the dense noise operators to rounding
    psi = random_state(np.random.default_rng(len(name)), model.spec.object_dim)
    (eps, worst_e), (eta, worst_d) = _heisenberg_figures(model, psi)
    for value, reference in (
        (rms_error(model, psi), eps),
        (rms_disturbance(model, psi), eta),
        (is_precise(model).worst_value, worst_e),
        (is_nondisturbing(model).worst_value, worst_d),
    ):
        assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference))
    if name.startswith("positive-control"):
        assert max(is_precise(model).worst_value, is_nondisturbing(model).worst_value) <= 1e-12


@pytest.mark.parametrize("name, model, law", [pytest.param(*case, id=case[0]) for case in _figure_cases()])
def test_noise_images_of_the_basis_are_the_noise_operators(name, model, law):
    # at the identity the images are E and D: they match the dense
    # Kronecker-lifted forms to rounding, are Hermitian, and the
    # identities built on them close
    for image, reference in zip(noise_images(model, np.eye(model.spec.total_dim)), noise_operators(model)):
        scale = max(1.0, np.linalg.norm(reference, 2))
        assert np.linalg.norm(image - reference, 2) <= 1e-13 * scale
        assert np.linalg.norm(image - image.conj().T, 2) <= 1e-12
    assert max(rep.lhs for rep in identity_reports(model, law)) <= 1e-12
