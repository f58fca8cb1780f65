"""Seeded generators for laws, models, and implementations.

Everything here is deterministic given an integer seed (numpy PCG64),
which is what lets CLI reports and the test suite replay each other's
runs exactly.
"""

from __future__ import annotations

import numpy as np

from .cnot import GateImplementation
from .conservation import CommutantBasis, ConservationLaw, commutant_basis, conserving_unitary
from .measurement import IndirectMeasurementModel
from .operators import HilbertSpec, Operator, StateVector

__all__ = [
    "DEFAULT_STRENGTH",
    "random_state",
    "random_conserving_model",
    "random_conserving_implementation",
]

# Scale of a sampled implementation's standard normal commutant coefficients.
DEFAULT_STRENGTH = 1.0


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    """Haar-ish random pure state: normalized complex Gaussian vector."""
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.from_amplitudes(raw)


def random_hermitian(rng: np.random.Generator, dim: int) -> Operator:
    """GUE-style random Hermitian matrix."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator((raw + raw.conj().T) * 0.5, hermitian=True)


def random_integer_spectrum_hermitian(rng: np.random.Generator, dim: int) -> Operator:
    """Random Hermitian with integer eigenvalues in -2..2.

    Integer spectra keep the total charge's eigenvalue clusters well
    separated, so the commutant block structure is unambiguous.  The
    eigenbasis is Haar random (QR of a complex Gaussian matrix).
    """
    spectrum = rng.integers(-2, 3, size=dim).astype(float)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    diag = r.diagonal()
    q = q * (diag / np.abs(diag))
    return Operator((q * spectrum) @ q.conj().T, hermitian=True)


def random_law(rng: np.random.Generator, spec: HilbertSpec) -> ConservationLaw:
    """Random additive law with integer charge spectra on each factor."""
    return ConservationLaw(
        spec=spec,
        object_part=random_integer_spectrum_hermitian(rng, spec.object_dim),
        probe_part=random_integer_spectrum_hermitian(rng, spec.probe_dim),
        ancilla_part=random_integer_spectrum_hermitian(rng, spec.ancilla_dim),
    )


def random_conserving_model(
    seed: int, spec: HilbertSpec
) -> tuple[IndirectMeasurementModel, ConservationLaw]:
    """Random measurement model whose interaction conserves a random law.

    The law, the commutant coefficients, the probe/ancilla states, and
    the observable/pointer pair are all drawn from one PCG64 stream, so
    a single integer reproduces the whole scenario.
    """
    rng = np.random.default_rng(seed)
    law = random_law(rng, spec)
    basis = commutant_basis(law)
    u = conserving_unitary(basis, rng.standard_normal(basis.generator_count))
    model = IndirectMeasurementModel(
        spec=spec,
        probe_state=random_state(rng, spec.probe_dim),
        ancilla_state=random_state(rng, spec.ancilla_dim) if spec.has_ancilla else None,
        interaction=u,
        pointer=random_hermitian(rng, spec.probe_dim),
        observable=random_hermitian(rng, spec.object_dim),
    )
    return model, law


def random_conserving_implementation(
    seed: int,
    law: ConservationLaw,
    basis: CommutantBasis | None = None,
    strength: float = DEFAULT_STRENGTH,
    ancilla_state: StateVector | None = None,
) -> GateImplementation:
    """Random CNOT candidate conserving the given law.

    Pass a precomputed ``basis`` when sampling many implementations of
    the same law.  The ancilla state is drawn from the seed stream
    unless one is supplied (bosonic scenarios fix a coherent state).
    """
    rng = np.random.default_rng(seed)
    if basis is None:
        basis = commutant_basis(law)
    coeffs = rng.standard_normal(basis.generator_count) * strength
    u = conserving_unitary(basis, coeffs)
    spec = law.spec
    if ancilla_state is None and spec.has_ancilla:
        ancilla_state = random_state(rng, spec.ancilla_dim)
    return GateImplementation(spec=spec, unitary=u, ancilla_state=ancilla_state)
