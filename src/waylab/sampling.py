"""Seeded generators for laws, models, and implementations.

Everything here is deterministic given an integer seed (numpy PCG64),
which is what lets CLI reports and the test suite replay each other's
runs exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cnot import GateImplementation
from .conservation import (
    CommutantBasis,
    ConservationLaw,
    commutant_bases,
    commutant_basis,
    conserving_unitaries,
    conserving_unitary,
)
from .measurement import IndirectMeasurementModel
from .operators import HilbertSpec, Operator, StateVector, flagged_operators, grouped, normalized_states

__all__ = [
    "DEFAULT_STRENGTH",
    "random_state",
    "random_conserving_model",
    "random_conserving_models",
    "random_conserving_implementation",
]

# Scale of a sampled implementation's standard normal commutant coefficients.
DEFAULT_STRENGTH = 1.0


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    """Haar-ish random pure state, a normalized complex Gaussian vector: :func:`random_states` of one."""
    return random_states([rng], [dim])[0]


def random_states(rngs: Sequence[np.random.Generator], dims: Sequence[int]) -> list[StateVector]:
    """:func:`random_state` of each stream and dimension, in order, bit for bit: one draw a state, real parts
    first, those of one dimension normalized as one stack (:func:`~waylab.operators.normalized_states`)."""
    raws = [rng.standard_normal(2 * dim) for rng, dim in zip(rngs, dims)]

    def normalized(members: list[int]) -> list[StateVector]:
        raw, d = np.array([raws[i] for i in members]), dims[members[0]]
        return normalized_states(raw[:, :d] + 1j * raw[:, d:])

    return grouped(dims, normalized)


def _gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """dim x dim complex standard normals, real parts first, in one draw: the bits of two."""
    raw = rng.standard_normal((2, dim, dim))
    return raw[0] + 1j * raw[1]


def _integer_spectrum_hermitians(spectra: Sequence[np.ndarray], raws: Sequence[np.ndarray]) -> list[Operator]:
    """Random Hermitians with the given integer spectra, one per Gaussian matrix.

    Integer spectra keep the total charge's eigenvalue clusters well
    separated, so the commutant block structure is unambiguous.  The
    eigenbasis is Haar random: the QR of the Gaussian matrix, with the
    phases of R's diagonal moved into Q.  The matrices of one dimension
    are factored by one stacked ``qr``, which gives each the bits of its
    own call.
    """
    def haar(members: list[int]) -> np.ndarray:
        q, r = np.linalg.qr(np.array([raws[i] for i in members]))
        diag = np.diagonal(r, axis1=1, axis2=2)
        q = q * (diag / np.abs(diag))[:, None, :]
        spectrum = np.array([spectra[i] for i in members])[:, None, :]
        return (q * spectrum) @ q.conj().swapaxes(1, 2)

    return flagged_operators(grouped([len(raw) for raw in raws], haar), hermitian=True)


def _random_laws(rngs: Sequence[np.random.Generator], specs: Sequence[HilbertSpec]) -> list[ConservationLaw]:
    """A random additive law on each spec, drawn from its own stream:
    the object, probe and ancilla charges, each an integer spectrum in
    -2..2 and then its Gaussian matrix."""
    spectra, raws = [], []
    for rng, spec in zip(rngs, specs):
        for d in (spec.object_dim, spec.probe_dim, spec.ancilla_dim):
            spectra.append(rng.integers(-2, 3, size=d).astype(float))
            raws.append(_gaussian(rng, d))
    parts = _integer_spectrum_hermitians(spectra, raws)
    return [ConservationLaw(spec, *parts[3 * i : 3 * i + 3]) for i, spec in enumerate(specs)]


def random_conserving_model(
    seed: int, spec: HilbertSpec
) -> tuple[IndirectMeasurementModel, ConservationLaw]:
    """Random measurement model whose interaction conserves a random law.

    The law, the commutant coefficients, the probe/ancilla states, and
    the observable/pointer pair are all drawn from one PCG64 stream, in
    that order, so a single integer reproduces the whole scenario.  This
    is :func:`random_conserving_models` of one case.
    """
    return random_conserving_models([seed], [spec])[0]


def random_conserving_models(
    seeds: Sequence[int], specs: Sequence[HilbertSpec]
) -> list[tuple[IndirectMeasurementModel, ConservationLaw]]:
    """:func:`random_conserving_model` of each (seed, spec) pair, bit for
    bit, with the linear algebra of all the cases done together.

    Each case draws from its own stream in its own order.  The cases'
    law factors of one dimension share one stacked ``qr``, their laws of
    one layout one stacked lift and ``eigh`` (:func:`commutant_bases`),
    their commutant blocks of one size one ``eigh`` and block exponential
    (:func:`conserving_unitaries`), their states of one dimension one check
    (:func:`random_states`): each matrix has the bits of its own call.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    laws = _random_laws(rngs, specs)
    bases = commutant_bases(laws)
    coefficients = [rng.standard_normal(basis.generator_count) for rng, basis in zip(rngs, bases)]
    unitaries = conserving_unitaries(bases, coefficients)
    # each stream draws its probe state, its ancilla state if any, then its pointer and observable
    dims = [[spec.probe_dim] + [spec.ancilla_dim] * spec.has_ancilla for spec in specs]
    drawn = iter(random_states([rng for rng, ds in zip(rngs, dims) for _ in ds], [d for ds in dims for d in ds]))
    states = [(next(drawn), next(drawn) if spec.has_ancilla else None) for spec in specs]
    raws = [_gaussian(rng, d) for rng, spec in zip(rngs, specs) for d in (spec.probe_dim, spec.object_dim)]
    def symmetrized(members: list[int]) -> np.ndarray:
        g = np.array([raws[i] for i in members])
        return (g + g.conj().swapaxes(1, 2)) * 0.5

    hermitians = flagged_operators(grouped([len(g) for g in raws], symmetrized), hermitian=True)
    return [
        (
            IndirectMeasurementModel(
                spec=spec,
                probe_state=probe,
                ancilla_state=ancilla,
                interaction=u,
                pointer=hermitians[2 * i],
                observable=hermitians[2 * i + 1],
            ),
            law,
        )
        for i, (spec, (probe, ancilla), u, law) in enumerate(zip(specs, states, unitaries, laws))
    ]


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
