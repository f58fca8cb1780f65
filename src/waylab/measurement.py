"""Indirect measurement models and their error/disturbance figures.

A model couples an object system to a probe (and optionally an ancilla
group) through a unitary interaction, after which a pointer observable
is read out on the probe.  The quality of the scheme for measuring a
given object observable is captured by two root-mean-square figures:
the error (pointer after the interaction vs. observable before) and the
disturbance (observable after vs. before).  Both are defined through
Heisenberg-picture operators E and D on the total space.  One routine,
:func:`noise_images`, applies them to vectors, read from U x: the
figures take E x and D x at the input, the identities E and D at every
basis vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import UNITARY_TOL, HilbertSpec, Operator, StateVector, tensor_states

__all__ = [
    "IndirectMeasurementModel",
    "CertificationResult",
    "noise_images",
    "stacked_noise_images",
    "rms_error",
    "rms_disturbance",
    "is_precise",
    "is_nondisturbing",
]

PREDICATE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class IndirectMeasurementModel:
    """Object-probe(-ancilla) measurement scheme.

    Parameters
    ----------
    spec
        Factorization of the total space.
    probe_state
        Initial probe state (the pointer's ready state).
    ancilla_state
        Initial ancilla-group state; ``None`` means the trivial state on
        a spec without ancilla.
    interaction
        Unitary on the total space coupling the factors.
    pointer
        Hermitian observable read out on the probe after the interaction.
    observable
        Hermitian object observable the scheme is meant to measure.
    """

    spec: HilbertSpec
    probe_state: StateVector
    ancilla_state: StateVector | None
    interaction: Operator
    pointer: Operator
    observable: Operator

    def __post_init__(self) -> None:
        s = self.spec
        if self.probe_state.dim != s.probe_dim:
            raise ValueError(f"probe state dim {self.probe_state.dim}, expected {s.probe_dim}")
        anc = self.ancilla_state
        if anc is None:
            anc = StateVector(np.ones(1))
            object.__setattr__(self, "ancilla_state", anc)
        if anc.dim != s.ancilla_dim:
            raise ValueError(f"ancilla state dim {anc.dim}, expected {s.ancilla_dim}")
        if self.interaction.dim != s.total_dim:
            raise ValueError(
                f"interaction dim {self.interaction.dim}, expected {s.total_dim}"
            )
        if not self.interaction.is_unitary():
            raise ValueError(f"interaction must be unitary (within {UNITARY_TOL:g})")
        if self.pointer.dim != s.probe_dim or not self.pointer.is_hermitian():
            raise ValueError("pointer must be Hermitian on the probe factor")
        if self.observable.dim != s.object_dim or not self.observable.is_hermitian():
            raise ValueError("observable must be Hermitian on the object factor")

    def initial_state(self, psi: StateVector) -> StateVector:
        """Product state object x probe x ancilla for object state psi."""
        if psi.dim != self.spec.object_dim:
            raise ValueError(f"object state dim {psi.dim}, expected {self.spec.object_dim}")
        return tensor_states(psi, self.probe_state, self.ancilla_state)

    @functools.cached_property
    def _certificates(self) -> tuple[CertificationResult, CertificationResult]:
        """:func:`is_precise` and :func:`is_nondisturbing`, from one noise
        image pass, built on first use and kept: the model is immutable."""
        return _certify(self)


def noise_images(model: IndirectMeasurementModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E x = U^dag P U x - A x and D x = U^dag A U x - A x for the columns of ``x``,
    with P and A applied on their own factor: O(d^2) a column.  At the
    identity matrix the images are E and D themselves.  This is
    :func:`stacked_noise_images` of one model."""
    return stacked_noise_images(
        model.spec, model.interaction.entries, model.observable.entries, model.pointer.entries, x
    )


def stacked_noise_images(
    spec: HilbertSpec, u: np.ndarray, a: np.ndarray, p: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`noise_images` of a stack of models on ``spec``, given by their
    interactions ``u`` (..., d, d), observables ``a`` and pointers ``p``,
    for the columns ``x`` (..., d, n), whose leading axes broadcast with
    theirs.  Each product is one stacked call, which gives each model the
    bits of its own."""
    ux = u @ x
    shape, lead = ux.shape, ux.shape[:-2]
    ax = (a @ x.reshape(x.shape[:-2] + (spec.object_dim, -1))).reshape(shape)
    a_ux = (a @ ux.reshape(lead + (spec.object_dim, -1))).reshape(shape)
    p_ux = (p[..., None, :, :] @ ux.reshape(lead + (spec.object_dim, spec.probe_dim, -1))).reshape(shape)
    u_dag = u.conj().swapaxes(-1, -2)
    return u_dag @ p_ux - ax, u_dag @ a_ux - ax


def rms_error(model: IndirectMeasurementModel, psi: StateVector) -> float:
    """Root-mean-square error <E^2>^(1/2) in the product input state x: the norm of E x."""
    err, _ = noise_images(model, model.initial_state(psi).amplitudes[:, None])
    return math.sqrt(np.vdot(err, err).real)


def rms_disturbance(model: IndirectMeasurementModel, psi: StateVector) -> float:
    """Root-mean-square disturbance <D^2>^(1/2) in the product input state x: the norm of D x."""
    _, dist = noise_images(model, model.initial_state(psi).amplitudes[:, None])
    return math.sqrt(np.vdot(dist, dist).real)


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of a worst-case predicate over every object input state.

    ``ok`` says whether the worst case stays below the tolerance;
    ``worst_value`` and ``witness`` identify the worst input either
    way, so a failure always comes with a concrete state to inspect.
    """

    ok: bool
    worst_value: float
    witness: StateVector

    def __bool__(self) -> bool:
        return self.ok


def _certify(model: IndirectMeasurementModel) -> tuple[CertificationResult, CertificationResult]:
    """Exact worst cases over object states of the rms error and the rms
    disturbance, from one :func:`noise_images` pass.

    In the input psi x phi, with phi the probe (x ancilla) state, the
    mean square is psi^dag G psi, where G is the Gram matrix of the noise
    images of each object basis state x phi.  The worst rms is therefore
    sqrt(lambda_max(G)), at the top eigenvector.
    """
    phi = tensor_states(model.probe_state, model.ancilla_state).amplitudes
    err, dist = noise_images(model, np.kron(np.eye(model.spec.object_dim), phi[:, None]))
    return _worst_case(err), _worst_case(dist)


def _worst_case(images: np.ndarray) -> CertificationResult:
    """The certificate of the noise images of the object basis states:
    sqrt of the top eigenvalue of their Gram matrix, at its eigenvector."""
    values, vectors = np.linalg.eigh(images.conj().T @ images)
    worst = math.sqrt(max(float(values[-1]), 0.0))
    return CertificationResult(
        ok=worst <= PREDICATE_TOL, worst_value=worst, witness=StateVector(vectors[:, -1])
    )


def is_precise(model: IndirectMeasurementModel) -> CertificationResult:
    """Whether the rms error vanishes on every object input state.

    The exact worst case over object states (top Gram eigenvalue) is
    compared with ``PREDICATE_TOL``; its eigenvector is the witness.
    It shares one noise image pass with :func:`is_nondisturbing`.
    """
    return model._certificates[0]


def is_nondisturbing(model: IndirectMeasurementModel) -> CertificationResult:
    """Whether the rms disturbance vanishes on every object input state.

    The exact worst case over object states (top Gram eigenvalue) is
    compared with ``PREDICATE_TOL``; its eigenvector is the witness.
    It shares one noise image pass with :func:`is_precise`.
    """
    return model._certificates[1]
