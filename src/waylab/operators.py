"""Dense operator and state primitives on finite tensor-product spaces.

Everything downstream works with explicit complex matrices, so this
module keeps the representation deliberately plain: an operator is a
square ``complex128`` array plus optional advisory flags, a state is a
normalized amplitude vector, and a :class:`HilbertSpec` records how the
total space factors into object, probe, and ancilla parts.  Dimensions
stay small enough (a few hundred) that dense linear algebra is both the
simplest and the most reliable tool.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FLAG_TOL",
    "UNITARY_TOL",
    "DEGENERACY_TOL",
    "HilbertSpec",
    "Operator",
    "StateVector",
    "tensor",
    "tensor_states",
    "partial_trace",
    "commutator",
    "evolve",
    "expectation",
    "std_dev",
    "operator_norm",
    "expm_skew",
    "eig_hermitian",
    "identity",
    "zero",
]

# Tolerance used when validating hermiticity / normalization flags at
# construction time.
FLAG_TOL = 1e-12
# Tolerance used when validating that a matrix is unitary.
UNITARY_TOL = 1e-10
# Eigenvalues closer than this are treated as a single degenerate level.
DEGENERACY_TOL = 1e-8


def _unitarity_defect(entries: np.ndarray) -> float:
    """max|M^dag M - I|: the dense product behind every unitarity check."""
    return float(np.max(np.abs(entries.conj().T @ entries - np.eye(entries.shape[0]))))


def _as_complex_matrix(entries: object) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator entries must be a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Operator:
    """A linear operator on a finite-dimensional space.

    Parameters
    ----------
    entries
        Square complex matrix.  Copied and frozen on construction.
    hermitian, unitary
        Advisory flags.  ``None`` means "not checked".  Passing ``True``
        triggers a validation against the matrix (hermiticity within
        ``1e-12``, unitarity within ``1e-10``) and raises ``ValueError``
        if the claim does not hold.
    """

    entries: np.ndarray
    hermitian: bool | None = None
    unitary: bool | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _as_complex_matrix(self.entries))
        if self.hermitian:
            dev = float(np.max(np.abs(self.entries - self.entries.conj().T)))
            if dev > FLAG_TOL:
                raise ValueError(f"hermitian flag set but max|M - M^dag| = {dev:.3e}")
        if self.unitary:
            dev = _unitarity_defect(self.entries)
            if dev > UNITARY_TOL:
                raise ValueError(f"unitary flag set but max|M^dag M - I| = {dev:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def dagger(self) -> "Operator":
        return Operator(self.entries.conj().T, hermitian=self.hermitian, unitary=self.unitary)

    def is_hermitian(self, tol: float = FLAG_TOL) -> bool:
        return float(np.max(np.abs(self.entries - self.entries.conj().T))) <= tol

    def is_unitary(self, tol: float = UNITARY_TOL) -> bool:
        """Whether max|M^dag M - I| <= tol.

        At the default tolerance a validated ``unitary=True`` flag
        answers, and otherwise the first answer is kept: the entries are
        read-only, so it cannot go stale.
        """
        if tol == UNITARY_TOL:
            return self._unitary_at_default_tol
        return _unitarity_defect(self.entries) <= tol

    @functools.cached_property
    def _unitary_at_default_tol(self) -> bool:
        return bool(self.unitary) or _unitarity_defect(self.entries) <= UNITARY_TOL

    # Small arithmetic surface; flags propagate only where that is cheap
    # and always correct.
    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_dim(other)
        herm = True if (self.hermitian and other.hermitian) else None
        return Operator(self.entries + other.entries, hermitian=herm)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_dim(other)
        herm = True if (self.hermitian and other.hermitian) else None
        return Operator(self.entries - other.entries, hermitian=herm)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_dim(other)
        unit = True if (self.unitary and other.unitary) else None
        return Operator(self.entries @ other.entries, unitary=unit)

    def __mul__(self, scalar: complex) -> "Operator":
        s = complex(scalar)
        herm = True if (self.hermitian and s.imag == 0.0) else None
        return Operator(self.entries * s, hermitian=herm)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.entries, hermitian=self.hermitian)

    def _check_same_dim(self, other: "Operator") -> None:
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:  # keep reprs short; matrices can be large
        return f"Operator(dim={self.dim}, hermitian={self.hermitian}, unitary={self.unitary})"


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state.

    Normalization is enforced at construction: the amplitude vector must
    have unit norm within ``1e-12``.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("state vector must have at least one amplitude")
        nrm = float(np.linalg.norm(arr))
        if abs(nrm - 1.0) > FLAG_TOL:
            raise ValueError(f"state vector not normalized: |psi| = {nrm!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> Operator:
        """Rank-one density operator |psi><psi|."""
        return Operator(np.outer(self.amplitudes, self.amplitudes.conj()), hermitian=True)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    @staticmethod
    def basis(dim: int, index: int) -> "StateVector":
        """Computational basis state |index> in the given dimension."""
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return StateVector(amps)

    @staticmethod
    def from_amplitudes(values: Sequence[complex]) -> "StateVector":
        """Build a state from unnormalized amplitudes (normalizes them)."""
        arr = np.asarray(values, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(arr))
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(arr / nrm)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


@dataclass(frozen=True)
class HilbertSpec:
    """Factorization of the total space into object, probe, and ancilla.

    ``factor_dims[0]`` is the object factor, ``factor_dims[1]`` the
    probe, and any remaining factors form the ancilla group.  The
    ancilla group may be empty, in which case its collective dimension
    is 1 and ancilla-side operators are trivial.
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if len(dims) < 2:
            raise ValueError("need at least object and probe factors")
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def object_dim(self) -> int:
        return self.factor_dims[0]

    @property
    def probe_dim(self) -> int:
        return self.factor_dims[1]

    @property
    def ancilla_dims(self) -> tuple[int, ...]:
        return self.factor_dims[2:]

    @property
    def ancilla_dim(self) -> int:
        return int(np.prod(self.ancilla_dims, dtype=np.int64)) if self.ancilla_dims else 1

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims, dtype=np.int64))

    @property
    def has_ancilla(self) -> bool:
        return self.ancilla_dim > 1

    def embed(self, op: Operator, role: str) -> Operator:
        """Lift an operator on one named factor to the total space.

        ``role`` is one of ``"object"``, ``"probe"``, ``"ancilla"``.
        The ancilla role expects an operator on the full ancilla group
        (dimension ``ancilla_dim``).
        """
        d_obj, d_probe, d_anc = self.object_dim, self.probe_dim, self.ancilla_dim
        if role == "object":
            if op.dim != d_obj:
                raise ValueError(f"object operator has dim {op.dim}, expected {d_obj}")
            mat = np.kron(op.entries, np.eye(d_probe * d_anc))
        elif role == "probe":
            if op.dim != d_probe:
                raise ValueError(f"probe operator has dim {op.dim}, expected {d_probe}")
            mat = np.kron(np.kron(np.eye(d_obj), op.entries), np.eye(d_anc))
        elif role == "ancilla":
            if op.dim != d_anc:
                raise ValueError(f"ancilla operator has dim {op.dim}, expected {d_anc}")
            mat = np.kron(np.eye(d_obj * d_probe), op.entries)
        else:
            raise ValueError(f"unknown role {role!r}")
        return Operator(mat, hermitian=op.hermitian, unitary=op.unitary)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim), hermitian=True, unitary=True)


def zero(dim: int) -> Operator:
    return Operator(np.zeros((dim, dim)), hermitian=True)


def tensor(*ops: Operator) -> Operator:
    """Kronecker product of operators, left factor slowest."""
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    mat = ops[0].entries
    herm: bool | None = ops[0].hermitian
    unit: bool | None = ops[0].unitary
    for op in ops[1:]:
        mat = np.kron(mat, op.entries)
        herm = True if (herm and op.hermitian) else None
        unit = True if (unit and op.unitary) else None
    return Operator(mat, hermitian=herm, unitary=unit)


def tensor_states(*states: StateVector) -> StateVector:
    """Kronecker product of state vectors, left factor slowest."""
    if not states:
        raise ValueError("tensor_states() needs at least one state")
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    return StateVector(amps)


def partial_trace(rho: Operator, spec: HilbertSpec, keep: Iterable[int]) -> Operator:
    """Trace out all factors of ``spec`` except those listed in ``keep``.

    Parameters
    ----------
    rho
        Operator on the total space of ``spec``.
    keep
        Indices into ``spec.factor_dims`` of the factors to retain, in
        their original order.  Must be nonempty and in range.

    Returns
    -------
    Operator on the retained factors (their dimensions multiplied in
    the original factor order).
    """
    dims = spec.factor_dims
    n = len(dims)
    keep_list = sorted(set(int(k) for k in keep))
    if not keep_list:
        raise ValueError("keep set must be nonempty")
    if keep_list[0] < 0 or keep_list[-1] >= n:
        raise ValueError(f"keep indices {keep_list} out of range for {n} factors")
    if rho.dim != spec.total_dim:
        raise ValueError(f"operator dim {rho.dim} does not match spec total {spec.total_dim}")

    tensor_form = rho.entries.reshape(dims + dims)
    # Trace out the complement one factor at a time, highest index first
    # so earlier axis numbers stay valid.
    traced = tensor_form
    remaining = n
    for ax in sorted(set(range(n)) - set(keep_list), reverse=True):
        traced = np.trace(traced, axis1=ax, axis2=ax + remaining)
        remaining -= 1
    kept_dim = int(np.prod([dims[k] for k in keep_list], dtype=np.int64))
    return Operator(traced.reshape(kept_dim, kept_dim))


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = ab - ba."""
    a._check_same_dim(b)
    return Operator(a.entries @ b.entries - b.entries @ a.entries)


def evolve(op: Operator, u: Operator) -> Operator:
    """Heisenberg-picture image U^dag op U of a Hermitian operator."""
    return Operator(u.entries.conj().T @ op.entries @ u.entries, hermitian=True)


def expectation(op: Operator, psi: StateVector) -> complex:
    """<psi| op |psi> as a complex number (real for Hermitian op)."""
    if op.dim != psi.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, state {psi.dim}")
    return complex(np.vdot(psi.amplitudes, op.entries @ psi.amplitudes))


def std_dev(op: Operator, psi: StateVector) -> float:
    """Standard deviation of a Hermitian observable in a pure state.

    Computed as sqrt(<op^2> - <op>^2) with the variance clipped at zero
    to absorb roundoff.
    """
    if op.dim != psi.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, state {psi.dim}")
    vec = op.entries @ psi.amplitudes
    mean = float(np.real(np.vdot(psi.amplitudes, vec)))
    second = float(np.real(np.vdot(vec, vec)))
    return math.sqrt(max(second - mean * mean, 0.0))


def operator_norm(op: Operator) -> float:
    """Largest singular value (spectral norm)."""
    return float(np.linalg.norm(op.entries, ord=2))


def expm_skew(h: Operator, t: float = 1.0) -> Operator:
    """Unitary exp(-i t h) for Hermitian h, via eigendecomposition.

    Diagonalizing keeps the result unitary to machine precision for the
    moderate dimensions used here, unlike a truncated series.
    """
    if not h.is_hermitian(FLAG_TOL * max(1.0, operator_norm(h))):
        raise ValueError("expm_skew expects a Hermitian generator")
    vals, vecs = np.linalg.eigh(h.entries)
    phases = np.exp(-1j * float(t) * vals)
    mat = (vecs * phases) @ vecs.conj().T
    return Operator(mat, unitary=True)


def eig_hermitian(op: Operator, degeneracy_tol: float = DEGENERACY_TOL) -> tuple[np.ndarray, list[Operator]]:
    """Spectral decomposition with degenerate levels merged.

    Eigenvalues within ``degeneracy_tol`` of each other are clustered
    into a single level whose reported value is the cluster mean and
    whose projector spans the whole eigenspace.

    Returns
    -------
    (values, projectors)
        ``values`` strictly ascending; ``projectors`` the matching
        orthogonal projectors, summing to the identity.
    """
    if not op.is_hermitian(max(FLAG_TOL, FLAG_TOL * operator_norm(op))):
        raise ValueError("eig_hermitian expects a Hermitian operator")
    vals, vecs = np.linalg.eigh(op.entries)
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[clusters[-1][-1]] <= degeneracy_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    out_vals = np.array([float(np.mean(vals[c])) for c in clusters])
    out_projs = []
    for c in clusters:
        block = vecs[:, c]
        out_projs.append(Operator(block @ block.conj().T, hermitian=True))
    return out_vals, out_projs
