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
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

__all__ = [
    "FLAG_TOL",
    "UNITARY_TOL",
    "DEGENERACY_TOL",
    "HilbertSpec",
    "Operator",
    "StateVector",
    "tensor_states",
    "commutator",
    "evolved_stack",
    "expectation",
    "std_dev",
    "stacked_moments",
    "inner_products",
    "operator_norm",
    "operator_norms",
    "zero",
]

# Tolerance used when validating hermiticity / normalization flags at
# construction time.
FLAG_TOL = 1e-12
# Tolerance used when validating that a matrix is unitary.
UNITARY_TOL = 1e-10
# Eigenvalues closer than this are treated as a single degenerate level.
DEGENERACY_TOL = 1e-8
MAX_TOTAL_DIM = 4096  # largest total dimension of a HilbertSpec: a dense complex matrix is 256 MiB
# A stack of total-space matrices that is built for many cases or blocks at
# once holds at most this many entries (1 MiB of complex128) unless one of
# its matrices alone holds more.
CHUNK_ENTRIES = 2**16


def _hermiticity_defect(entries: np.ndarray) -> float:
    """max|M - M^dag|: the comparison behind every hermiticity check,
    taken over every matrix of a stack at once, with the difference
    formed in the adjoint's own array."""
    diff = entries.conj().swapaxes(-1, -2)
    np.subtract(entries, diff, out=diff)
    return float(np.abs(diff).max())


def _unitarity_defect(entries: np.ndarray) -> float:
    """max|M^dag M - I|: the dense product behind every unitarity check,
    taken over every matrix of a stack at once."""
    gram = entries.conj().swapaxes(-1, -2) @ entries
    return float(np.abs(gram - np.eye(entries.shape[-1])).max())


def _check_flags(entries: np.ndarray, hermitian: bool | None, unitary: bool | None) -> None:
    """Raise ``ValueError`` unless every matrix of ``entries`` (one, or a
    stack) is what a set flag claims.  A NaN defect fails the comparison."""
    if hermitian:
        dev = _hermiticity_defect(entries)
        if not dev <= FLAG_TOL:
            raise ValueError(f"hermitian flag set but max|M - M^dag| = {dev:.3e}")
    if unitary:
        dev = _unitarity_defect(entries)
        if not dev <= UNITARY_TOL:
            raise ValueError(f"unitary flag set but max|M^dag M - I| = {dev:.3e}")


def _check_finite(entries: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of ``entries`` (one matrix,
    or a stack) is finite."""
    # sum |M_ij|^2 is one BLAS dot, cheaper than an elementwise isfinite at
    # these sizes; it is finite unless an entry is not or the squares overflow
    if not math.isfinite(np.vdot(entries, entries).real) and not np.isfinite(entries).all():
        raise ValueError("operator entries must be finite")


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors or two matrices (or stacks of
    matrices), left factor slowest: the products ``np.kron`` forms, bit
    for bit, without its shape handling, which dominates at these sizes."""
    if a.ndim == 1:
        return (a[:, None] * b).reshape(-1)
    # matrices may come as stacks, whose leading axes broadcast
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    shape = out.shape
    return out.reshape(shape[:-4] + (shape[-4] * shape[-3], shape[-2] * shape[-1]))


def _as_complex_matrix(entries: object) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator entries must be a square matrix, got shape {arr.shape}")
    _check_finite(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Operator:
    """A linear operator on a finite-dimensional space.

    Parameters
    ----------
    entries
        Square complex matrix of finite numbers.  Copied and frozen on
        construction.
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
        _check_flags(self.entries, self.hermitian, self.unitary)

    @classmethod
    def _checked(cls, entries: np.ndarray, hermitian: bool | None, unitary: bool | None) -> "Operator":
        """The operator on ``entries`` as given, with no copy and no check:
        ``entries`` must be a read-only square complex128 matrix that has
        passed the checks ``__post_init__`` makes (its finiteness, then its
        set flags), as :func:`flagged_operators` makes them of a stack."""
        op = object.__new__(cls)
        op.__dict__.update(entries=entries, hermitian=hermitian, unitary=unitary)
        return op

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self) -> bool:
        """Whether max|M - M^dag| <= ``FLAG_TOL``; answered as :meth:`is_unitary` is."""
        return self._hermitian

    @functools.cached_property
    def _hermitian(self) -> bool:
        return bool(self.hermitian) or _hermiticity_defect(self.entries) <= FLAG_TOL

    def is_unitary(self) -> bool:
        """Whether max|M^dag M - I| <= ``UNITARY_TOL``.  A validated flag
        answers, and otherwise the first answer is kept: the entries are
        read-only, so it cannot go stale."""
        return self._unitary

    @functools.cached_property
    def _unitary(self) -> bool:
        return bool(self.unitary) or _unitarity_defect(self.entries) <= UNITARY_TOL

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

    Normalization is enforced at construction: the amplitudes must be
    finite and have unit norm within ``1e-12``.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("state vector must have at least one amplitude")
        # the norm from one sum of squares: NaN or infinite when an
        # amplitude is, and this comparison fails on NaN
        nrm = math.sqrt(np.vdot(arr, arr).real)
        if not abs(nrm - 1.0) <= FLAG_TOL:
            raise ValueError(f"state vector must be finite and normalized: |psi| = {nrm!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

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
    is 1 and ancilla-side operators are trivial.  A total dimension above
    ``MAX_TOTAL_DIM`` is refused before any matrix on it is built.
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        for d in self.factor_dims:
            if isinstance(d, bool) or not isinstance(d, numbers.Integral):
                raise ValueError(f"factor dimensions must be integers, got {d!r}")
        dims = tuple(int(d) for d in self.factor_dims)  # numpy integers become Python ints
        if len(dims) < 2:
            raise ValueError("need at least object and probe factors")
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        # stops at the first partial product past the limit; names no factor
        if any(t > MAX_TOTAL_DIM for t in itertools.accumulate(dims, operator.mul)):
            raise ValueError(
                f"total dimension of {len(dims)} factors exceeds the dense limit {MAX_TOTAL_DIM}"
            )
        object.__setattr__(self, "factor_dims", dims)

    @property
    def object_dim(self) -> int:
        return self.factor_dims[0]

    @property
    def probe_dim(self) -> int:
        return self.factor_dims[1]

    @functools.cached_property
    def ancilla_dim(self) -> int:
        return math.prod(self.factor_dims[2:])

    @functools.cached_property
    def total_dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def has_ancilla(self) -> bool:
        return self.ancilla_dim > 1

    def embed(self, op: Operator, role: str) -> Operator:
        """Lift an operator on one named factor to the total space: the
        :class:`Operator` of :meth:`lift` of its entries, with no flags."""
        return Operator(self.lift(op.entries, role))

    def lift(self, entries: np.ndarray, role: str) -> np.ndarray:
        """A matrix on one named factor, or a stack of them, lifted to the
        total space: the Kronecker product with identities on the other
        factors, left factor slowest.

        ``role`` is one of ``"object"``, ``"probe"``, ``"ancilla"``; the
        ancilla role takes matrices on the full ancilla group (dimension
        ``ancilla_dim``).  A stack is lifted as one broadcast product,
        which gives each matrix the bits of its own lift.
        """
        d_obj, d_probe, d_anc = self.object_dim, self.probe_dim, self.ancilla_dim
        want = {"object": d_obj, "probe": d_probe, "ancilla": d_anc}.get(role)
        if want is None:
            raise ValueError(f"unknown role {role!r}")
        if entries.shape[-2:] != (want, want):
            raise ValueError(f"{role} operator has shape {entries.shape[-2:]}, expected ({want}, {want})")
        if role == "object":
            return _outer(entries, np.eye(d_probe * d_anc))
        if role == "probe":
            return _outer(_outer(np.eye(d_obj), entries), np.eye(d_anc))
        return _outer(np.eye(d_obj * d_probe), entries)


def flagged_operators(
    mats: Sequence[np.ndarray], hermitian: bool | None = None, unitary: bool | None = None
) -> list[Operator]:
    """``Operator(m, hermitian=hermitian, unitary=unitary)`` for each
    square matrix ``m`` of ``mats`` (a list or a stack), in order: views of
    one read-only complex128 copy per dimension, which :func:`checked_stack`
    checks by one comparison for each set flag and one for finiteness."""
    def flag(members: list[int]) -> list[Operator]:
        stack = np.array(mats if len(members) == len(mats) else [mats[i] for i in members], dtype=np.complex128)
        checked_stack(stack, hermitian, unitary).setflags(write=False)
        return [Operator._checked(mat, hermitian, unitary) for mat in stack]

    return grouped([len(m) for m in mats], flag)


def grouped(keys: Sequence[Hashable], evaluate: Callable[[list[int]], Iterable]) -> list:
    """``evaluate(members)`` once per distinct key of ``keys``, keys in
    order of first appearance, with ``members`` the key's positions, and
    its results, one per member, put back at those positions: how the
    stacked routines group what they stack."""
    where: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        where.setdefault(key, []).append(i)
    out: list = [None] * len(keys)
    for members in where.values():
        for i, result in zip(members, evaluate(members)):
            out[i] = result
    return out


def zero(dim: int) -> Operator:
    return Operator(np.zeros((dim, dim)), hermitian=True)


def tensor_states(*states: StateVector) -> StateVector:
    """Kronecker product of state vectors, left factor slowest."""
    if not states:
        raise ValueError("tensor_states() needs at least one state")
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = _outer(amps, s.amplitudes)
    return StateVector(amps)


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = ab - ba: :func:`commutators` of their entries."""
    a._check_same_dim(b)
    return Operator(commutators(a.entries, b.entries))


def commutators(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] = xy - yx of two matrices, or of each pair of matrices of two
    stacks whose leading axes broadcast: the one commutator formula."""
    out = x @ y
    out -= y @ x
    return out


def evolved_stack(stack: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The Heisenberg-picture images U^dag M U of each Hermitian M of
    ``stack`` (..., m, d, d) under the unitaries ``u`` (..., d, d): the
    one evolved-charge helper.  One product, validated Hermitian and
    finite as one stack, so a non-Hermitian operand is a ``ValueError``.
    Each image has the bits of its own product."""
    images = u.conj().swapaxes(-1, -2)[..., None, :, :] @ stack @ u[..., None, :, :]
    return checked_stack(images, hermitian=True)


def checked_stack(stack: np.ndarray, hermitian: bool | None = None, unitary: bool | None = None) -> np.ndarray:
    """``stack`` (..., d, d), once it passes the checks :class:`Operator`
    makes of one matrix: every matrix what a set flag claims, then every
    entry finite, each one comparison for the whole stack."""
    _check_flags(stack, hermitian, unitary)
    _check_finite(stack)
    return stack


def expectation(op: Operator, psi: StateVector) -> complex:
    """<psi| op |psi> as a complex number (real for Hermitian op)."""
    if op.dim != psi.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, state {psi.dim}")
    return complex(np.vdot(psi.amplitudes, op.entries @ psi.amplitudes))


def std_dev(op: Operator, psi: StateVector) -> float:
    """Standard deviation of a Hermitian observable in a pure state,
    sqrt(<op^2> - <op>^2) from the one product op|psi>, with the variance
    clipped at zero to absorb roundoff; see :func:`stacked_moments`."""
    if op.dim != psi.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, state {psi.dim}")
    return stacked_moments(op.entries, psi.amplitudes[None, :, None])[1][0]


def stacked_moments(ops: np.ndarray, x: np.ndarray) -> tuple[list[float], list[float]]:
    """The mean and standard deviation of each Hermitian matrix of ``ops``
    (..., d, d) in each state of the columns ``x`` (..., d, 1), whose
    leading axes broadcast with theirs: the means and the deviations,
    flattened, each pair bit for bit its own one-matrix call's."""
    vec = ops @ x
    means = inner_products(x, vec).real.reshape(-1).tolist()
    seconds = inner_products(vec, vec).real.reshape(-1).tolist()
    return means, [math.sqrt(max(second - mean * mean, 0.0)) for mean, second in zip(means, seconds)]


def inner_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x|y> for each pair of columns of the stacks ``x`` and ``y``
    (..., d, 1), whose leading axes broadcast: one stacked product, with
    ``np.vdot``'s bits for each pair."""
    return (x.conj().swapaxes(-1, -2) @ y)[..., 0, 0]


def operator_norm(op: Operator) -> float:
    """Largest singular value (spectral norm): the first of the descending
    singular values, the number ``np.linalg.norm(ord=2)`` picks out of
    the same decomposition.  This is :func:`operator_norms` of one."""
    return operator_norms([op])[0]


def operator_norms(ops: Sequence[Operator]) -> list[float]:
    """:func:`operator_norm` of each operator, in order, with one stacked
    ``svd`` per dimension, which gives each matrix the bits of its own."""
    def top(members: list[int]) -> list[float]:
        return np.linalg.svd(np.array([ops[i].entries for i in members]), compute_uv=False)[:, 0].tolist()

    return grouped([op.dim for op in ops], top)
