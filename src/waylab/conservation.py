"""Additive conservation laws and the unitaries that respect them.

A law assigns one Hermitian charge to each of the object, probe, and
ancilla factors; the conserved quantity is the sum of their liftings to
the total space.  The set of unitaries commuting with that total charge
is ``exp(-i H)`` for ``H`` in the commutant of the charge, and the
commutant decomposes block-wise over the charge's eigenspaces.  This
module builds an orthonormal Hermitian basis of that commutant so that
conserving interactions can be parameterized, sampled, and optimized
over directly.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .operators import (
    CHUNK_ENTRIES,
    DEGENERACY_TOL,
    HilbertSpec,
    Operator,
    checked_stack,
    commutators,
    flagged_operators,
    grouped,
    zero,
)

__all__ = [
    "ConservationError",
    "ConservationLaw",
    "CommutantBasis",
    "conservation_residual",
    "commutant_basis",
    "commutant_bases",
    "conserving_unitary",
    "conserving_unitaries",
]


class ConservationError(ValueError):
    """Raised when a computation requires a conserving unitary but the
    supplied one fails the residual check."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"interaction does not conserve the total charge: "
            f"residual {residual:.6e} exceeds tolerance {tol:.1e}"
        )


@dataclass(frozen=True, eq=False)
class ConservationLaw:
    """Additive conserved quantity on an object/probe/ancilla space.

    Each part is a Hermitian operator on its own factor; ``ancilla_part``
    acts on the full ancilla group and may be omitted (``None``) when
    the spec has no ancilla, in which case it defaults to the 1x1 zero
    operator on the trivial factor.
    """

    spec: HilbertSpec
    object_part: Operator
    probe_part: Operator
    ancilla_part: Operator | None = None

    def __post_init__(self) -> None:
        anc = self.ancilla_part
        if anc is None:
            anc = zero(self.spec.ancilla_dim)
            object.__setattr__(self, "ancilla_part", anc)
        for name, part, want in (
            ("object_part", self.object_part, self.spec.object_dim),
            ("probe_part", self.probe_part, self.spec.probe_dim),
            ("ancilla_part", anc, self.spec.ancilla_dim),
        ):
            if part.dim != want:
                raise ValueError(f"{name} has dim {part.dim}, expected {want}")
            if not part.is_hermitian():
                raise ValueError(f"{name} must be Hermitian")

    @functools.cached_property
    def lifts(self) -> np.ndarray:
        """The object, probe and ancilla parts lifted to the total space
        and their sum, the total charge, as one read-only (4, d, d) stack
        in that order: the law's one holder of its charges.  Built once,
        by this law's own pass unless :func:`commutant_bases` filled it
        for a whole layout; the parts are read-only, so it cannot go stale."""
        return _stacked_lifts(self.spec, [self])[0]


_ROLES = (("object", "object_part"), ("probe", "probe_part"), ("ancilla", "ancilla_part"))


def _stacked_lifts(spec: HilbertSpec, laws: Sequence[ConservationLaw]) -> np.ndarray:
    """The lift stack of each law on ``spec``, as one read-only
    (laws, 4, d, d) array: each role's parts are lifted as one stack, and
    the totals are the stacks' sum l1 + l2 + l3 in that order, so every
    law gets the bits of its own pass.  Each of the four stacks is
    checked finite once, and the totals Hermitian as one stack."""
    l1, l2, l3 = (
        checked_stack(spec.lift(np.array([getattr(law, part).entries for law in laws]), role))
        for role, part in _ROLES
    )
    lifted = np.stack((l1, l2, l3, checked_stack(l1 + l2 + l3, hermitian=True)), axis=1)
    lifted.setflags(write=False)
    return lifted


def conservation_residual(u: Operator, law: ConservationLaw) -> float:
    """Spectral norm of [U, L_total], once it is checked finite: its first singular
    value, as :func:`~waylab.operators.operator_norm` reads it.  Zero iff U conserves L."""
    if u.dim != law.spec.total_dim:
        raise ValueError(f"unitary dim {u.dim} does not match law space {law.spec.total_dim}")
    return float(np.linalg.svd(checked_stack(commutators(u.entries, law.lifts[3])), compute_uv=False)[0])


class _Layout(NamedTuple):
    """Where each coefficient of a :class:`CommutantBasis` goes.

    The blocks are grouped by dimension: the k blocks of dimension d
    fill one (k, d, d) stack, and the stacks lie one after the other in
    a buffer of ``generator_count`` entries.  ``groups`` holds each
    stack's (d, k, offset in the buffer), by first appearance of d;
    ``blocks`` holds, for each block in block order, its slice of
    eigenbasis columns, its group and its place in that group.  The
    arrays pair coefficient indices with buffer entries: ``diag[i]``
    fills entry ``diag_at[i]``, and the pair ``sym[i]``, ``anti[i]``
    fills entry ``upper_at[i]`` at (i, j), i < j, and its mirror
    ``lower_at[i]`` at (j, i).
    ``frame`` is each buffer entry's flat position in the ``dim x dim``
    matrix in the eigenbasis.
    """

    groups: tuple[tuple[int, int, int], ...]
    blocks: tuple[tuple[slice, int, int], ...]
    diag: np.ndarray
    diag_at: np.ndarray
    sym: np.ndarray
    anti: np.ndarray
    upper_at: np.ndarray
    lower_at: np.ndarray
    frame: np.ndarray


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@functools.lru_cache(maxsize=128)
def _block_layout(dims: tuple[int, ...]) -> _Layout:
    """The :class:`_Layout` for these block dimensions, which are all it
    reads: built once per signature, with read-only arrays to share."""
    n = sum(dims)
    counts = Counter(dims)  # block sizes in order of first appearance
    groups: list[tuple[int, int, int]] = []
    group_of: dict[int, int] = {}
    offset = 0
    for g, (d, k) in enumerate(counts.items()):
        group_of[d] = g
        groups.append((d, k, offset))
        offset += k * d * d
    placed = dict.fromkeys(counts, 0)
    blocks: list[tuple[slice, int, int]] = []
    diag: list[int] = []
    diag_at: list[int] = []
    sym: list[int] = []
    anti: list[int] = []
    upper_at: list[int] = []
    lower_at: list[int] = []
    frame = [0] * offset
    col = pos = 0
    for d in dims:
        g, m = group_of[d], placed[d]
        placed[d] += 1
        blocks.append((slice(col, col + d), g, m))
        at = groups[g][2] + m * d * d
        iu, ju = (index.tolist() for index in np.triu_indices(d, 1))
        pairs = len(iu)
        diag += range(pos, pos + d)
        diag_at += range(at, at + d * d, d + 1)
        sym += range(pos + d, pos + d + pairs)
        anti += range(pos + d + pairs, pos + d * d)
        upper_at += [at + i * d + j for i, j in zip(iu, ju)]
        lower_at += [at + j * d + i for i, j in zip(iu, ju)]
        frame[at : at + d * d] = [(col + i) * n + col + j for i in range(d) for j in range(d)]
        col += d
        pos += d * d
    arrays = [np.array(x, dtype=np.intp) for x in (diag, diag_at, sym, anti, upper_at, lower_at, frame)]
    for arr in arrays:
        arr.setflags(write=False)
    return _Layout(tuple(groups), tuple(blocks), *arrays)


@dataclass(frozen=True, eq=False)
class CommutantBasis:
    """Orthonormal Hermitian basis of the commutant of a total charge.

    The basis is organized by eigenspace blocks of the charge.  For a
    block of dimension ``d`` (columns ``v_0 .. v_{d-1}`` of
    ``eigenbasis``) the generators are enumerated as

    * ``d`` diagonal units ``v_i v_i^dag``,
    * ``d(d-1)/2`` symmetric pairs ``(v_i v_j^dag + v_j v_i^dag)/sqrt(2)``
      for ``i < j``,
    * ``d(d-1)/2`` antisymmetric pairs
      ``i (v_i v_j^dag - v_j v_i^dag)/sqrt(2)`` for ``i < j``,

    all orthonormal under the trace inner product.  Blocks appear in
    ascending order of eigenvalue.  The dense generators are never
    formed: coefficients map to Hermitian blocks in the eigenbasis and
    back through one index layout (``_layout``), shared by every basis
    with the same block dimensions.  It groups the blocks by dimension,
    so all blocks of one size are filled, and exponentiated, as one stack.
    """

    eigenbasis: np.ndarray
    block_dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.eigenbasis.shape[0]

    @property
    def generator_count(self) -> int:
        return sum(d * d for d in self.block_dims)

    @functools.cached_property
    def _layout(self) -> _Layout:
        return _block_layout(self.block_dims)

    def _block_stacks(self, coefficients: np.ndarray) -> list[np.ndarray]:
        """The Hermitian blocks of each size group as one (k, d, d) stack,
        filled straight from the coefficient vector."""
        coeffs = np.asarray(coefficients, dtype=float).reshape(-1)
        if coeffs.size != self.generator_count:
            raise ValueError(
                f"expected {self.generator_count} coefficients, got {coeffs.size}"
            )
        lay = self._layout
        buf = np.zeros(coeffs.size, dtype=np.complex128)
        buf[lay.diag_at] = coeffs[lay.diag]
        upper = (coeffs[lay.sym] + 1j * coeffs[lay.anti]) * _INV_SQRT2
        buf[lay.upper_at] = upper
        buf[lay.lower_at] = np.conj(upper)
        return [buf[at : at + k * d * d].reshape(k, d, d) for d, k, at in lay.groups]

    def _pairings(self, entries: np.ndarray) -> np.ndarray:
        """Re tr(B_k X) for every generator B_k, from the block entries
        of X in the eigenbasis, laid out as the coefficient buffer."""
        lay = self._layout
        coeffs = np.empty(self.generator_count)
        upper, lower = entries[lay.upper_at], entries[lay.lower_at]
        coeffs[lay.diag] = np.real(entries[lay.diag_at])
        coeffs[lay.sym] = np.real(upper + lower) * _INV_SQRT2
        coeffs[lay.anti] = np.real(1j * (lower - upper)) * _INV_SQRT2
        return coeffs

    def project_coefficients(self, h: Operator) -> np.ndarray:
        """Best-fit coefficients for a Hermitian target generator: those of
        its block-diagonal part in the eigenbasis, the closest conserving
        generator in the Frobenius sense.  This is how a known-good
        interaction is turned into a starting point for the fidelity
        search.
        """
        if h.dim != self.dim:
            raise ValueError(f"target dim {h.dim} does not match basis dim {self.dim}")
        h_in_eigenbasis = self.eigenbasis.conj().T @ h.entries @ self.eigenbasis
        return self._pairings(h_in_eigenbasis.reshape(-1)[self._layout.frame])


def commutant_basis(law: ConservationLaw) -> CommutantBasis:
    """Orthonormal Hermitian basis of operators commuting with the total charge.

    Eigenvalues of the total charge within ``DEGENERACY_TOL`` are merged
    into one block, so near-degenerate spectra do not fragment the
    commutant.  This is :func:`commutant_bases` of one law.
    """
    return commutant_bases([law])[0]


def commutant_bases(laws: Sequence[ConservationLaw]) -> list[CommutantBasis]:
    """:func:`commutant_basis` of each law, with one stacked pass per
    factor layout: the laws not yet lifted are lifted together, and the
    totals of the layout are decomposed by one stacked ``eigh``, which
    gives each matrix the bits of its own call."""
    def decompose(members: list[int]) -> Iterator[CommutantBasis]:
        group = [laws[i] for i in members]
        spec = group[0].spec
        fresh = [law for law in group if "lifts" not in vars(law)]
        if fresh:
            for law, lifted in zip(fresh, _stacked_lifts(spec, fresh)):
                vars(law)["lifts"] = lifted  # what the cached property would build
        vals, vecs = np.linalg.eigh(np.array([law.lifts[3] for law in group]))
        # a block ends wherever the ascending spectrum steps by more than the tolerance
        steps = np.diff(vals) > DEGENERACY_TOL
        for step, vec in zip(steps, vecs):
            ends = [0, *(np.flatnonzero(step) + 1).tolist(), spec.total_dim]
            basis = np.array(vec, copy=True)
            basis.setflags(write=False)
            yield CommutantBasis(basis, tuple(b - a for a, b in zip(ends, ends[1:])))

    return grouped([law.spec for law in laws], decompose)


def _exponentials(
    bases: Sequence[CommutantBasis], coefficients: Sequence[np.ndarray]
) -> list[tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]]:
    """For each basis and its coefficients: the entries of U =
    ``exp(-i sum_k c_k B_k)`` and, per size group of the basis, the
    eigensystem (w, V, V^dag) of its block stack.

    The block stacks of one size, across all the bases, are decomposed
    by one ``eigh`` and exponentiated as one stack, and U is
    :func:`_block_sums` of the exponentials.  A stacked ``eigh`` or
    product gives each matrix the bits of its own call, so every basis
    gets the U of its own pass.
    """
    stacks = [basis._block_stacks(c) for basis, c in zip(bases, coefficients)]
    by_size: dict[int, list[tuple[int, int]]] = {}
    for i, groups in enumerate(stacks):
        for g, stack in enumerate(groups):
            by_size.setdefault(stack.shape[-1], []).append((i, g))
    eigen: list[list] = [[None] * len(groups) for groups in stacks]
    exps: dict[int, np.ndarray] = {}
    rows: list[list[int]] = [[0] * len(groups) for groups in stacks]
    for d, members in by_size.items():
        w, v = np.linalg.eigh(np.concatenate([stacks[i][g] for i, g in members]))
        v_dag = v.conj().swapaxes(1, 2)
        exps[d] = (v * np.exp(-1j * w)[:, None, :]) @ v_dag
        at = 0
        for i, g in members:
            k = len(stacks[i][g])
            eigen[i][g] = (w[at : at + k], v[at : at + k], v_dag[at : at + k])
            rows[i][g] = at  # the group's first block in its size's stack
            at += k
    us = grouped(
        [basis.dim for basis in bases],
        lambda members: _block_sums([bases[i] for i in members], [rows[i] for i in members], exps),
    )
    return list(zip(us, eigen))


def _block_sums(
    bases: Sequence[CommutantBasis], rows: Sequence[Sequence[int]], exps: dict[int, np.ndarray]
) -> list[np.ndarray]:
    """sum_b C_b E_b C_b^dag of each basis, all of one dimension, over its
    blocks b in block order: C_b holds the block's eigenbasis columns and
    E_b, its exponential, is row ``rows[i][g] + m`` of ``exps[d]`` for
    the m-th block of size group g of basis i.

    One basis adds its blocks one at a time, which takes fewer numpy
    calls than stacking them and is kept for that: in process it took 20
    us a call against 40 us for the padded path at spin-3 (minimum of 5 x
    3000 calls), 31 against 60 at spin-4, 49 against 79 at spin-5 and 175
    against 591 at boson nbar = 1.  For more, the sums run from zeros, one
    stacked add per block position.  A window of positions holds their
    terms as one zero-filled (positions, bases, n, n) stack, each block
    size's terms one stacked (C E) C^dag scattered into place, so a basis
    with no block at a position adds +0.0: exact, as a sum that starts at
    +0.0 never holds -0.0.  A window holds max(1, CHUNK_ENTRIES // (bases
    n^2)) positions, so at most ``CHUNK_ENTRIES`` entries unless one
    position's terms hold more.  Every basis gets the bits of its own
    block-by-block sum.
    """
    n = bases[0].dim
    if len(bases) == 1:
        (basis,), (at,) = bases, rows
        u = np.zeros((n, n), dtype=np.complex128)
        for cols, g, m in basis._layout.blocks:
            c = basis.eigenbasis[:, cols]
            u += c @ exps[cols.stop - cols.start][at[g] + m] @ c.conj().T
        return [u]
    width = max(1, CHUNK_ENTRIES // (len(bases) * n * n))
    # each window's blocks by size: (position in it, basis, first column, row
    # in exps[size]); every basis starts at position 0, so windows come in order
    windows: dict[int, dict[int, list[tuple[int, int, int, int]]]] = {}
    for j, (basis, at) in enumerate(zip(bases, rows)):
        for position, (cols, g, m) in enumerate(basis._layout.blocks):
            window = windows.setdefault(position // width, {})
            window.setdefault(cols.stop - cols.start, []).append((position % width, j, cols.start, at[g] + m))
    # the eigenvectors as rows, basis after basis
    eigvecs = np.array([basis.eigenbasis.T for basis in bases]).reshape(-1, n)
    depth = max(len(basis.block_dims) for basis in bases)
    u = np.zeros((len(bases), n, n), dtype=np.complex128)
    for w, window in windows.items():
        terms = np.zeros((min(width, depth - w * width), len(bases), n, n), dtype=np.complex128)
        for d, blocks in window.items():
            position, j, start, row = np.array(blocks).T
            c = eigvecs[(j * n + start)[:, None] + np.arange(d)].swapaxes(1, 2)
            terms[position, j] = (c @ exps[d][row]) @ c.conj().swapaxes(1, 2)
        for term in terms:
            u += term
    return list(u)


def conserving_exponential(
    basis: CommutantBasis, coefficients: np.ndarray
) -> tuple[Operator, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """U = ``exp(-i sum_k c_k B_k)`` over the commutant basis, and the map
    (bra, ket) -> Re <bra| dU/dc_k |ket> for every k at the same point.

    The generator is block diagonal in the charge eigenbasis, so the
    exponential is taken block by block, with one eigendecomposition per
    block size: the blocks of each size are exponentiated as one stack
    (:func:`_exponentials` of one basis).  U commutes with the total
    charge by construction.

    The map reads the same eigensystems.  With a block-size stack
    h = V diag(w) V^dag, the derivative of exp(-i h) along a block B is
    V (Gamma o V^dag B V) V^dag (Daleckii-Krein), with the divided
    differences of exp(-i x) in a form without branches, exact also on
    coinciding eigenvalues:
    Gamma_ij = -i exp(-i (w_i + w_j)/2) sinc((w_i - w_j)/2).  So
    <bra|dU|ket> = tr(B T), T = V (Gamma o V^dag Y V) V^dag with Y the
    blocks of |ket><bra| in the eigenbasis, read off by ``_pairings``.
    """
    lay = basis._layout
    ((u, eigen),) = _exponentials([basis], [coefficients])

    def derivative(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
        e_dag = basis.eigenbasis.conj().T
        y = np.outer(e_dag @ ket, (e_dag @ bra).conj()).reshape(-1)[lay.frame]
        out = []
        for (d, k, at), (w, v, v_dag) in zip(lay.groups, eigen):
            w_i, w_j = w[:, :, None], w[:, None, :]
            gamma = -1j * np.exp(-0.5j * (w_i + w_j)) * np.sinc((w_i - w_j) / (2.0 * np.pi))
            t = v @ (gamma * (v_dag @ y[at : at + k * d * d].reshape(k, d, d) @ v)) @ v_dag
            out.append(t.reshape(-1))
        return basis._pairings(np.concatenate(out))

    return Operator(u, unitary=True), derivative


def conserving_unitary(basis: CommutantBasis, coefficients: np.ndarray) -> Operator:
    """``exp(-i sum_k c_k B_k)`` over the commutant basis: the unitary of
    :func:`conserving_exponential`, which commutes with the total charge."""
    return conserving_exponential(basis, coefficients)[0]


def conserving_unitaries(
    bases: Sequence[CommutantBasis], coefficients: Sequence[np.ndarray]
) -> list[Operator]:
    """:func:`conserving_unitary` of each basis and coefficient vector,
    with one ``eigh`` and one block exponential per block size across
    all of them, bit for bit.  The unitaries of one dimension are
    validated as one stack."""
    return flagged_operators([u for u, _ in _exponentials(bases, coefficients)], unitary=True)
