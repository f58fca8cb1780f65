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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .operators import (
    DEGENERACY_TOL,
    HilbertSpec,
    Operator,
    commutator,
    operator_norm,
    zero,
)

__all__ = [
    "ConservationError",
    "ConservationLaw",
    "CommutantBasis",
    "conservation_residual",
    "commutant_basis",
    "conserving_unitary",
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

    def total(self) -> Operator:
        """The conserved quantity lifted to the total space.

        Built on first use and kept: the parts are read-only, so it
        cannot go stale.
        """
        return self._total

    @functools.cached_property
    def _total(self) -> Operator:
        s = self.spec
        tot = (
            s.embed(self.object_part, "object").entries
            + s.embed(self.probe_part, "probe").entries
            + s.embed(self.ancilla_part, "ancilla").entries
        )
        return Operator(tot, hermitian=True)


def conservation_residual(u: Operator, law: ConservationLaw) -> float:
    """Spectral norm of [U, L_total]; zero iff U conserves the charge."""
    if u.dim != law.spec.total_dim:
        raise ValueError(f"unitary dim {u.dim} does not match law space {law.spec.total_dim}")
    return operator_norm(commutator(u, law.total()))


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
    back, both through one index layout (``_layout``).
    """

    eigenbasis: np.ndarray
    block_dims: tuple[int, ...]
    eigenvalues: tuple[float, ...]

    @property
    def dim(self) -> int:
        return self.eigenbasis.shape[0]

    @property
    def generator_count(self) -> int:
        return sum(d * d for d in self.block_dims)

    def _layout(self) -> Iterator[tuple]:
        """The coefficient layout, one tuple per block: its slice of
        eigenbasis columns, the index pairs (i, j), i < j, of its
        off-diagonal generators in enumeration order, and the coefficient
        slices of its diagonal, symmetric and antisymmetric runs."""
        start = pos = 0
        for d in self.block_dims:
            iu, ju = np.triu_indices(d, 1)
            n = iu.size
            yield (
                slice(start, start + d), iu, ju,
                slice(pos, pos + d), slice(pos + d, pos + d + n), slice(pos + d + n, pos + d * d),
            )
            start += d
            pos += d * d

    def coefficient_blocks(self, coefficients: np.ndarray) -> list[np.ndarray]:
        """Assemble the Hermitian matrix of each block from coefficients.

        The coefficient vector is consumed in generator enumeration
        order; the returned dense ``d x d`` Hermitian blocks satisfy
        ``sum_k c_k B_k = sum_blocks V_b H_b V_b^dag``.
        """
        coeffs = np.asarray(coefficients, dtype=float).reshape(-1)
        if coeffs.size != self.generator_count:
            raise ValueError(
                f"expected {self.generator_count} coefficients, got {coeffs.size}"
            )
        blocks: list[np.ndarray] = []
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        for cols, iu, ju, diag, sym, anti in self._layout():
            h = np.diag(coeffs[diag]).astype(np.complex128)
            upper = (coeffs[sym] + 1j * coeffs[anti]) * inv_sqrt2
            h[iu, ju] = upper
            h[ju, iu] = np.conj(upper)
            blocks.append(h)
        return blocks

    def project_coefficients(self, h: Operator) -> tuple[np.ndarray, float]:
        """Best-fit coefficients for a Hermitian target generator.

        Returns ``(coefficients, residual)`` where ``residual`` is the
        Frobenius norm of the part of ``h`` outside the commutant span.
        A conserving generator projects with residual ~0, which is how a
        known-good interaction is turned into a starting point for the
        fidelity search.
        """
        if h.dim != self.dim:
            raise ValueError(f"target dim {h.dim} does not match basis dim {self.dim}")
        coeffs = np.empty(self.generator_count)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        h_in_eigenbasis = self.eigenbasis.conj().T @ h.entries @ self.eigenbasis
        off_block = h_in_eigenbasis.copy()
        for cols, iu, ju, diag, sym, anti in self._layout():
            hb = h_in_eigenbasis[cols, cols]
            off_block[cols, cols] = 0.0
            coeffs[diag] = np.real(np.diag(hb))
            coeffs[sym] = np.real(hb[iu, ju] + hb[ju, iu]) * inv_sqrt2
            coeffs[anti] = np.real(1j * (hb[ju, iu] - hb[iu, ju])) * inv_sqrt2
        # The generators span exactly the block-diagonal Hermitian
        # matrices in the eigenbasis, so what is lost is the Frobenius
        # mass outside the blocks, measured directly (a mass-subtraction
        # formula would lose half the floating-point digits right where
        # it matters, at residual ~ 0).
        residual = float(np.linalg.norm(off_block))
        return coeffs, residual


def commutant_basis(law: ConservationLaw, degeneracy_tol: float = DEGENERACY_TOL) -> CommutantBasis:
    """Orthonormal Hermitian basis of operators commuting with the total charge.

    Eigenvalues of the total charge within ``degeneracy_tol`` are merged
    into one block, so near-degenerate spectra do not fragment the
    commutant.
    """
    total = law.total()
    vals, vecs = np.linalg.eigh(total.entries)
    block_dims: list[int] = []
    block_vals: list[float] = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > degeneracy_tol:
            block_dims.append(i - start)
            block_vals.append(float(np.mean(vals[start:i])))
            start = i
    basis = np.array(vecs, copy=True)
    basis.setflags(write=False)
    return CommutantBasis(
        eigenbasis=basis,
        block_dims=tuple(block_dims),
        eigenvalues=tuple(block_vals),
    )


def conserving_unitary(basis: CommutantBasis, coefficients: np.ndarray) -> Operator:
    """``exp(-i sum_k c_k B_k)`` over the commutant basis.

    The generator is block diagonal in the charge eigenbasis, so the
    exponential is taken block by block; the result commutes with the
    total charge by construction.
    """
    blocks = basis.coefficient_blocks(coefficients)
    u = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    start = 0
    for h in blocks:
        d = h.shape[0]
        cols = basis.eigenbasis[:, start : start + d]
        w, v = np.linalg.eigh(h)
        ub = (v * np.exp(-1j * w)) @ v.conj().T
        u += cols @ ub @ cols.conj().T
        start += d
    return Operator(u, unitary=True)
