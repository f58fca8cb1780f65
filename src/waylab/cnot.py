"""CNOT implementations, gate fidelity, and the noise-fidelity link.

An implementation is a unitary on control x target x ancilla together
with a fixed ancilla state; tracing the ancilla out turns it into a
channel on the two qubits.  Its gate fidelity is the worst-case state
fidelity against the ideal CNOT over all pure two-qubit inputs.  In
Kraus form F^2(psi) = sum_a |<psi|A_a|psi>|^2, and the minimum is exact
without an ancilla: the distance from the origin to the convex hull of
the eigenvalues of C^dag U (Toeplitz-Hausdorff).  With an ancilla it is
estimated from above by a Riemannian descent on the unit sphere of C^4
that runs every start as a row of one array, and stops once a lower
value each row holds certifies the minimum.  F^2 is a fixed quadratic
form in psi psi^dag, so the forms are read once into two matrices with
64 columns, and building a step's Newton system costs the same at every
ancilla size.  It takes damped Riemannian Newton steps, not Gauss-Newton
ones: the minima have F^2 well above zero, where Gauss-Newton converges
only linearly.  A start whose Newton system is exactly singular keeps its
place for that step.  Besides fixed seed states, the starts are
normalised complex Gaussian rows, uniform on the sphere.  When the
implementation must conserve a spin component, the same object also
defines an indirect measurement of the control qubit, which is what ties
the gate error to the measurement trade-off bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import linalg

from .bounds import BoundReport, bound_ingredients, require_conserving
from .conservation import ConservationLaw
from .measurement import IndirectMeasurementModel
from .operators import MAX_TOTAL_DIM, HilbertSpec, Operator, StateVector, evolve, moments
from .serialize import (
    digest,
    operator_from_json,
    operator_to_json,
    spec_from_json,
    spec_to_json,
    state_from_json,
    state_to_json,
)

__all__ = [
    "GateImplementation",
    "SearchConfig",
    "FidelityResult",
    "cnot_unitary",
    "pauli",
    "state_fidelity",
    "gate_fidelity",
    "measurement_view",
    "noise_fidelity_link",
    "l3_moments",
    "sigma_ceiling_fsq",
    "implementation_to_json",
    "implementation_from_json",
]

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}


def pauli(name: str) -> Operator:
    """Single-qubit Pauli operator by name ("I", "X", "Y", "Z")."""
    key = name.upper()
    if key not in _PAULI:
        raise ValueError(f"unknown Pauli name {name!r}")
    return Operator(_PAULI[key], hermitian=True, unitary=True)


def cnot_unitary() -> Operator:
    """Ideal CNOT on control x target: |a, b> -> |a, b xor a>."""
    mat = np.zeros((4, 4), dtype=np.complex128)
    for a in (0, 1):
        for b in (0, 1):
            mat[2 * a + (b ^ a), 2 * a + b] = 1.0
    return Operator(mat, hermitian=True, unitary=True)


_READY, _Z = StateVector.basis(2, 0), pauli("Z")  # every measurement view's target state and readout
# The noise-fidelity chain's two control states: (|0> + i|1>)/sqrt(2)
# maximizes |<[Z, X]>| (value 2) and is its headline input;
# (|0> + |1>)/sqrt(2) sits in the commutator's kernel (value 0).  Both are
# evaluated wherever the chain is reported.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_IPLUS = StateVector(np.array([_INV_SQRT2, 1.0j * _INV_SQRT2]))
_PLUS = StateVector(np.array([_INV_SQRT2, _INV_SQRT2]))


@dataclass(frozen=True, eq=False)
class GateImplementation:
    """Candidate CNOT: a unitary with a fixed ancilla input.

    The first factor of ``spec`` is the control qubit, the second the
    target qubit; any further factors form the ancilla the unitary may
    lean on.  ``ancilla_state`` may be ``None`` for ancilla-free specs.
    """

    spec: HilbertSpec
    unitary: Operator
    ancilla_state: StateVector | None = None

    def __post_init__(self) -> None:
        s = self.spec
        if s.object_dim != 2 or s.probe_dim != 2:
            raise ValueError(
                f"control/target factors must be qubits, got dims "
                f"{s.object_dim}, {s.probe_dim}"
            )
        if self.ancilla_state is None and s.has_ancilla:
            raise ValueError("spec has an ancilla group but no ancilla state given")
        # the view checks the unitary and the ancilla state, and supplies
        # the trivial ancilla state when there is no ancilla
        view = IndirectMeasurementModel(
            spec=s,
            probe_state=_READY,
            ancilla_state=self.ancilla_state,
            interaction=self.unitary,
            pointer=_Z,
            observable=_Z,
        )
        object.__setattr__(self, "ancilla_state", view.ancilla_state)
        object.__setattr__(self, "_measurement_view", view)


def implementation_to_json(impl: GateImplementation) -> dict[str, Any]:
    return {
        "spec": spec_to_json(impl.spec),
        "unitary": operator_to_json(impl.unitary),
        "ancilla_state": state_to_json(impl.ancilla_state),
    }


def implementation_from_json(data: dict[str, Any]) -> GateImplementation:
    return GateImplementation(
        spec=spec_from_json(data["spec"]),
        unitary=operator_from_json(data["unitary"]),
        ancilla_state=state_from_json(data["ancilla_state"]),
    )


_W, _BIG_W, _S, _FSQ = slice(0, 8), slice(8, 72), slice(72, 136), 136  # packed row [w, W, S, F^2]


class _FidelityEvaluator:
    """The implementation's Kraus forms, for fast state-fidelity evaluation.

    With the ancilla prepared in xi, the channel's Kraus operators are
    K_a = (I x <a|) U (I x |xi>), and against the ideal CNOT C the state
    fidelity squared is

        F^2(psi) = sum_a |z_a|^2,    z_a = <psi|A_a|psi>,    A_a = C^dag K_a.

    In the real coordinates w = (Re psi, Im psi), z_a = w^T M_a w with
    M_a = [[A_a, i A_a], [-i A_a, A_a]], so the residuals r = (Re z, Im z)
    are quadratic forms r_k = w^T Q_k w, with Q_k the real and imaginary
    parts of the symmetrized M_a.  The m = 2*d_anc forms, flattened, are
    the rows of one m x 64 matrix M, and with W = w x w the residuals of
    a batch of states are one product r = W M^T: F^2 is a fixed quadratic
    form in psi psi^dag.  It is summed as sum_k r_k^2, which keeps its
    relative precision near F = 0, where W (M^T M) W^T does not.  The
    residuals' Jacobian J = 2 (Q_k w)_k enters the Newton system only as
    J^T J = W K, with the 64 x 64 matrix K = 4 sum_k Q_k x Q_k built once.
    """

    def __init__(self, impl: GateImplementation):
        d_anc = impl.spec.ancilla_dim
        xi = impl.ancilla_state.amplitudes
        kraus = (impl.unitary.entries.reshape(4, d_anc, 4, d_anc) @ xi).transpose(1, 0, 2)
        self.forms = cnot_unitary().entries.conj().T @ kraus
        m = np.block([[self.forms, 1j * self.forms], [-1j * self.forms, self.forms]])
        sym = 0.5 * (m + m.transpose(0, 2, 1))
        self._rows = np.concatenate([sym.real, sym.imag]).reshape(-1, 64)
        self._rows_norm = float(np.linalg.norm(self._rows))  # ||S||_F <= |r| ||M||_F
        self.d_anc = d_anc
        self.evaluations = 0

    @functools.cached_property
    def _gram(self) -> np.ndarray:
        """K, laid out so that W K, read as 8 x 8, is J^T J."""
        pairs = 4.0 * self._rows.T @ self._rows  # rows (a, i), columns (b, j)
        return pairs.reshape(8, 8, 8, 8).swapaxes(1, 2).reshape(64, 64)

    def points(self, w: np.ndarray) -> np.ndarray:
        """Packed rows [w, W, S, F^2] at unit real coordinates w, shape
        (n, 137), with W = w x w, r = W M^T and S = r M = sum_k r_k Q_k
        flattened."""
        self.evaluations += w.shape[0]
        big_w = (w[:, :, None] * w[:, None, :]).reshape(w.shape[0], 64)
        res = big_w @ self._rows.T
        fsq = np.sum(res * res, axis=1, keepdims=True)
        return np.concatenate([w, big_w, res @ self._rows, fsq], axis=1)


def state_fidelity(impl: GateImplementation, psi: StateVector) -> float:
    """Fidelity between the channel output for ``psi`` and the ideal
    CNOT output, sqrt(<psi'| channel(|psi><psi|) |psi'>)."""
    if psi.dim != 4:
        raise ValueError(f"input must be a two-qubit state, got dim {psi.dim}")
    w = np.concatenate([psi.amplitudes.real, psi.amplitudes.imag])
    return math.sqrt(min(float(_FidelityEvaluator(impl).points(w[None, :])[0, _FSQ]), 1.0))


# The descent's deterministic starting states: the computational basis and
# all equal-weight pairwise superpositions with phases 1 and i.
_SEED_STATES = np.concatenate([np.eye(4), _INV_SQRT2 * np.array([
    np.eye(4)[i] + ph * np.eye(4)[j] for i, j in itertools.combinations(range(4), 2) for ph in (1, 1j)
])])


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the worst-case fidelity search.

    Ancilla-free implementations are solved exactly and use none of
    them.  With an ancilla, the descent starts from the 16 fixed seed
    states plus ``restarts`` normalised complex Gaussian rows,
    deterministic per ``seed``; a larger ``restarts`` extends the same
    sequence, and more than ``MAX_TOTAL_DIM`` is refused.  It takes at
    most ``max_iter`` steps and stops early once its lowest F^2 is
    certified within ``tol``, or no start gained that much twice running.
    """

    restarts: int = 64
    max_iter: int = 400
    tol: float = 1e-10
    seed: int = 0


@dataclass(frozen=True)
class FidelityResult:
    """Outcome of a worst-case fidelity search."""

    fidelity: float
    fidelity_sq: float
    error_probability: float
    worst_state: StateVector
    evaluations: int
    # certified: min F^2 lies in [fidelity_sq_lower, fidelity_sq]; 0.0 from given starts
    fidelity_sq_lower: float = 0.0
    trace: tuple[dict[str, float], ...] = field(default=(), repr=False)
    # every start's final state, one row of 4 amplitudes each: the ``starts``
    # of a search on a nearby implementation; in no report
    final_states: np.ndarray | None = field(default=None, repr=False, compare=False)


def _cross(u: complex, v: complex) -> float:
    """Signed area spanned by two points of the complex plane, Im(conj(u) v)."""
    return u.real * v.imag - u.imag * v.real


def _hull_witnesses(ev: _FidelityEvaluator) -> np.ndarray:
    """Witness states of the hull point nearest the origin, ancilla-free case.

    A = C^dag U is unitary, hence normal, so its numerical range
    {<psi|A|psi>} is the convex hull of its eigenvalues
    (Toeplitz-Hausdorff) and min_psi F is the hull's distance from the
    origin.  The nearest point is a vertex, the foot of the
    perpendicular on an edge, or the origin itself inside a triangle.
    Each candidate's convex weights w give the state sum_k sqrt(w_k) v_k
    with <psi|A|psi> = sum_k w_k lambda_k; the complex Schur form
    supplies orthonormal eigenvectors v_k even for repeated eigenvalues.
    """
    schur_t, vecs = linalg.schur(ev.forms[0], output="complex")
    lam = [complex(x) for x in np.diag(schur_t)]
    weights = [np.eye(4)[k] for k in range(4)]
    for j, k in itertools.combinations(range(4), 2):
        # foot of the perpendicular from 0 on lam_j + s (lam_k - lam_j)
        edge = lam[k] - lam[j]
        s = -(edge.conjugate() * lam[j]).real / abs(edge) ** 2 if edge != 0 else 0.0
        s = min(max(s, 0.0), 1.0)
        w = np.zeros(4)
        w[[j, k]] = (1.0 - s, s)
        weights.append(w)
    for tri in itertools.combinations(range(4), 3):
        a, b, c = (lam[k] for k in tri)
        area = _cross(b - a, c - a)
        if area == 0.0:
            continue
        bary = np.array([_cross(b, c), _cross(c, a), _cross(a, b)]) / area
        if np.all(bary >= 0.0):
            w = np.zeros(4)
            w[list(tri)] = bary
            weights.append(w)
    return np.sqrt(np.array(weights)) @ vecs.T


# Bounds on the descent's step length s.  Above, the damping 1 / (2 s)
# stays at least 5e-7, which bounds how far rounding is amplified along
# the two directions the tangent Jacobian cannot see (the radius and the
# phase).  Below, a start that keeps rejecting never divides by zero;
# a step of 1e-12 already leaves a unit vector unchanged.
_MIN_STEP, _MAX_STEP = 1e-12, 1e6
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


@functools.lru_cache(maxsize=32)
def _search_starts(cfg: SearchConfig) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and unit states of the descent's starting points.

    The fixed seed states, then ``cfg.restarts`` complex Gaussian rows
    from ``numpy.random.default_rng(cfg.seed)``, each normalised, so
    uniform on the unit sphere of C^4.  Rows are drawn in order, so a
    larger ``restarts`` extends the same sequence.  They depend on the
    frozen config alone, so they are built once per config and shared
    read-only by every search that uses it."""
    psi = _SEED_STATES
    labels = [f"seed-{i}" for i in range(len(psi))]
    if cfg.restarts > 0:
        g = np.random.default_rng(cfg.seed).standard_normal((cfg.restarts, 8))
        extra = g[:, :4] + 1j * g[:, 4:]
        psi = np.concatenate([psi, extra / np.linalg.norm(extra, axis=1, keepdims=True)])
        labels += [f"random-{i}" for i in range(cfg.restarts)]
    psi.flags.writeable = False
    return tuple(labels), psi


def _newton_system(
    ev: _FidelityEvaluator, points: np.ndarray, damping: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Riemannian Newton matrix N of F^2 on the unit sphere and
    the right-hand side, per packed row [w, W, S, F^2] of
    :meth:`_FidelityEvaluator.points`.

    J w = 2 r and J^T r = 2 s with s = S w, so with J^T J = W K

        N = J^T J + 2 S - (u w^T + w u^T) + (damping - 2 F^2) I,
        u = 6 s - 4 F^2 w,

    that is J^T J + 2 S - 6 (s w^T + w s^T) + 8 F^2 w w^T +
    (damping - 2 F^2) I: on the tangent space N minus the damping is half
    the Riemannian Hessian P (2 J^T J + 4 S) P - 4 F^2 P, P = I - w w^T,
    and N maps w itself to damping * w, so the solved move stays tangent.
    The right-hand side is T^T r = 2 (s - F^2 w), with T = J P the
    tangent Jacobian.
    """
    n = len(points)
    w, value = points[:, _W], points[:, _FSQ, None]
    s = (points[:, _S].reshape(n, 8, 8) @ w[:, :, None])[:, :, 0]
    fw = value * w
    u = 6.0 * s - 4.0 * fw
    uw = u[:, :, None] * w[:, None, :]
    # W K row by row: one (n x 64)(64 x 64) product rounds a row by its batch,
    # and with it whether the row's Newton system is exactly singular
    matrix = (points[:, None, _BIG_W] @ ev._gram)[:, 0]
    matrix += 2.0 * points[:, _S]
    matrix = matrix.reshape(n, 8, 8)
    matrix -= uw
    matrix -= np.swapaxes(uw, 1, 2)
    matrix.reshape(n, 64)[:, ::9] += damping[:, None] - 2.0 * value
    return matrix, 2.0 * (s - fw)


def _newton_moves(
    ev: _FidelityEvaluator, points: np.ndarray, damping: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve every row's Newton system.  A row whose system is exactly
    singular gets a zero move and keeps its place: its trial is its own
    point renormalised, which is rejected, so its damping doubles, off the
    singular value.  Rows are solved one by one only then, each on its
    own, so no row's move depends on another row.  Returns moves and rhs."""
    normal, rhs = _newton_system(ev, points, damping)
    try:
        return np.linalg.solve(normal, rhs[:, :, None])[:, :, 0], rhs
    except np.linalg.LinAlgError:
        pass
    moves = np.zeros_like(rhs)
    for i in range(len(rhs)):
        try:
            moves[i] = np.linalg.solve(normal[i], rhs[i])
        except np.linalg.LinAlgError:
            pass
    return moves, rhs


def _lower_fsq(ev: _FidelityEvaluator, points: np.ndarray) -> np.ndarray:
    """A value min F^2 cannot fall below, per packed row, for the forms M.

    For unit w', w'^T S w' = sum_k r_k r_k(w') <= |r| F(w'), so min F >=
    lambda_min(S) / |r|, |r| = F.  With m forms and machine epsilon e, delta
    covers the rounding of S = r M (m e F ||M||_F, Weyl), of eigvalsh
    (backward stable, 32 e ||S||_F <= 32 e F ||M||_F) and of |r| (m e F^2)."""
    m, f = len(ev._rows), np.sqrt(points[:, _FSQ])
    delta = _EPS * f * ((m + 32) * ev._rows_norm + m * f)
    lam = np.linalg.eigvalsh(points[:, _S].reshape(-1, 8, 8))[:, 0]
    return (np.maximum(lam - delta, 0.0) / np.maximum(f, _TINY)) ** 2


def _sphere_descent(
    ev: _FidelityEvaluator, cfg: SearchConfig, starts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float, list[dict[str, float]]]:
    """Riemannian descent of F^2 on the unit sphere of C^4, all starts as
    rows of one array: those of :func:`_search_starts`, or the unit rows
    ``starts`` when given.

    Each start is kept as one packed row [w, W, S, F^2]
    (:meth:`_FidelityEvaluator.points`), and each step moves it along the
    tangent space and renormalizes.  The move solves N m = T^T r with N
    the damped Riemannian Newton matrix of :func:`_newton_system` and
    damping 1 / (2 s), assembled from W K, S and s = S w alone, so its
    cost does not grow with the ancilla: for a small step length s it is
    the gradient step s * grad F^2, and for a large one the Newton step.
    Newton rather than Gauss-Newton, because the minima sought have F^2
    well above zero, and at a minimum whose residual is not zero
    Gauss-Newton converges only linearly while Newton converges
    quadratically.  A row whose Newton system is exactly singular keeps
    its place (:func:`_newton_moves`).  A step is kept only when it lowers
    the value; s grows by 1.5 after a kept step and halves after a
    rejected one, per start, within ``_MIN_STEP`` and ``_MAX_STEP``.

    The loop stops once the lowest row's lower value (:func:`_lower_fsq`)
    is positive and within ``cfg.tol`` of its F^2, then within ``tol`` of
    the true minimum.  It checks each row at most once, at the top of an
    iteration, and only where it can close: with g = s - F^2 w (half the
    right-hand side), F^2 - lambda_min(S) >= |g|^2 / (2 F ||M||_F + |g|).
    Otherwise it stops after two iterations in a row in which no start
    lowered its F^2 by more than ``cfg.tol``; one is not enough, as every
    start may reject at once far from a minimum.  More starts never raise
    the minimum by more than ``tol``.  Returns the final states, their F^2
    and largest lower value (0.0, still valid, from given ``starts``: the
    optimizer's warm pass never reads it), and the trace.
    """
    if starts is None:
        labels, psi = _search_starts(cfg)
    else:
        labels, psi = [f"given-{i}" for i in range(len(starts))], starts
    points = ev.points(np.concatenate([psi.real, psi.imag], axis=1))
    value = points[:, _FSQ]
    initial = value.copy()
    step, checked = np.full(len(labels), 0.25), np.zeros(len(labels), dtype=bool)
    iterations = quiet = 0
    while iterations < cfg.max_iter and quiet < 2:
        damping = 0.5 / step
        moves, rhs = _newton_moves(ev, points, damping)
        k = int(value.argmin())
        if not checked[k]:
            g = 0.5 * math.sqrt(float(rhs[k] @ rhs[k]))
            if g * g <= (2.0 * math.sqrt(value[k]) * ev._rows_norm + g) * cfg.tol:
                checked[k] = True
                lower = float(_lower_fsq(ev, points[k : k + 1])[0])
                if 0.0 < lower and value[k] - lower <= cfg.tol:
                    break
        iterations += 1
        trial = points[:, _W] - moves
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        trial_points = ev.points(trial)
        better = trial_points[:, _FSQ] < value
        gain = float(np.max(value - trial_points[:, _FSQ], where=better, initial=0.0))
        points[better] = trial_points[better]
        step *= np.where(better, 1.5, 0.5)
        np.minimum(step, _MAX_STEP, out=step)
        np.maximum(step, _MIN_STEP, out=step)
        quiet = quiet + 1 if gain <= cfg.tol else 0
    trace = [
        {
            "start": label,
            "initial": math.sqrt(max(float(f0), 0.0)),
            "final": math.sqrt(max(float(f1), 0.0)),
            "iterations": float(iterations),
        }
        for label, f0, f1 in zip(labels, initial, value)
    ]
    lower = float(np.max(_lower_fsq(ev, points))) if starts is None else 0.0
    return points[:, _W][:, :4] + 1j * points[:, _W][:, 4:], value, lower, trace


def gate_fidelity(
    impl: GateImplementation, config: SearchConfig | None = None, *, starts: np.ndarray | None = None
) -> FidelityResult:
    """Worst-case state fidelity of an implementation against CNOT.

    In Kraus form F^2(psi) = sum_a |<psi|A_a|psi>|^2 (see
    :class:`_FidelityEvaluator`).  Without an ancilla the minimum is
    exact: the distance from the origin to the convex hull of the
    eigenvalues of A = C^dag U.  Every nearest-point candidate's witness
    state is evaluated and the lowest kept, so the value reported is a
    real state's fidelity; the trace has one entry, ``"hull"``.

    With an ancilla, a batched Riemannian descent on the unit sphere
    (:func:`_sphere_descent`) runs from every seed state and Gaussian
    start (see :class:`SearchConfig`), or from the unit rows ``starts``
    when given (the hull ignores them), and returns the lowest value
    evaluated, so the result estimates the minimum from above.  An
    insufficient budget therefore overstates F^2: a PASS of an
    F^2 <= ceiling relation is sound, but a FAIL, or the optimizer's
    ``CeilingViolation``, may be spurious, unless ``fidelity_sq_lower``,
    the final rows' largest certified lower value (the hull's exact value),
    crosses the ceiling too.  The optimizer's warm pass only ever rejects
    ascent trials, so it adds no such risk.  Each start adds a trace
    entry; ``evaluations`` counts states evaluated.
    """
    cfg = config or SearchConfig()
    if not 0 <= cfg.restarts <= MAX_TOTAL_DIM:  # each start is a row of 137 doubles
        raise ValueError(f"restarts must lie in [0, {MAX_TOTAL_DIM}], got {cfg.restarts}")
    ev = _FidelityEvaluator(impl)
    if ev.d_anc == 1:
        psis = _hull_witnesses(ev)
        values = ev.points(np.concatenate([psis.real, psis.imag], axis=1))[:, _FSQ]
        lower = trace = None
    else:
        psis, values, lower, trace = _sphere_descent(ev, cfg, starts)
    k = int(np.argmin(values))
    fsq = min(max(float(values[k]), 0.0), 1.0)
    f = math.sqrt(fsq)
    if trace is None:
        lower, trace = fsq, [{"start": "hull", "initial": f, "final": f, "iterations": 0.0}]
    return FidelityResult(
        fidelity=f,
        fidelity_sq=fsq,
        error_probability=1.0 - fsq,
        worst_state=StateVector.from_amplitudes(psis[k]),
        evaluations=ev.evaluations,
        fidelity_sq_lower=lower,
        trace=tuple(trace),
        final_states=psis,
    )


def measurement_view(impl: GateImplementation) -> IndirectMeasurementModel:
    """Reinterpret a CNOT implementation as an indirect measurement.

    A perfect CNOT copies the control's computational basis onto the
    target, so running the implementation with the target prepared in
    |0> and reading its Z afterwards is a measurement of the control's
    Z; the gate's noise figures are exactly this model's error and
    disturbance.  The model is built once per implementation (both are
    immutable), so its error and disturbance operators are too.
    """
    return impl._measurement_view


def l3_moments(impl: GateImplementation, law: ConservationLaw) -> tuple[float, float]:
    """<L3'> and sigma(L3') for the evolved ancilla charge L3' = U^dag L3 U,
    from the law's own lift of L3, in the chain's headline input: control
    (|0> + i|1>)/sqrt(2), target |0>, the implementation's ancilla state."""
    s = impl.spec
    if (s.total_dim, s.ancilla_dim) != (law.spec.total_dim, law.spec.ancilla_dim):
        raise ValueError(
            f"law on factors {law.spec.factor_dims} does not fit implementation "
            f"factors {s.factor_dims}"
        )
    (l3_evolved,) = evolve(law._lifts[2:], impl.unitary)
    return moments(l3_evolved, measurement_view(impl).initial_state(_IPLUS))


def sigma_ceiling_fsq(sigma: float) -> float:
    """The F^2 ceiling 1 - 1/(4*(2 + sigma)^2) at sigma(L3') = sigma; see
    :func:`noise_fidelity_link`."""
    return 1.0 - 1.0 / (4.0 * (2.0 + sigma) ** 2)


def noise_fidelity_link(
    impl: GateImplementation, law: ConservationLaw, *, fidelity: FidelityResult | None = None
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """Chain from conservation to a hard fidelity ceiling.

    For an implementation conserving total spin-x (object and probe
    charges are both Pauli X, any ancilla charge), the measurement view
    with target ready state |0> obeys, at a control state psi,

        |<[Z, X]>_psi|^2 / (2*(2 + sigma(L3'))^2)  <=  eps^2 + eta^2

    (first report, relation ``squared-noise``), and the squared noise
    in turn caps the gate fidelity through

        eps^2 + eta^2  <=  8 * (1 - F^2)

    (second report, relation ``fidelity-link``), which rearranges to
    F^2 <= 1 - |<[Z, X]>|^2 / (16*(2 + sigma(L3'))^2).  Here L3' is the
    ancilla charge after the interaction and sigma is taken in the full
    input state.  At |<[Z, X]>| = 2 that is :func:`sigma_ceiling_fsq`, which
    the third report, relation ``sigma-ceiling``, holds F^2 to.  The
    ingredients come from one :func:`~waylab.bounds.bound_ingredients` pass
    per control state with L3 evolved once, so the first report is the
    measurement view's ``fundamental`` trade-off bound.

    The chain's headline input is (|0> + i|1>)/sqrt(2), which maximizes
    |<[Z, X]>|; the equal-weight real superposition (|0> + |1>)/sqrt(2)
    makes the commutator expectation vanish, so it is evaluated and
    recorded in the details, under ``plus_`` names, rather than used for
    the headline numbers.  The ceiling's sigma is the headline input's,
    as :func:`l3_moments` takes it, and all three reports carry one
    digest of the implementation, the law and the headline input.

    ``fidelity`` is this implementation's worst-case search result, F
    being independent of the control state; when omitted it is computed
    by :func:`gate_fidelity` with the default search.
    """
    x = pauli("X").entries
    for name, part in (("object", law.object_part), ("probe", law.probe_part)):
        if part.dim != 2 or float(np.max(np.abs(part.entries - x))) > 1e-12:
            raise ValueError(
                f"noise_fidelity_link expects the {name} charge to be Pauli X; "
                f"the numeric constants assume unit-norm spin charges"
            )
    require_conserving(impl.spec, impl.unitary, law)

    view = measurement_view(impl)
    evolved = {"sigma_l3": evolve(law._lifts[2:], impl.unitary)[0]}
    main, plus = (bound_ingredients(view, law, psi, evolved) for psi in (_IPLUS, _PLUS))
    result = fidelity if fidelity is not None else gate_fidelity(impl)
    fsq, sigma = result.fidelity_sq, main["sigma_l3"]
    ceiling = sigma_ceiling_fsq(sigma)
    details = {
        **main,
        **{f"plus_{key}": val for key, val in plus.items()},
        "fidelity": result.fidelity,
        "fidelity_sq": fsq,
        "ceiling_fsq": ceiling,
    }
    noise_sq = main["eps"] ** 2 + main["eta"] ** 2
    tag = digest(implementation=impl, law=law, psi=_IPLUS)
    squared = main["commutator_abs"] ** 2 / (2.0 * (2.0 + sigma) ** 2)
    return (
        BoundReport("squared-noise", "inequality", squared, noise_sq, tag, details),
        BoundReport("fidelity-link", "inequality", noise_sq, 8.0 * (1.0 - fsq), tag, details),
        BoundReport("sigma-ceiling", "inequality", fsq, ceiling, tag, {"sigma_l3": sigma}),
    )
