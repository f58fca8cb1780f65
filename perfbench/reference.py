"""Reference worst-case CNOT fidelities, computed without waylab's search.

With the ancilla prepared in ``xi``, an implementation ``U`` on
control x target x ancilla acts on a two-qubit input ``psi`` through the
Kraus operators ``K_a = (I x <a|) U (I x |xi>)``.  Against the ideal
CNOT ``C`` its state fidelity squared is

    F^2(psi) = sum_a |<psi| A_a |psi>|^2,    A_a = C^dag K_a,

and the gate's worst-case value is the minimum over the unit sphere of
C^4.

* Ancilla-free (``d_anc = 1``): ``A = C^dag U`` is unitary, so normal,
  and its numerical range is the convex hull of its eigenvalues
  (Toeplitz-Hausdorff).  ``min |<psi|A|psi>|`` is the distance from the
  origin to that hull: :func:`hull_fsq` is exact.
* ``d_anc > 1``: :func:`descent_fsq` runs a fixed-seed multi-start
  Riemannian gradient descent on the sphere, all starts in one numpy
  operation, and finishes the best starts with BFGS.  It returns the
  lowest value it evaluated, so it is an estimate from above, never a
  certificate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def kraus_forms(unitary: np.ndarray, ancilla_state: np.ndarray) -> np.ndarray:
    """The stack ``A_a = C^dag K_a``, shape ``(d_anc, 4, 4)``."""
    xi = np.asarray(ancilla_state, dtype=np.complex128).reshape(-1)
    d_anc = xi.size
    u = np.asarray(unitary, dtype=np.complex128)
    if u.shape != (4 * d_anc, 4 * d_anc):
        raise ValueError(f"unitary shape {u.shape} does not match ancilla dim {d_anc}")
    kraus = (u.reshape(4, d_anc, 4, d_anc) @ xi).transpose(1, 0, 2)
    return CNOT.conj().T @ kraus


def hull_fsq(unitary: np.ndarray) -> float:
    """Exact worst-case F^2 of an ancilla-free implementation.

    The eigenvalues of ``C^dag U`` lie on the unit circle.  If the widest
    angular gap between neighbours is at most pi the hull contains the
    origin and F = 0; otherwise the nearest hull point is the chord
    across the occupied arc, at distance ``cos(arc / 2)``.
    """
    a = CNOT.conj().T @ np.asarray(unitary, dtype=np.complex128)
    if a.shape != (4, 4):
        raise ValueError(f"expected a 4x4 unitary, got shape {a.shape}")
    angles = np.sort(np.angle(np.linalg.eigvals(a)))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * math.pi]]))
    widest = float(np.max(gaps))
    if widest <= math.pi:
        return 0.0
    return math.cos((2.0 * math.pi - widest) / 2.0) ** 2


def _fsq(forms: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F^2 for each row of ``psi`` and the Riemannian gradient there.

    With ``z_a = <psi|A_a|psi>`` the Euclidean gradient (real inner
    product) is ``2 sum_a (conj(z_a) A_a + z_a A_a^dag) psi``; the part
    along ``psi`` is removed, leaving the tangent direction.
    """
    z = np.einsum("si,aij,sj->sa", psi.conj(), forms, psi)
    grad = np.einsum("sa,aij,sj->si", z.conj(), forms, psi)
    grad += np.einsum("sa,aji,sj->si", z, forms.conj(), psi)
    grad -= psi * np.real(np.sum(psi.conj() * grad, axis=1))[:, None]
    return np.sum(np.abs(z) ** 2, axis=1), 2.0 * grad


def _polish(forms: np.ndarray, psi0: np.ndarray) -> float:
    """BFGS on the real 8-vector ``x`` with ``psi = x / |x|``, from ``psi0``."""

    def value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        norm = np.linalg.norm(x)
        value, grad = _fsq(forms, (x[None, :4] + 1j * x[None, 4:]) / norm)
        return float(value[0]), np.concatenate([grad[0].real, grad[0].imag]) / norm

    x0 = np.concatenate([psi0.real, psi0.imag])
    res = optimize.minimize(
        value_and_grad, x0, jac=True, method="BFGS", options={"gtol": 1e-14, "maxiter": 300}
    )
    return float(res.fun)


def descent_fsq(
    forms: np.ndarray, starts: int = 32, iterations: int = 100, polished: int = 4, seed: int = 0
) -> float:
    """Estimate of ``min F^2`` over the unit sphere, from above.

    Each start follows the Riemannian gradient of F^2 (the Euclidean
    gradient with its radial part removed) and is renormalized after
    every step.  A step is kept only when it lowers the value; the step
    length grows by 1.5 after a kept step and halves after a rejected
    one, per start.  Plain descent converges slowly where the minimum is
    small, so the ``polished`` lowest starts are then finished with BFGS.
    """
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((starts, 4)) + 1j * rng.standard_normal((starts, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    value, grad = _fsq(forms, psi)
    step = np.full(starts, 0.25)
    for _ in range(iterations):
        trial = psi - step[:, None] * grad
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        trial_value, trial_grad = _fsq(forms, trial)
        better = trial_value < value
        psi = np.where(better[:, None], trial, psi)
        grad = np.where(better[:, None], trial_grad, grad)
        value = np.where(better, trial_value, value)
        step = np.where(better, step * 1.5, step * 0.5)
    best = float(np.min(value))
    for k in np.argsort(value)[:polished]:
        best = min(best, _polish(forms, psi[k]))
    return best
