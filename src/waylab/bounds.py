"""Operator identities and error-disturbance bounds under conservation.

When the interaction of a measurement model commutes with an additive
conserved quantity ``L1 + L2 + L3`` (object + probe + ancilla parts),
the commutator of the measured observable with the object charge can be
rewritten exactly in terms of the error and disturbance operators:

    [A(0), L1(0)] = [L1(dt), E] + [L2(dt), D] + [L3(dt), D]
    [A(0), L1(0)] = [L1(dt), E] + [L2(dt), D] + [L3(dt), E]

(the ancilla term can be carried by either the disturbance or the error
operator).  Taking expectations in a product input state and applying
Robertson-type estimates turns each identity into a trade-off bound on
the rms error and disturbance:

    |<[A, L1]>|/2 <= eps*sigma(L1(dt)) + eta*sigma(L2(dt)) + eta*sigma(L3(dt))
    |<[A, L1]>|/2 <= eps*sigma(L1(dt)) + eta*sigma(L2(dt)) + eps*sigma(L3(dt))

Summing and bounding the deviations by operator norms gives the
state-independent forms

    |<[A, L1]>| <= (eps + eta) * (2*max(sigma1, sigma2) + sigma3)
    |<[A, L1]>|^2 / (2*(2*max(||L1||, ||L2||) + sigma3)^2) <= eps^2 + eta^2

Every evaluation is emitted as a :class:`BoundReport` carrying both
sides, the slack, and a digest of the inputs, so CLI runs and tests
share one audit format.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .conservation import ConservationError, ConservationLaw, conservation_residual
from .measurement import IndirectMeasurementModel, noise_images, rms_noise
from .operators import (
    HilbertSpec,
    Operator,
    StateVector,
    commutator,
    evolve,
    expectation,
    operator_norm,
    std_dev,
)
from .serialize import canonical_json, digest

__all__ = [
    "BoundReport",
    "bound_ingredients",
    "identity_reports",
    "require_conserving",
    "trade_off_reports",
    "qway_bounds",
    "summed_bound",
    "fundamental_bound",
    "reports_to_csv",
]

# A model must conserve the total charge at least this well before any
# identity or bound evaluation is meaningful.
CONSERVATION_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One audited relation evaluation.

    ``kind`` is ``"identity"`` (slack = |lhs - rhs|, the residual norm
    when rhs is 0; pass means slack <= tol) or ``"inequality"`` (slack =
    rhs - lhs, pass means slack >= -tol).  The slack is derived, never
    passed.  ``digest`` identifies the inputs that produced the
    numbers; ``details`` carries auxiliary measured quantities.
    """

    relation: str
    kind: str
    lhs: float
    rhs: float
    slack: float = field(init=False)
    digest: str
    details: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind == "identity":
            slack = abs(self.lhs - self.rhs)
        elif self.kind == "inequality":
            slack = self.rhs - self.lhs
        else:
            raise ValueError(f"unknown report kind {self.kind!r}")
        object.__setattr__(self, "slack", slack)

    def passed(self, tol: float = CONSERVATION_TOL) -> bool:
        if self.kind == "identity":
            return self.slack <= tol
        return self.slack >= -tol

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "relation": self.relation,
            "kind": self.kind,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "digest": self.digest,
        }
        if self.details:
            out["details"] = dict(sorted(self.details.items()))
        return out


def reports_to_csv(reports: Sequence[BoundReport]) -> str:
    """CSV rendering of reports with the same columns as the JSON form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["relation", "kind", "lhs", "rhs", "slack", "digest", "details"])
    for r in reports:
        writer.writerow(
            [
                r.relation,
                r.kind,
                repr(r.lhs),
                repr(r.rhs),
                repr(r.slack),
                r.digest,
                canonical_json(dict(sorted(r.details.items()))) if r.details else "",
            ]
        )
    return buf.getvalue()


def require_conserving(spec: HilbertSpec, interaction: Operator, law: ConservationLaw) -> None:
    """Raise unless ``interaction`` lives on the law's factors and
    conserves its total charge within :data:`CONSERVATION_TOL`.

    The verdict is the spectral residual's (``conservation_residual``),
    and so is a raised :class:`ConservationError`'s value."""
    if spec.factor_dims != law.spec.factor_dims:
        raise ValueError(
            f"interaction factors {spec.factor_dims} do not match law factors "
            f"{law.spec.factor_dims}"
        )
    # ||X||_2 <= ||X||_F: a Frobenius norm within the tolerance certifies
    # the check, and only a larger one pays for the SVD of the exact value
    if np.linalg.norm(commutator(interaction, law.total()).entries) <= CONSERVATION_TOL:
        return
    residual = conservation_residual(interaction, law)
    if residual > CONSERVATION_TOL:
        raise ConservationError(residual, CONSERVATION_TOL)


def identity_reports(
    model: IndirectMeasurementModel, law: ConservationLaw
) -> tuple[BoundReport, BoundReport]:
    """Spectral-norm residuals of the two commutation identities, as
    audit records.

    Requires the interaction to conserve the total charge (residual
    <= 1e-9), otherwise :class:`ConservationError` is raised: the
    identities are consequences of conservation and are not expected to
    hold without it.
    """
    require_conserving(model.spec, model.interaction, law)
    lhs = commutator(model._measured, law._lifts[0]).entries
    err, dist = noise_images(model, np.eye(model.spec.total_dim))
    l1t, l2t, l3t = (op.entries for op in evolve(law._lifts, model.interaction))

    def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b - b @ a

    shared = comm(l1t, err) + comm(l2t, dist)
    rhs1 = shared + comm(l3t, dist)
    rhs2 = shared + comm(l3t, err)
    tag = digest(model=model, law=law)
    return (
        BoundReport("identity-1", "identity", float(np.linalg.norm(lhs - rhs1, ord=2)), 0.0, tag),
        BoundReport("identity-2", "identity", float(np.linalg.norm(lhs - rhs2, ord=2)), 0.0, tag),
    )


def bound_ingredients(
    model: IndirectMeasurementModel, law: ConservationLaw, psi: StateVector,
    evolved: Mapping[str, Operator],
) -> dict[str, float]:
    """The trade-off bounds' ingredients at object state ``psi``: ``eps``,
    ``eta``, the deviation of each evolved charge U^dag L U in ``evolved``
    under its name, taken in the full input state, and ``commutator_abs``
    = |<[A, L1]>|.  Every trade-off bound and the CNOT chain read these.
    The input x is built once; ``eps`` and ``eta`` are read from U x."""
    state = model.initial_state(psi)
    eps, eta = rms_noise(model, state)
    return {
        "eps": eps,
        "eta": eta,
        **{name: std_dev(charge, state) for name, charge in evolved.items()},
        "commutator_abs": abs(expectation(commutator(model.observable, law.object_part), psi)),
    }


def trade_off_reports(
    model: IndirectMeasurementModel, law: ConservationLaw, psi: StateVector
) -> tuple[BoundReport, BoundReport, BoundReport, BoundReport]:
    """The four state-dependent trade-off bounds from one ingredient pass.

    In the module docstring's order: ``qway-1`` (ancilla term weighted
    by the disturbance), ``qway-2`` (weighted by the error), ``summed``
    and ``fundamental``.  The operator norms make the fundamental
    denominator state-independent; the strictly tighter variant with the
    evolved-charge deviations ``sigma1, sigma2`` in their place is
    recorded in ``details["lhs_sigma_variant"]`` for comparison.
    """
    require_conserving(model.spec, model.interaction, law)
    names = ("sigma_l1", "sigma_l2", "sigma_l3")
    q = bound_ingredients(model, law, psi, dict(zip(names, evolve(law._lifts, model.interaction))))
    eps, eta, s1, s2, s3, comm = q.values()
    tag = digest(model=model, law=law, psi=psi)
    half = 0.5 * comm
    rhs1 = eps * s1 + eta * s2 + eta * s3
    rhs2 = eps * s1 + eta * s2 + eps * s3
    summed = (eps + eta) * (2.0 * max(s1, s2) + s3)
    noise_sq = eps**2 + eta**2
    norm_den = 2.0 * max(operator_norm(law.object_part), operator_norm(law.probe_part))
    fund = _safe_ratio(comm**2, 2.0 * (norm_den + s3) ** 2)
    fund_sigma = _safe_ratio(comm**2, 2.0 * (2.0 * max(s1, s2) + s3) ** 2)
    return (
        BoundReport("qway-1", "inequality", half, rhs1, tag, q),
        BoundReport("qway-2", "inequality", half, rhs2, tag, q),
        BoundReport("summed", "inequality", comm, summed, tag, q),
        BoundReport(
            "fundamental", "inequality", fund, noise_sq, tag, {**q, "lhs_sigma_variant": fund_sigma}
        ),
    )


def qway_bounds(
    model: IndirectMeasurementModel, law: ConservationLaw, psi: StateVector
) -> tuple[BoundReport, BoundReport]:
    """``qway-1`` and ``qway-2`` of :func:`trade_off_reports`."""
    qway1, qway2, _, _ = trade_off_reports(model, law, psi)
    return qway1, qway2


def summed_bound(
    model: IndirectMeasurementModel, law: ConservationLaw, psi: StateVector
) -> BoundReport:
    """``summed`` of :func:`trade_off_reports`."""
    return trade_off_reports(model, law, psi)[2]


def fundamental_bound(
    model: IndirectMeasurementModel, law: ConservationLaw, psi: StateVector
) -> BoundReport:
    """``fundamental`` of :func:`trade_off_reports`."""
    return trade_off_reports(model, law, psi)[3]


def _safe_ratio(num: float, den: float) -> float:
    """num/den with the 0/0 case (trivial law, vanishing commutator)
    resolved to 0 and a genuinely unbounded ratio passed through as
    infinity.

    The numerator is a squared commutator expectation, so float noise
    leaves it around eps^2 ~ 1e-32 when it is exactly zero in exact
    arithmetic; the trade-off bound itself guarantees it vanishes
    whenever the denominator does, so anything below 1e-18 counts as
    the 0/0 case rather than a diverging ratio.
    """
    if den == 0.0:
        return 0.0 if num <= 1e-18 else float("inf")
    return num / den
