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
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .conservation import ConservationError, ConservationLaw
from .measurement import IndirectMeasurementModel, stacked_noise_images
from .operators import (
    HilbertSpec,
    Operator,
    StateVector,
    checked_stack,
    commutators,
    evolved_stack,
    grouped,
    inner_products,
    kron,
    operator_norms,
    stacked_moments,
)
from .serialize import canonical_json, digests

__all__ = [
    "BoundReport",
    "bound_ingredients",
    "identity_reports",
    "stacked_identity_reports",
    "require_conserving",
    "trade_off_reports",
    "stacked_trade_off_reports",
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
    """CSV rendering of reports with the same columns as the JSON form: ``csv.writer``'s bytes
    (``lineterminator="\\n"``), one f-string a row.  A details cell, canonical JSON, holds a quote
    unless empty and is quoted; a row whose other cells hold ``,"\\r\\n`` goes through ``csv.writer``."""
    lines = ["relation,kind,lhs,rhs,slack,digest,details\n"]
    # records share details mappings (a case's qway and summed records do): each is encoded once
    encoded: dict[int, str] = {}
    for r in reports:
        details = encoded.get(id(r.details))
        if details is None:
            quoted = canonical_json(dict(r.details)).replace('"', '""')  # json encodes a dict, keys sorted
            details = encoded[id(r.details)] = f'"{quoted}"' if r.details else ""
        cells = f"{r.relation},{r.kind},{r.lhs!r},{r.rhs!r},{r.slack!r},{r.digest}"
        if cells.count(",") != 5 or '"' in cells or "\n" in cells or "\r" in cells:
            csv.writer(buf := io.StringIO(), lineterminator="\n").writerow(
                [r.relation, r.kind, repr(r.lhs), repr(r.rhs), repr(r.slack), r.digest])
            cells = buf.getvalue()[:-1]
        lines.append(f"{cells},{details}\n")
    return "".join(lines)


def require_conserving(spec: HilbertSpec, interaction: Operator, law: ConservationLaw) -> None:
    """Raise unless ``interaction`` lives on the law's factors and
    conserves its total charge within :data:`CONSERVATION_TOL`.

    The verdict is the spectral residual's (``conservation_residual``),
    and so is a raised :class:`ConservationError`'s value.  This is the
    stacked passes' gate for one case."""
    _require_conserving(spec, [law], interaction.entries[None])


def _require_conserving(spec: HilbertSpec, laws: Sequence[ConservationLaw], u: np.ndarray) -> None:
    """:func:`require_conserving` of each interaction of the stack ``u``
    with its law on ``spec``, in order.  The commutators with the total
    charges are one stacked product."""
    for law in laws:
        if spec.factor_dims != law.spec.factor_dims:
            raise ValueError(
                f"interaction factors {spec.factor_dims} do not match law factors "
                f"{law.spec.factor_dims}"
            )
    comms = commutators(u, np.array([law.lifts[3] for law in laws]))
    # ||X||_2 <= ||X||_F: a Frobenius norm within the tolerance certifies
    # the check, and only a larger one (or NaN) pays for the SVD of the
    # exact value: conservation_residual's, and refused as there if not finite
    for i, frobenius in enumerate(np.linalg.norm(comms, axis=(-2, -1)).tolist()):
        if not frobenius <= CONSERVATION_TOL:
            residual = float(np.linalg.svd(checked_stack(comms[i]), compute_uv=False)[0])
            if residual > CONSERVATION_TOL:
                raise ConservationError(residual, CONSERVATION_TOL)


def _stack(ops: Iterable[Operator]) -> np.ndarray:
    return np.array([op.entries for op in ops])


def _by_layout(cases: Sequence[tuple], evaluate: Callable[[list], list]) -> list:
    """``evaluate`` of the cases of each layout (the first member's spec), in case order."""
    return grouped([case[0].spec for case in cases], lambda members: evaluate([cases[i] for i in members]))


def identity_reports(
    model: IndirectMeasurementModel, law: ConservationLaw
) -> tuple[BoundReport, BoundReport]:
    """Spectral-norm residuals of the two commutation identities, as
    audit records.

    Requires the interaction to conserve the total charge (residual
    <= 1e-9), otherwise :class:`ConservationError` is raised: the
    identities are consequences of conservation and are not expected to
    hold without it.  This is :func:`stacked_identity_reports` of one case.
    """
    return stacked_identity_reports([(model, law)])[0]


def stacked_identity_reports(
    cases: Sequence[tuple[IndirectMeasurementModel, ConservationLaw]],
) -> list[tuple[BoundReport, BoundReport]]:
    """:func:`identity_reports` of each (model, law), in order, bit for bit.

    The cases of one layout are evaluated together: one conservation
    gate, one lift of the observables, one :func:`stacked_noise_images`
    at the identity (E and D), one evolution of the lifted charges, one
    ``svd`` for both residuals of every case and one digest header.
    """
    return _by_layout(cases, _identity_group)


def _identity_group(
    cases: list[tuple[IndirectMeasurementModel, ConservationLaw]],
) -> list[tuple[BoundReport, BoundReport]]:
    models, laws = zip(*cases)
    spec = models[0].spec
    u, a, p = (_stack(getattr(m, name) for m in models) for name in ("interaction", "observable", "pointer"))
    _require_conserving(spec, laws, u)
    # each stack is let go after its last product, and both residuals
    # lhs - (shared + [L3', D]) and lhs - (shared + [L3', E]) are formed
    # in place in the one stack their svd reads
    lifts = np.array([law.lifts[:3] for law in laws])
    lhs = commutators(spec.lift(a, "object"), lifts[:, 0])
    l1t, l2t, l3t = evolved_stack(lifts, u).swapaxes(0, 1)
    del lifts
    err, dist = stacked_noise_images(spec, u, a, p, np.eye(spec.total_dim))
    del u
    shared = commutators(l1t, err)
    shared += commutators(l2t, dist)
    residuals = np.empty((len(cases), 2) + lhs.shape[1:], dtype=np.complex128)
    for k, noise in enumerate((dist, err)):
        np.add(shared, commutators(l3t, noise), out=residuals[:, k])
        np.subtract(lhs, residuals[:, k], out=residuals[:, k])
    # the spectral norm is the largest singular value, as np.linalg.norm(ord=2) takes it
    residuals = np.linalg.svd(residuals, compute_uv=False).max(axis=-1)
    tags = digests([{"model": model, "law": law} for model, law in cases])
    return [
        (
            BoundReport("identity-1", "identity", r1, 0.0, tag),
            BoundReport("identity-2", "identity", r2, 0.0, tag),
        )
        for (r1, r2), tag in zip(residuals.tolist(), tags)
    ]


def bound_ingredients(
    models: Sequence[IndirectMeasurementModel],
    laws: Sequence[ConservationLaw],
    psis: Sequence[StateVector],
    evolved: Mapping[str, np.ndarray],
) -> list[dict[str, float]]:
    """The trade-off bounds' ingredients of each (model, law, psi), the
    models all on one layout: ``eps``, ``eta``, the deviation of each
    evolved charge U^dag L U in ``evolved`` under its name (a stack with
    one matrix per case, or one matrix for every case), taken in the full
    input state, and ``commutator_abs`` = |<[A, L1]>|.  Every trade-off
    bound and the CNOT chain read these.

    The input states x are built as one stack of columns, the unchecked
    :func:`~waylab.operators.kron` of checked states, and ``eps`` and
    ``eta`` are read from U x.  Each product and inner product is one
    stacked call, which gives each case the bits of its own."""
    spec = models[0].spec
    for state in psis:
        if state.dim != spec.object_dim:
            raise ValueError(f"object state dim {state.dim}, expected {spec.object_dim}")
    u, a, p = (_stack(getattr(m, name) for m in models) for name in ("interaction", "observable", "pointer"))
    psi = x = np.array([state.amplitudes for state in psis])[:, :, None]
    for factor in ("probe_state", "ancilla_state"):
        x = kron(x, np.array([getattr(m, factor).amplitudes for m in models])[:, :, None])
    err, dist = stacked_noise_images(spec, u, a, p, x)
    eps, eta = (np.sqrt(inner_products(v, v).real).tolist() for v in (err, dist))
    sigmas = {name: stacked_moments(charge, x)[1] for name, charge in evolved.items()}
    l1 = _stack(law.object_part for law in laws)
    comm = inner_products(psi, commutators(a, l1) @ psi).tolist()
    return [
        {"eps": eps[i], "eta": eta[i], **{n: s[i] for n, s in sigmas.items()}, "commutator_abs": abs(comm[i])}
        for i in range(len(psis))
    ]


def trade_off_reports(
    model: IndirectMeasurementModel, law: ConservationLaw, psi: StateVector
) -> tuple[BoundReport, BoundReport, BoundReport, BoundReport]:
    """The four state-dependent trade-off bounds from one ingredient pass.

    In the module docstring's order: ``qway-1`` (ancilla term weighted
    by the disturbance), ``qway-2`` (weighted by the error), ``summed``
    and ``fundamental``.  The operator norms make the fundamental
    denominator state-independent; the strictly tighter variant with the
    evolved-charge deviations ``sigma1, sigma2`` in their place is
    recorded in ``details["lhs_sigma_variant"]`` for comparison.  This
    is :func:`stacked_trade_off_reports` of one case.
    """
    return stacked_trade_off_reports([(model, law, psi)])[0]


def stacked_trade_off_reports(
    cases: Sequence[tuple[IndirectMeasurementModel, ConservationLaw, StateVector]],
) -> list[tuple[BoundReport, BoundReport, BoundReport, BoundReport]]:
    """:func:`trade_off_reports` of each (model, law, psi), in order, bit
    for bit.

    The cases of one layout are evaluated together: one conservation
    gate, one evolution of the lifted charges, one
    :func:`bound_ingredients` pass, one ``svd`` per dimension of the
    object and probe charges and one digest header.
    """
    return _by_layout(cases, _trade_off_group)


def _trade_off_group(
    cases: list[tuple[IndirectMeasurementModel, ConservationLaw, StateVector]],
) -> list[tuple[BoundReport, BoundReport, BoundReport, BoundReport]]:
    models, laws, psis = zip(*cases)
    u = _stack(m.interaction for m in models)
    _require_conserving(models[0].spec, laws, u)
    evolved = evolved_stack(np.array([law.lifts[:3] for law in laws]), u)
    names = ("sigma_l1", "sigma_l2", "sigma_l3")
    ingredients = bound_ingredients(models, laws, psis, dict(zip(names, evolved.swapaxes(0, 1))))
    norms = operator_norms([part for law in laws for part in (law.object_part, law.probe_part)])
    tags = digests([{"model": model, "law": law, "psi": psi} for model, law, psi in cases])
    return [
        _trade_off(q, tag, 2.0 * max(norms[2 * i], norms[2 * i + 1]))
        for i, (q, tag) in enumerate(zip(ingredients, tags))
    ]


def _trade_off(
    q: dict[str, float], tag: str, norm_den: float
) -> tuple[BoundReport, BoundReport, BoundReport, BoundReport]:
    """One case's four reports from its ingredients, digest and
    2 max(||L1||, ||L2||)."""
    eps, eta, s1, s2, s3, comm = q.values()
    half = 0.5 * comm
    rhs1 = eps * s1 + eta * s2 + eta * s3
    rhs2 = eps * s1 + eta * s2 + eps * s3
    summed = (eps + eta) * (2.0 * max(s1, s2) + s3)
    noise_sq = eps**2 + eta**2
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
