"""Concrete conservation scenarios and the fidelity-ceiling optimizer.

Two families are built here.  The spin family puts a CNOT on n qubits
total (control, target, and n-2 ancilla qubits) under conservation of
the total x spin component; the resulting fidelity ceiling is
F^2 <= 1 - 1/(4 n^2).  The bosonic family replaces the spin ancilla by
a truncated coherent field mode with charge 2N; its ceiling in terms of
the mean photon number is F^2 <= 1 - 1/(16 nbar), with the rigorous
per-implementation form using the measured deviation of the evolved
charge.  :func:`optimize_fidelity` probes how closely conserving
implementations approach these ceilings by projected gradient ascent
over commutant coefficients, stopping with :class:`CeilingViolation`
should any evaluated point cross its ceiling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .bounds import BoundReport
from .cnot import (
    FidelityResult,
    GateImplementation,
    SearchConfig,
    cnot_unitary,
    gate_fidelity,
    l3_moments,
    pauli,
    search_meets,
    sigma_ceiling_fsq,
)
from .conservation import (
    CommutantBasis,
    ConservationLaw,
    commutant_basis,
    conserving_exponential,
)
from .measurement import IndirectMeasurementModel
from .operators import MAX_TOTAL_DIM, HilbertSpec, Operator, StateVector, commutator, operator_norm
from .serialize import digest

__all__ = [
    "TAIL_TOL",
    "CEILING_TOL",
    "Scenario",
    "OptimizeConfig",
    "OptimizationRun",
    "CeilingViolation",
    "build_spin",
    "build_boson",
    "boson_reports",
    "optimize_fidelity",
    "way_positive_control",
]

# Search box for commutant coefficients: exp(-i c B) is 2*pi-periodic
# along any single unit-norm generator direction, so a wider box only
# revisits the same unitaries.
COEFF_BOX = 2.0 * math.pi
# Initial length of an ascent step in coefficient space, as the inner
# search's initial step; a start ends once its step falls below the floor.
STEP_INIT = 0.25
STEP_FLOOR = 1e-6
# The inner search that scores the optimizer's best point once, stronger
# than the climb's, so the reported value is not inflated by an
# under-converged minimum.
FINAL_SEARCH = SearchConfig(restarts=32, max_iter=300)
# Most descent steps of the warm pass that screens each ascent trial (see
# optimize_fidelity); it stops at the first step that decides the trial.
# Its rejections were decided after 0, 1 and 2 steps in 6, 8 and 1 cases
# at the maximin-spin3 budget, and after 0 steps in 14 of 15 cases on one
# spin n = 4 and one n = 5 run, while an uncapped warm pass on trials the
# cold search then accepted ran 3 to 18 steps for nothing.
WARM_STEPS = 2
# Default bound on the Poisson tail a field-mode truncation may drop.
TAIL_TOL = 1e-10
# How far an evaluated F^2 may sit above its ceiling before the optimizer
# raises CeilingViolation: room for the rounding of the search.
CEILING_TOL = 1e-9


def ceiling_qubit(n: int) -> float:
    """Fidelity-squared ceiling 1 - 1/(4 n^2) for an n-qubit implementation.

    The chain's :func:`~waylab.cnot.sigma_ceiling_fsq` at sigma = n - 2, which
    bounds sigma(L3') since the ancilla charge, X summed over n - 2 qubits,
    has norm n - 2.  At n=2 the ceiling is 15/16: the worst-case error
    probability of any spin-conserving two-qubit CNOT is at least 1/16.
    """
    if n < 2:
        raise ValueError(f"need at least control and target qubits, got n={n}")
    return sigma_ceiling_fsq(n - 2)


def ceiling_boson(nbar: float) -> float:
    """Fidelity-squared ceiling 1 - 1/(16 nbar) for a coherent control field.

    Uses the Poissonian input statistics (Delta N)^2 = <N>; the value
    may be <= 0 for nbar <= 1/16, where the formula degenerates and
    excludes nothing.
    """
    if not 0 < nbar < math.inf:
        raise ValueError(f"mean photon number must be positive and finite, got {nbar}")
    return 1.0 - 1.0 / (16.0 * nbar)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A CNOT family: its conservation law, whose ``spec`` is the
    scenario's space, the ancilla input and the F^2 ceiling.

    ``nbar`` is the mean photon number of a coherent control field (the
    bosonic family, whose Fock cutoff is ``spec.ancilla_dim``), and
    ``None`` for a spin register of ``len(spec.factor_dims)`` qubits.
    """

    law: ConservationLaw
    ancilla_state: StateVector
    ceiling_fsq: float
    nbar: float | None = None

    @property
    def spec(self) -> HilbertSpec:
        return self.law.spec

    @property
    def label(self) -> str:
        if self.nbar is None:
            return f"spin-n{len(self.spec.factor_dims)}"
        return f"boson-nbar{self.nbar:g}"


def build_spin(n: int) -> Scenario:
    """Spin scenario on n >= 2 qubits, labelled ``spin-n{n}``.

    The conservation law is Pauli X on the control, Pauli X on the
    target, and the summed X over the n-2 ancilla qubits (the 1 x 1
    zero for n=2).  The ancilla state is |0>^(n-2).  The choice matters:
    an ancilla prepared in an eigenstate of its conserved charge (any
    product of |+> and |->) pins the total charge sector, and a sector
    argument then forces the worst-case fidelity of *every* conserving
    implementation to zero.  Computational-basis states spread evenly
    over the charge sectors and act as a coherent reservoir, the same
    role the coherent state plays in the bosonic family.
    """
    if n >= MAX_TOTAL_DIM.bit_length():  # 2^n > MAX_TOTAL_DIM, refused before any factor is listed
        raise ValueError(
            f"a spin space of more than {MAX_TOTAL_DIM.bit_length() - 1} qubits "
            f"exceeds the dense limit {MAX_TOTAL_DIM}"
        )
    ceiling = ceiling_qubit(n)  # refuses n < 2
    anc_qubits = n - 2
    spec = HilbertSpec((2, 2) + (2,) * anc_qubits)
    x = pauli("X")
    summed = np.zeros((spec.ancilla_dim,) * 2, dtype=np.complex128)
    for k in range(anc_qubits):  # X on ancilla qubit k, lifted to the ancilla register
        summed += HilbertSpec((2**k, 2, 2 ** (anc_qubits - k - 1))).lift(x.entries, "probe")
    law = ConservationLaw(spec, x, x, Operator(summed, hermitian=True))
    return Scenario(law, StateVector.basis(spec.ancilla_dim, 0), ceiling)


def poisson_cutoff(nbar: float, tail_tol: float = TAIL_TOL) -> int:
    """Smallest Fock dimension whose neglected Poisson tail is < tail_tol."""
    if not 0 < nbar < math.inf:
        raise ValueError(f"mean photon number must be positive and finite, got {nbar}")
    if not 0 < tail_tol < 1:
        raise ValueError(f"tail tolerance must be in (0, 1), got {tail_tol}")
    from scipy.special import pdtrc  # imported here, as gammaln below, for the boson scenario alone
    if float(pdtrc(MAX_TOTAL_DIM - 1, nbar)) >= tail_tol:  # the tail falls as d grows
        raise ValueError(
            f"the Fock cutoff for nbar={nbar} and tail {tail_tol} exceeds the dense limit {MAX_TOTAL_DIM}"
        )
    d = 1
    while float(pdtrc(d - 1, nbar)) >= tail_tol:  # Poisson P(k >= d)
        d += 1
    return d


def truncated_coherent(nbar: float, cutoff: int) -> StateVector:
    """Coherent state of mean photon number nbar on the lowest ``cutoff``
    Fock levels, renormalized after truncation.

    Amplitudes alpha^k / sqrt(k!) are evaluated in log space (log-gamma
    for the factorial) so large cutoffs do not overflow.
    """
    from scipy.special import gammaln
    alpha = math.sqrt(nbar)
    ks = np.arange(cutoff)
    log_amp = ks * math.log(alpha) - 0.5 * gammaln(ks + 1.0) - 0.5 * nbar
    return StateVector.from_amplitudes(np.exp(log_amp))


def build_boson(nbar: float, tail_tol: float = TAIL_TOL) -> Scenario:
    """Bosonic scenario: CNOT qubits plus one truncated field mode,
    labelled ``boson-nbar{nbar:g}``.

    The ancilla charge is twice the number operator, and the ancilla
    input the coherent state of real amplitude sqrt(nbar).  The cutoff,
    the ancilla dimension, is the smallest one meeting the tail
    tolerance (:func:`poisson_cutoff`); a smaller ``tail_tol`` keeps
    more Fock levels.  Mean photon numbers below 1e-6 are rejected: the
    vacuum limit leaves no reservoir and the truncation itself would
    degenerate.  So are non-finite ones.
    """
    if not 1e-6 <= nbar < math.inf:
        raise ValueError(f"mean photon number {nbar} outside the supported range [1e-6, inf)")
    d = poisson_cutoff(nbar, tail_tol)
    spec = HilbertSpec((2, 2, d))
    x = pauli("X")
    law = ConservationLaw(spec, x, x, Operator(np.diag(2.0 * np.arange(d)), hermitian=True))
    return Scenario(law, truncated_coherent(nbar, d), ceiling_boson(nbar), float(nbar))


def boson_reports(
    impl: GateImplementation, scenario: Scenario, fidelity: FidelityResult
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The coherent-field check of one implementation, three reports under
    one digest: F^2 (``fidelity``, its worst-case search) against
    :func:`~waylab.cnot.sigma_ceiling_fsq` of the measured sigma(L3')
    (``sigma-ceiling``, rigorous); sigma(L3') in the chain's input against
    the cap 2*sqrt(<N>+2) (``sigma-l3``); and F^2 against 1 - 1/(16 nbar)
    (``nbar-ceiling``).  The last two rest on coherent-state steps, the
    evolved field staying Poissonian and gaining at most the two qubits'
    charge, that are not exact after an arbitrary conserving interaction:
    their outcomes are data about the approximation, not a build gate.
    ``sigma-l3`` records the Poissonian residual |Delta N' - sqrt(<N'>)|
    and the mean-shift margin in its details; the two F^2 records carry
    the search's certified ``fidelity_sq_lower`` in theirs.  The digest
    tags the implementation and the scenario's nbar and Fock cutoff; a
    scenario without ``nbar`` (a spin register) is a ``ValueError``.
    """
    if scenario.nbar is None:
        raise ValueError(f"{scenario.label} is not a coherent-field scenario")
    if impl.spec.factor_dims != scenario.spec.factor_dims:
        raise ValueError("implementation does not live on the scenario's space")
    mean_l3, sigma = l3_moments(impl, scenario.law)
    # N' = L3'/2: halving is exact, so these are U^dag (I x N) U's moments bit for bit
    mean_n, delta_n = 0.5 * mean_l3, 0.5 * sigma
    nbar, fsq, rigorous = scenario.nbar, fidelity.fidelity_sq, sigma_ceiling_fsq(sigma)
    details = {
        "sigma_l3_evolved": sigma,
        "mean_n_evolved": mean_n,
        "mean_n_input": nbar,
        "mean_shift_margin": (nbar + 2.0) - mean_n,
        "poissonian_residual": abs(delta_n - math.sqrt(max(mean_n, 0.0))),
        "sigma_ceiling_fsq": rigorous,
        "nbar_ceiling_fsq": scenario.ceiling_fsq,
    }
    tag = digest(implementation=impl, scenario={"nbar": nbar, "cutoff": scenario.spec.ancilla_dim})
    fsq_details = {"fidelity_sq_lower": fidelity.fidelity_sq_lower, "nbar": nbar}
    return (
        BoundReport("sigma-ceiling", "inequality", fsq, rigorous, tag, {**fsq_details, "sigma_l3": sigma}),
        BoundReport("sigma-l3", "inequality", sigma, 2.0 * math.sqrt(nbar + 2.0), tag, details),
        BoundReport("nbar-ceiling", "inequality", fsq, scenario.ceiling_fsq, tag, fsq_details),
    )


@dataclass(frozen=True)
class OptimizeConfig:
    """Budget and seeding for the outer fidelity maximization.

    ``restarts`` random coefficient starts are drawn from one PCG64
    stream (so a larger budget extends, rather than reshuffles, a
    smaller one); ``initial_points`` adds caller-chosen coefficient
    vectors, e.g. a projection of a known-good interaction.  Each start
    takes at most ``max_iter`` gradient-ascent steps.  The inner
    worst-case fidelity search runs with ``inner`` during the climb
    and with :data:`FINAL_SEARCH` once, on the best point found.
    """

    restarts: int = 3
    max_iter: int = 120
    seed: int = 0
    inner: SearchConfig = field(
        default_factory=lambda: SearchConfig(restarts=8, max_iter=150)
    )
    initial_points: tuple[tuple[float, ...], ...] = ()


@dataclass(frozen=True)
class OptimizationRun:
    """Result of one ceiling-probing run.

    ``gap`` is the reference ceiling minus the best fidelity-squared, and
    ``best_fidelity_sq_lower`` the final search's certified lower value;
    ``min_gap_evaluated`` is the smallest per-evaluation margin seen
    anywhere during the search (negative would mean a ceiling
    violation; for bosonic runs the per-evaluation margin uses the
    rigorous sigma(L3')-form ceiling).
    """

    scenario: str
    ceiling_fsq: float
    best_fidelity: float
    best_fidelity_sq: float
    best_fidelity_sq_lower: float
    gap: float
    min_gap_evaluated: float
    coefficients: tuple[float, ...]
    evaluations: int
    details: dict[str, float] = field(default_factory=dict)
    trace: tuple[dict[str, float], ...] = field(default=(), repr=False)

    def to_json_dict(self) -> dict[str, Any]:
        return {**asdict(self), "details": dict(sorted(self.details.items()))}


class CeilingViolation(Exception):
    """An evaluated implementation landed above its fidelity ceiling.

    That would contradict the conservation-law bound rather than merely
    disappoint, so the search stops and keeps the witness: the clipped
    commutant coefficients, their F^2 and the ceiling they crossed.
    """

    def __init__(
        self, scenario: str, coefficients: tuple[float, ...], fidelity_sq: float, ceiling_fsq: float
    ):
        self.scenario = scenario
        self.coefficients = coefficients
        self.fidelity_sq = fidelity_sq
        self.ceiling_fsq = ceiling_fsq
        super().__init__(
            f"implementation at F^2 = {fidelity_sq!r} exceeds ceiling "
            f"{ceiling_fsq!r} by {fidelity_sq - ceiling_fsq:.3e} in {scenario}"
        )


def projected_gate_coefficients(scenario: Scenario, basis: CommutantBasis) -> np.ndarray:
    """Commutant coefficients of the ideal gate's generator.

    The CNOT is exp(-i H) with H = (pi/2)(I - U_CN); projecting H
    (padded with identity on the ancilla) onto the conserving span
    gives the closest conserving generator in the Frobenius sense.
    Random coefficient vectors almost surely sit on the wide F = 0
    plateau of the maximin landscape, so this point is the one start
    that reliably lands inside a basin with nonzero fidelity.
    """
    h = (math.pi / 2.0) * (np.eye(4) - cnot_unitary().entries)
    lifted = Operator(
        np.kron(h, np.eye(scenario.spec.ancilla_dim)), hermitian=True
    )
    return basis.project_coefficients(lifted)


def optimize_fidelity(
    scenario: Scenario, config: OptimizeConfig | None = None
) -> OptimizationRun:
    """Maximize the worst-case CNOT fidelity over conserving unitaries.

    One projected gradient ascent of F^2 per start within the box
    [-2*pi, 2*pi], the first start the projected gate.  The gradient is
    exact at the worst state psi the inner search returns (Danskin): with
    z_a = <psi|A_a|psi>, dF^2/dc_k = 2 Re <(C psi) x z| dU/dc_k |psi x xi>.
    A step is kept only when it raises F^2, and then grows by 1.5; a
    rejected one halves.  A start ends after ``max_iter`` steps, at an
    exactly zero gradient (the F = 0 plateau), or below ``STEP_FLOOR``.
    Every evaluated point, rejected trials included, is checked against
    its ceiling (the scenario's fixed ``ceiling_fsq``, 1 - 1/(4 n^2) for
    spin; the measured sigma(L3')-form when ``nbar`` is set, the bosonic
    family): one above ceiling + ``CEILING_TOL``
    raises :class:`CeilingViolation`.

    With an ancilla, a trial first gets a warm pass: at most
    ``WARM_STEPS`` descent steps from every final state of the current
    point's search (:func:`~waylab.cnot.search_meets`).  Where it reaches
    an F^2 no higher than the current one, without lowering the smallest
    ceiling margin seen, the trial is rejected with no full ("cold")
    search: some state already shows the trial is no better, so only a
    cold search that missed that state could have accepted it.  The pass
    stops at the first step whose lowest F^2 does so, as the lowest F^2
    of a descent never rises, and returns only that verdict.  Otherwise
    the cold search runs as without the pass, on the evaluator the pass
    built.  The first point of each start and the final score are always
    cold, and only the final score's certified lower value is computed.
    """
    cfg = config or OptimizeConfig()
    if not 0 <= cfg.restarts <= MAX_TOTAL_DIM:  # the cap of a search's restarts
        raise ValueError(f"restarts must lie in [0, {MAX_TOTAL_DIM}], got {cfg.restarts}")
    basis = commutant_basis(scenario.law)
    count = basis.generator_count
    is_boson = scenario.nbar is not None
    cnot = cnot_unitary().entries
    min_gap, evaluations = math.inf, 0
    sigma = math.nan  # boson only: sigma(L3') at the last evaluation
    # d_anc = 1 is the exact hull, which a warm pass cannot improve on
    warm_search = replace(cfg.inner, max_iter=WARM_STEPS) if scenario.spec.has_ancilla else None

    def evaluate(
        coeffs: np.ndarray, search: SearchConfig | None = None, current: FidelityResult | None = None
    ) -> tuple[FidelityResult, GateImplementation, Callable[..., np.ndarray]] | None:
        """Score a point, kept with its implementation and the derivative
        of its U; None for a trial its warm pass rejects."""
        nonlocal min_gap, evaluations, sigma
        u, derivative = conserving_exponential(basis, coeffs)
        impl = GateImplementation(scenario.spec, u, scenario.ancilla_state)
        if is_boson:
            sigma = l3_moments(impl, scenario.law)[1]
            ceiling = sigma_ceiling_fsq(sigma)
        else:
            ceiling = scenario.ceiling_fsq
        evaluations += 1
        if current is not None and warm_search is not None:

            def rejects(fsq: float) -> bool:  # no better, and leaves the smallest margin as it is
                return not (fsq > current.fidelity_sq or ceiling - fsq < min_gap)

            if search_meets(impl, rejects, warm_search, current.final_states):
                return None
        res = gate_fidelity(impl, search or cfg.inner)
        min_gap = min(min_gap, ceiling - res.fidelity_sq)
        if min_gap < -CEILING_TOL:
            raise CeilingViolation(
                scenario.label, tuple(float(c) for c in coeffs), res.fidelity_sq, ceiling
            )
        return res, impl, derivative

    def gradient(
        res: FidelityResult, impl: GateImplementation, derivative: Callable[..., np.ndarray]
    ) -> np.ndarray:
        """dF^2/dc at the scored point's worst state psi (Danskin)."""
        psi = res.worst_state.amplitudes
        ket = np.kron(psi, impl.ancilla_state.amplitudes)
        z = (cnot @ psi).conj() @ (impl.unitary.entries @ ket).reshape(4, -1)
        return 2.0 * derivative(np.kron(cnot @ psi, z), ket)

    rng = np.random.default_rng(cfg.seed)
    given = [projected_gate_coefficients(scenario, basis)]
    given += [np.asarray(p, dtype=float) for p in cfg.initial_points]
    if any(s.size != count for s in given):
        raise ValueError(f"initial points must have {count} coefficients")
    # each random start is drawn when its turn comes, so ``restarts`` holds no memory
    starts = itertools.chain(given, (rng.standard_normal(count) for _ in range(cfg.restarts)))

    best_fsq, best_x = -1.0, given[0]
    trace: list[dict[str, float]] = []
    for i, x0 in enumerate(starts):
        x = np.clip(x0, -COEFF_BOX, COEFF_BOX)
        here, impl, derivative = evaluate(x)
        f0 = f = here.fidelity_sq
        grad = gradient(here, impl, derivative)
        step, iterations = STEP_INIT, 0
        while iterations < cfg.max_iter and step >= STEP_FLOOR and grad.any():
            iterations += 1
            trial = np.clip(x + step / np.linalg.norm(grad) * grad, -COEFF_BOX, COEFF_BOX)
            scored = evaluate(trial, current=here)
            if scored is not None and scored[0].fidelity_sq > f:
                here, impl, derivative = scored
                x, f, grad = trial, here.fidelity_sq, gradient(here, impl, derivative)
                step *= 1.5
            else:
                step *= 0.5
        trace.append({"start": float(i), "initial": math.sqrt(f0), "final": math.sqrt(f),
                      "iterations": float(iterations)})
        if f > best_fsq:
            best_fsq, best_x = f, x

    # One strong evaluation of the winner: the search estimates are
    # upper bounds on the true worst-case fidelity (a finite inner
    # search can miss the minimizing input), so the reported number
    # comes from the heavier FINAL_SEARCH.
    final, *_ = evaluate(best_x, FINAL_SEARCH)
    details: dict[str, float] = {"search_estimate_fsq": best_fsq}
    if is_boson:
        details["sigma_l3_at_best"] = sigma
        details["sigma_ceiling_at_best"] = sigma_ceiling_fsq(sigma)
    return OptimizationRun(
        scenario=scenario.label,
        ceiling_fsq=scenario.ceiling_fsq,
        best_fidelity=final.fidelity,
        best_fidelity_sq=final.fidelity_sq,
        best_fidelity_sq_lower=final.fidelity_sq_lower,
        gap=scenario.ceiling_fsq - final.fidelity_sq,
        min_gap_evaluated=float(min_gap),
        coefficients=tuple(float(c) for c in best_x),
        evaluations=evaluations,
        details=details,
        trace=tuple(trace),
    )


def way_positive_control(observable: Operator, law: ConservationLaw) -> IndirectMeasurementModel:
    """Precise, non-disturbing measurement of an observable commuting
    with the conserved object charge.

    This is the contrapositive's witness: the trade-off bounds force
    noise only when [A, L1] != 0, and this construction shows the
    commuting case really does admit a perfect scheme under an exactly
    conserving interaction.  For a nondegenerate qubit observable the
    model is a controlled swap: the object's two eigenspaces either
    leave the probe/ancilla pair alone or exchange it, with the probe
    prepared in the pointer eigenstate matching the upper object
    eigenvalue and the ancilla in the one matching the lower.  The swap
    branch commutes with any law whose probe and ancilla charges are
    the same operator, and the eigenspace projectors commute with L1 by
    hypothesis, so conservation is exact.  A scalar observable is the
    degenerate case, P_upper = I and P_lower = 0, so U = I.

    Requires qubit object/probe/ancilla factors with equal probe and
    ancilla charges, scalar observables included.
    """
    if observable.dim != law.spec.object_dim:
        raise ValueError(
            f"observable dim {observable.dim} does not match object factor "
            f"{law.spec.object_dim}"
        )
    if not observable.is_hermitian():
        raise ValueError("observable must be Hermitian")
    comm_norm = operator_norm(commutator(observable, law.object_part))
    if comm_norm > 1e-12:
        raise ValueError(
            f"observable does not commute with the object charge "
            f"(|[A, L1]| = {comm_norm:.3e}); no precise non-disturbing "
            f"scheme is promised in that regime"
        )

    spec = law.spec
    if spec.factor_dims != (2, 2, 2):
        raise ValueError(
            f"the swap construction needs qubit object/probe/ancilla "
            f"factors, got {spec.factor_dims}"
        )
    charge_gap = float(
        np.max(np.abs(law.probe_part.entries - law.ancilla_part.entries))
    )
    if charge_gap > 1e-12:
        raise ValueError(
            "the swap construction needs equal probe and ancilla "
            f"charges (the swap branch conserves only then); parts differ "
            f"by {charge_gap:.3e}"
        )

    vals, vecs = np.linalg.eigh(observable.entries)
    lower, upper = vecs[:, 0], vecs[:, 1]
    p_upper = np.outer(upper, upper.conj())
    p_lower = np.outer(lower, lower.conj())
    if vals[-1] - vals[0] <= 1e-12:  # scalar: the swap branch is empty, U = I
        p_upper, p_lower = np.eye(2), np.zeros((2, 2))
    swap = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]  # exchanges the probe and ancilla qubits
    u = np.kron(p_upper, np.eye(4)) + np.kron(p_lower, swap)
    return IndirectMeasurementModel(
        spec=spec,
        probe_state=StateVector(upper),
        ancilla_state=StateVector(lower),
        interaction=Operator(u, unitary=True),
        pointer=Operator(observable.entries, hermitian=True),
        observable=observable,
    )
