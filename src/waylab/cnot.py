"""CNOT implementations, gate fidelity, and the noise-fidelity link.

An implementation is a unitary on control x target x ancilla together
with a fixed ancilla state; tracing the ancilla out turns it into a
channel on the two qubits.  Its gate fidelity is the worst-case state
fidelity against the ideal CNOT over all pure two-qubit inputs, found
here by multi-start simplex descent over a six-angle parameterization
of the input state.  When the implementation must conserve a spin
component, the same object also defines an indirect measurement of the
control qubit, which is what ties the gate error to the measurement
trade-off bounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np
from scipy import optimize
from scipy.stats import qmc

from .bounds import BoundReport, require_conserving
from .conservation import ConservationLaw
from .measurement import IndirectMeasurementModel, rms_disturbance, rms_error
from .operators import HilbertSpec, Operator, StateVector, commutator, evolve, expectation, std_dev
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
    "channel_apply",
    "state_fidelity",
    "gate_fidelity",
    "grid_search_fidelity",
    "measurement_view",
    "noise_fidelity_link",
    "sigma_l3",
    "sigma_ceiling_fsq",
    "candidate_control_states",
    "angles_to_state",
    "state_to_angles",
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
        if self.unitary.dim != s.total_dim:
            raise ValueError(f"unitary dim {self.unitary.dim}, expected {s.total_dim}")
        if not self.unitary.is_unitary():
            raise ValueError("implementation matrix must be unitary (within 1e-10)")
        anc = self.ancilla_state
        if anc is None:
            anc = StateVector(np.ones(1)) if not s.has_ancilla else None
            if anc is None:
                raise ValueError("spec has an ancilla group but no ancilla state given")
            object.__setattr__(self, "ancilla_state", anc)
        if self.ancilla_state.dim != s.ancilla_dim:
            raise ValueError(
                f"ancilla state dim {self.ancilla_state.dim}, expected {s.ancilla_dim}"
            )


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


def channel_apply(impl: GateImplementation, rho: Operator) -> Operator:
    """The induced two-qubit channel: couple in the ancilla state, apply
    the unitary, trace the ancilla back out."""
    if rho.dim != 4:
        raise ValueError(f"channel acts on two qubits, got operator dim {rho.dim}")
    xi = impl.ancilla_state.amplitudes
    joint = np.kron(rho.entries, np.outer(xi, xi.conj()))
    u = impl.unitary.entries
    evolved = u @ joint @ u.conj().T
    d_anc = impl.spec.ancilla_dim
    tensor_form = evolved.reshape(4, d_anc, 4, d_anc)
    return Operator(np.trace(tensor_form, axis1=1, axis2=3))


class _FidelityEvaluator:
    """Precomputed contraction for fast state-fidelity evaluation.

    With the ancilla input fixed, the map psi -> U (psi x xi) is a
    (4*d_anc) x 4 matrix B computed once; each fidelity evaluation then
    costs one small matrix-vector product instead of a full channel
    application.
    """

    def __init__(self, impl: GateImplementation):
        d_anc = impl.spec.ancilla_dim
        u = impl.unitary.entries
        xi = impl.ancilla_state.amplitudes
        self.b = (u.reshape(4 * d_anc, 4, d_anc) @ xi)
        self.target = cnot_unitary().entries
        self.d_anc = d_anc
        self.evaluations = 0

    def fidelity_sq(self, psi4: np.ndarray) -> float:
        self.evaluations += 1
        v = (self.b @ psi4).reshape(4, self.d_anc)
        out = self.target @ psi4
        amp = out.conj() @ v
        fsq = float(np.real(np.vdot(amp, amp)))
        return min(max(fsq, 0.0), 1.0)

    def fidelity_sq_batch(self, psis: np.ndarray) -> np.ndarray:
        """Vectorized fidelity^2 for a stack of states, shape (n, 4)."""
        self.evaluations += psis.shape[0]
        v = (psis @ self.b.T).reshape(-1, 4, self.d_anc)
        outs = psis @ self.target.T
        amp = np.einsum("ns,nsa->na", outs.conj(), v)
        fsq = np.sum(np.abs(amp) ** 2, axis=1)
        return np.clip(fsq.real, 0.0, 1.0)


def state_fidelity(impl: GateImplementation, psi: StateVector) -> float:
    """Fidelity between the channel output for ``psi`` and the ideal
    CNOT output, sqrt(<psi'| channel(|psi><psi|) |psi'>)."""
    if psi.dim != 4:
        raise ValueError(f"input must be a two-qubit state, got dim {psi.dim}")
    ev = _FidelityEvaluator(impl)
    return math.sqrt(ev.fidelity_sq(psi.amplitudes))


def angles_to_state(x: Sequence[float]) -> np.ndarray:
    """Six hyperspherical angles -> normalized 4-amplitude vector.

    Three polar angles set the magnitudes, three azimuthal angles the
    relative phases (the first amplitude is real).  Any real input maps
    to a valid state, so optimizers can roam without bounds.
    """
    t1, t2, t3, p1, p2, p3 = (float(v) for v in x)
    s1 = math.sin(t1)
    s2 = math.sin(t2)
    return np.array(
        [
            math.cos(t1),
            s1 * math.cos(t2) * np.exp(1j * p1),
            s1 * s2 * math.cos(t3) * np.exp(1j * p2),
            s1 * s2 * math.sin(t3) * np.exp(1j * p3),
        ],
        dtype=np.complex128,
    )


def _angles_to_states_batch(
    t1: np.ndarray, t2: np.ndarray, t3: np.ndarray,
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray,
) -> np.ndarray:
    s1 = np.sin(t1)
    s12 = s1 * np.sin(t2)
    return np.stack(
        [
            np.cos(t1).astype(np.complex128),
            s1 * np.cos(t2) * np.exp(1j * p1),
            s12 * np.cos(t3) * np.exp(1j * p2),
            s12 * np.sin(t3) * np.exp(1j * p3),
        ],
        axis=1,
    )


def state_to_angles(psi: StateVector | np.ndarray) -> np.ndarray:
    """Inverse of :func:`angles_to_state` up to global phase."""
    amps = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi)
    if amps.size != 4:
        raise ValueError("expected a two-qubit state")
    k = int(np.argmax(np.abs(amps)))
    phase = amps[k] / abs(amps[k])
    v = amps * np.conj(phase)
    if abs(v[0]) > 1e-14:
        v = v * (np.conj(v[0]) / abs(v[0]))
    t1 = math.atan2(float(np.linalg.norm(v[1:])), float(np.real(v[0])))
    t2 = math.atan2(float(np.linalg.norm(v[2:])), float(abs(v[1])))
    t3 = math.atan2(float(abs(v[3])), float(abs(v[2])))
    p1, p2, p3 = (float(np.angle(v[i])) if abs(v[i]) > 1e-14 else 0.0 for i in (1, 2, 3))
    return np.array([t1, t2, t3, p1, p2, p3])


def _seed_states() -> list[np.ndarray]:
    """Deterministic starting states: the computational basis and all
    equal-weight pairwise superpositions with phases 1 and i."""
    states = [np.eye(4, dtype=np.complex128)[i] for i in range(4)]
    inv = 1.0 / math.sqrt(2.0)
    for i in range(4):
        for j in range(i + 1, 4):
            for ph in (1.0, 1.0j):
                amps = np.zeros(4, dtype=np.complex128)
                amps[i] = inv
                amps[j] = ph * inv
                states.append(amps)
    return states


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the worst-case fidelity search.

    ``restarts`` low-discrepancy starting points are drawn from a
    scrambled Sobol sequence (deterministic per ``seed``); the fixed
    seed states are added on top unless ``include_seed_states`` is off.
    """

    restarts: int = 64
    max_iter: int = 400
    tol: float = 1e-10
    seed: int = 0
    include_seed_states: bool = True


@dataclass(frozen=True)
class FidelityResult:
    """Outcome of a worst-case fidelity search."""

    fidelity: float
    fidelity_sq: float
    error_probability: float
    worst_state: StateVector
    evaluations: int
    trace: tuple[dict[str, float], ...] = field(default=(), repr=False)


def gate_fidelity(impl: GateImplementation, config: SearchConfig | None = None) -> FidelityResult:
    """Worst-case state fidelity of an implementation against CNOT.

    Runs Nelder-Mead descent from every Sobol start and every seed
    state, keeping the best point seen across *all* objective
    evaluations (so the result is never above any probed state's
    fidelity).  The returned value estimates the minimum from above:
    an insufficient budget can only make it optimistic, never produce
    a spurious bound violation.
    """
    cfg = config or SearchConfig()
    if cfg.restarts < 0:
        raise ValueError("restarts must be nonnegative")
    if cfg.restarts == 0 and not cfg.include_seed_states:
        raise ValueError("search has no starting points: restarts is 0 and seed states are off")
    ev = _FidelityEvaluator(impl)

    best = {"f": np.inf, "x": None}

    def objective(x: np.ndarray) -> float:
        f = math.sqrt(ev.fidelity_sq(angles_to_state(x)))
        if f < best["f"]:
            best["f"] = f
            best["x"] = np.array(x, copy=True)
        return f

    starts: list[tuple[str, np.ndarray]] = []
    if cfg.include_seed_states:
        starts += [(f"seed-{i}", state_to_angles(s)) for i, s in enumerate(_seed_states())]
    if cfg.restarts > 0:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sampler = qmc.Sobol(d=6, scramble=True, seed=cfg.seed)
            raw = sampler.random(cfg.restarts)
        lo = np.zeros(6)
        hi = np.array([np.pi, np.pi, np.pi, 2 * np.pi, 2 * np.pi, 2 * np.pi])
        scaled = qmc.scale(raw, lo, hi)
        starts += [(f"sobol-{i}", scaled[i]) for i in range(cfg.restarts)]

    trace: list[dict[str, float]] = []
    for label, x0 in starts:
        f0 = objective(np.asarray(x0, dtype=float))
        res = optimize.minimize(
            objective,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options={"maxiter": cfg.max_iter, "fatol": cfg.tol, "xatol": 1e-7},
        )
        trace.append(
            {"start": label, "initial": float(f0), "final": float(res.fun), "iterations": float(res.nit)}
        )

    worst = StateVector.from_amplitudes(angles_to_state(best["x"]))
    f = float(best["f"])
    fsq = min(max(f * f, 0.0), 1.0)
    return FidelityResult(
        fidelity=f,
        fidelity_sq=fsq,
        error_probability=1.0 - fsq,
        worst_state=worst,
        evaluations=ev.evaluations,
        trace=tuple(trace),
    )


def grid_search_fidelity(
    impl: GateImplementation,
    coarse_step: float = np.pi / 8,
    zoom_rounds: int = 6,
    top_k: int = 32,
    chunk: int = 200_000,
) -> tuple[float, StateVector]:
    """Worst-case fidelity by dense grid enumeration plus local zoom.

    Independent check on :func:`gate_fidelity`: sweep the full six-angle
    lattice at ``coarse_step``, keep the ``top_k`` lowest cells, then
    repeatedly halve the step around each survivor.  With the default
    six rounds the effective resolution around every candidate minimum
    is finer than pi/256.  Exhaustive enumeration is vectorized and
    shares only the state-fidelity contraction with the optimizer, not
    its search logic.
    """
    ev = _FidelityEvaluator(impl)
    theta_vals = np.arange(0.0, np.pi + 1e-12, coarse_step)
    phi_vals = np.arange(0.0, 2 * np.pi - 1e-12, coarse_step)
    shape = (len(theta_vals),) * 3 + (len(phi_vals),) * 3
    total = int(np.prod(shape))

    cand_f: list[float] = []
    cand_x: list[np.ndarray] = []
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        idx = np.unravel_index(flat, shape)
        t1, t2, t3 = theta_vals[idx[0]], theta_vals[idx[1]], theta_vals[idx[2]]
        p1, p2, p3 = phi_vals[idx[3]], phi_vals[idx[4]], phi_vals[idx[5]]
        fsq = ev.fidelity_sq_batch(_angles_to_states_batch(t1, t2, t3, p1, p2, p3))
        take = min(top_k, fsq.size)
        sel = np.argpartition(fsq, take - 1)[:take]
        for s in sel:
            cand_f.append(float(fsq[s]))
            cand_x.append(np.array([t1[s], t2[s], t3[s], p1[s], p2[s], p3[s]]))
    order = np.argsort(cand_f)[:top_k]
    seeds = [cand_x[i] for i in order]

    offsets = np.array(np.meshgrid(*([np.arange(-2, 3)] * 6), indexing="ij")).reshape(6, -1).T
    best_f = math.inf
    best_x = seeds[0]
    for x0 in seeds:
        x = np.array(x0, dtype=float)
        step = coarse_step
        for _ in range(zoom_rounds):
            step *= 0.5
            pts = x[None, :] + offsets * step
            fsq = ev.fidelity_sq_batch(
                _angles_to_states_batch(*(pts[:, i] for i in range(6)))
            )
            j = int(np.argmin(fsq))
            x = pts[j]
            if fsq[j] < best_f:
                best_f = float(fsq[j])
                best_x = np.array(x, copy=True)
    return math.sqrt(max(best_f, 0.0)), StateVector.from_amplitudes(angles_to_state(best_x))


def measurement_view(impl: GateImplementation) -> IndirectMeasurementModel:
    """Reinterpret a CNOT implementation as an indirect measurement.

    A perfect CNOT copies the control's computational basis onto the
    target, so running the implementation with the target prepared in
    |0> and reading its Z afterwards is a measurement of the control's
    Z; the gate's noise figures are exactly this model's error and
    disturbance.
    """
    return IndirectMeasurementModel(
        spec=impl.spec,
        probe_state=StateVector.basis(2, 0),
        ancilla_state=impl.ancilla_state,
        interaction=impl.unitary,
        pointer=pauli("Z"),
        observable=pauli("Z"),
    )


def candidate_control_states() -> dict[str, StateVector]:
    """The two natural control states for the noise-fidelity chain.

    ``"iplus"`` = (|0> + i|1>)/sqrt(2) maximizes |<[Z, X]>| (value 2);
    ``"plus"`` = (|0> + |1>)/sqrt(2) sits in the commutator's kernel
    (value 0).  Both are evaluated wherever the chain is reported.
    """
    inv = 1.0 / math.sqrt(2.0)
    return {
        "plus": StateVector(np.array([inv, inv])),
        "iplus": StateVector(np.array([inv, 1.0j * inv])),
    }


def sigma_l3(impl: GateImplementation, law: ConservationLaw, control: StateVector) -> float:
    """sigma(L3'): deviation of the evolved ancilla charge U^dag L3 U in
    the measurement-view input (control, target |0>, ancilla state)."""
    l3_evolved = evolve(impl.spec.embed(law.ancilla_part, "ancilla"), impl.unitary)
    return std_dev(l3_evolved, measurement_view(impl).initial_state(control))


def sigma_ceiling_fsq(sigma: float) -> float:
    """The F^2 ceiling 1 - 1/(4*(2 + sigma)^2) at sigma(L3') = sigma; see
    :func:`noise_fidelity_link`."""
    return 1.0 - 1.0 / (4.0 * (2.0 + sigma) ** 2)


def noise_fidelity_link(
    impl: GateImplementation,
    law: ConservationLaw,
    *,
    psi: StateVector | None = None,
    fidelity: FidelityResult | None = None,
) -> tuple[BoundReport, BoundReport]:
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
    input state.

    The control state defaults to (|0> + i|1>)/sqrt(2), which maximizes
    |<[Z, X]>|; the equal-weight real superposition (|0> + |1>)/sqrt(2)
    makes the commutator expectation vanish, so it is evaluated and
    recorded in the details rather than used for the headline numbers.

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
    candidates = candidate_control_states()
    chosen = psi if psi is not None else candidates["iplus"]
    comm_zx = commutator(pauli("Z"), pauli("X"))

    def ingredients(state: StateVector) -> dict[str, float]:
        return {
            "eps": rms_error(view, state),
            "eta": rms_disturbance(view, state),
            "sigma_l3": sigma_l3(impl, law, state),
            "commutator_abs": abs(expectation(comm_zx, state)),
        }

    main = ingredients(chosen)
    details: dict[str, float] = dict(main)
    for name, cand in candidates.items():
        if psi is not None or name != "iplus":
            details.update((f"{name}_{key}", val) for key, val in ingredients(cand).items())

    sq_lhs = main["commutator_abs"] ** 2 / (2.0 * (2.0 + main["sigma_l3"]) ** 2)
    sq_rhs = main["eps"] ** 2 + main["eta"] ** 2

    result = fidelity if fidelity is not None else gate_fidelity(impl)
    link_lhs = sq_rhs
    link_rhs = 8.0 * (1.0 - result.fidelity_sq)
    details["fidelity"] = result.fidelity
    details["fidelity_sq"] = result.fidelity_sq
    details["ceiling_fsq"] = sigma_ceiling_fsq(main["sigma_l3"])

    tag = digest(implementation=implementation_to_json(impl), law=law, psi=chosen)
    return (
        BoundReport("squared-noise", "inequality", sq_lhs, sq_rhs, sq_rhs - sq_lhs, tag, details),
        BoundReport("fidelity-link", "inequality", link_lhs, link_rhs, link_rhs - link_lhs, tag, details),
    )
