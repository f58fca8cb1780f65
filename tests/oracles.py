"""Reference computations the tests compare the library against.

Each oracle here takes the long way round on purpose: dense
generators instead of the blockwise exponential, Kronecker-lifted noise
operators instead of their images under U, an explicit ancilla
trace instead of Kraus forms, an exhaustive angle lattice instead of
the sphere descent, a cloud of object states instead of the Gram
eigenvalue, the digest's bytes assembled whole from its formula, one
sampled case and one bound pass at a time instead of a stacked chunk.  None
of them calls the code it checks, so an agreement between the two is
evidence rather than a tautology.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Literal

import numpy as np

from waylab.cnot import GateImplementation, SearchConfig, cnot_unitary, implementation_to_json
from waylab.conservation import CommutantBasis, ConservationError, ConservationLaw
from waylab.measurement import IndirectMeasurementModel
from waylab.operators import (
    DEGENERACY_TOL,
    FLAG_TOL,
    HilbertSpec,
    Operator,
    StateVector,
    expectation,
    operator_norm,
)
from waylab.serialize import (
    law_to_json,
    model_to_json,
    operator_to_json,
    spec_to_json,
    state_to_json,
)


_DOCUMENTS = {
    Operator: operator_to_json,
    StateVector: state_to_json,
    HilbertSpec: spec_to_json,
    ConservationLaw: law_to_json,
    IndirectMeasurementModel: model_to_json,
    GateImplementation: implementation_to_json,
}


def pair_form(doc: Any) -> Any:
    """``doc`` with every packed array (a dict of exactly ``dtype``,
    ``shape`` and ``base64``) written out entry by entry as nested
    ``[re, im]`` pairs: the wire format's legacy form, which its writers
    emitted before they packed."""
    if not isinstance(doc, dict):
        return doc
    if set(doc) != {"dtype", "shape", "base64"}:
        return {key: pair_form(value) for key, value in doc.items()}

    def pairs(values: Any) -> list:
        if isinstance(values, list):
            return [pairs(v) for v in values]
        return [values.real, values.imag]

    raw = base64.b64decode(doc["base64"])
    return pairs(np.frombuffer(raw, dtype="<c16").reshape(doc["shape"]).tolist())


# One malformed field each, as (part, key, value) of an implementation's
# wire form: values that a decoder converting with int() or float() reads
# as the valid (2, 2), 4, 1 and 1+0j of an ancilla-free implementation.
WIRE_SPOILERS = {
    "factor-dims-fraction": ("spec", "factor_dims", [2.9, 2]),
    "factor-dims-string": ("spec", "factor_dims", [2, "2"]),
    "roles-string": ("spec", "roles", {"object": "0", "probe": 1, "ancilla": []}),
    "roles-bool": ("spec", "roles", {"object": 0, "probe": True, "ancilla": []}),
    "unitary-dim-fraction": ("unitary", "dim", 4.5),
    "unitary-dim-string": ("unitary", "dim", "4"),
    "ancilla-dim-bool": ("ancilla_state", "dim", True),
    "ancilla-dim-float": ("ancilla_state", "dim", 1.0),
    "amplitudes-bool": ("ancilla_state", "amplitudes", [[True, False]]),
}


def spoiled_implementation(*spoilers: str) -> dict[str, Any]:
    """The pair form of the ancilla-free CNOT implementation with the
    named ``WIRE_SPOILERS`` applied."""
    doc = pair_form(implementation_to_json(GateImplementation(HilbertSpec((2, 2)), cnot_unitary())))
    for name in spoilers:
        part, key, value = WIRE_SPOILERS[name]
        doc[part][key] = value
    return doc


def digest_of_documents(**parts: Any) -> str:
    """The digest's former formula (report schema 1), the reference the
    current one is checked against: each part replaced by its
    wire-format document in the pair form, the documents keyed by name
    in one JSON text with sorted keys and no whitespace, and the first
    16 hex digits of that text's sha256."""
    doc = pair_form(
        {name: _DOCUMENTS.get(type(value), lambda v: v)(value) for name, value in parts.items()}
    )
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_FIELDS = {
    ConservationLaw: ("spec", "object_part", "probe_part", "ancilla_part"),
    IndirectMeasurementModel: (
        "spec", "probe_state", "ancilla_state", "interaction", "pointer", "observable",
    ),
    GateImplementation: ("spec", "unitary", "ancilla_state"),
}


def digest_of_bits(**parts: Any) -> str:
    """The digest's defining formula, written out: one JSON header with
    sorted keys and no whitespace, naming each part's kind-tagged node,
    then every operator's and state's array as little-endian complex128
    bytes in the header's sorted depth-first order; the first 16 hex
    digits of the sha256 of the two."""
    blobs: list[bytes] = []

    def node(value: Any) -> dict[str, Any]:
        if type(value) in (Operator, StateVector):
            arr = value.entries if type(value) is Operator else value.amplitudes
            blobs.append(arr.astype("<c16").tobytes())
            kind = "operator" if type(value) is Operator else "state"
            return {"kind": kind, "shape": list(arr.shape), "dtype": "<c16"}
        if type(value) is HilbertSpec:
            return {"kind": "spec", "spec": spec_to_json(value)}
        if type(value) in _FIELDS:
            fields = sorted(_FIELDS[type(value)])
            return {"kind": "object", "fields": {f: node(getattr(value, f)) for f in fields}}
        return {"kind": "json", "value": value}

    header = {name: node(parts[name]) for name in sorted(parts)}
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8") + b"".join(blobs)).hexdigest()[:16]


def two_draw_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A dim x dim matrix of complex standard normals drawn as two
    matrices, the real parts first: the sampler's one-draw ``_gaussian``
    written as two draws."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def two_draw_state(rng: np.random.Generator, dim: int) -> StateVector:
    """A normalized complex Gaussian state drawn as two vectors, the real
    parts first: the one-draw ``random_state`` written as two draws."""
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(raw / np.linalg.norm(raw))


def gue_hermitian(rng: np.random.Generator, dim: int) -> Operator:
    """GUE-style random Hermitian (G + G^dag) / 2, G a matrix of complex
    standard normals with its real parts drawn first."""
    g = two_draw_gaussian(rng, dim)
    return Operator((g + g.conj().T) * 0.5, hermitian=True)


def _hermiticity_defect(op: Operator) -> float:
    """max|M - M^dag|, for the norm-scaled hermiticity checks below."""
    return float(np.max(np.abs(op.entries - op.entries.conj().T)))


def expm_skew(h: Operator, t: float = 1.0) -> Operator:
    """Unitary exp(-i t h) for Hermitian h, via one dense eigendecomposition."""
    if _hermiticity_defect(h) > FLAG_TOL * max(1.0, operator_norm(h)):
        raise ValueError("expm_skew expects a Hermitian generator")
    vals, vecs = np.linalg.eigh(h.entries)
    return Operator((vecs * np.exp(-1j * float(t) * vals)) @ vecs.conj().T, unitary=True)


def eig_hermitian(op: Operator, degeneracy_tol: float = DEGENERACY_TOL) -> tuple[np.ndarray, list[Operator]]:
    """Spectral decomposition with eigenvalues within ``degeneracy_tol``
    merged into one level (value: the cluster mean; projector: the whole
    eigenspace).  Values ascend; the projectors sum to the identity."""
    if _hermiticity_defect(op) > max(FLAG_TOL, FLAG_TOL * operator_norm(op)):
        raise ValueError("eig_hermitian expects a Hermitian operator")
    vals, vecs = np.linalg.eigh(op.entries)
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[clusters[-1][-1]] <= degeneracy_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    out_vals = np.array([float(np.mean(vals[c])) for c in clusters])
    out_projs = [Operator(vecs[:, c] @ vecs[:, c].conj().T, hermitian=True) for c in clusters]
    return out_vals, out_projs


@dataclass(frozen=True)
class OutcomeDistribution:
    """Discrete outcome distribution of a sharp observable: strictly
    ascending outcomes, nonnegative probabilities summing to one within
    1e-10 (validated at construction)."""

    outcomes: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.outcomes) != len(self.probabilities):
            raise ValueError("outcomes and probabilities must have equal length")
        if any(b <= a for a, b in zip(self.outcomes, self.outcomes[1:])):
            raise ValueError("outcomes must be strictly ascending")
        if min(self.probabilities, default=0.0) < -1e-10:
            raise ValueError("negative probability")
        if abs(sum(self.probabilities) - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {sum(self.probabilities)!r}, not 1")

    def moment(self, k: int = 1) -> float:
        return float(sum(p * x**k for x, p in zip(self.outcomes, self.probabilities)))


def outcome_distribution(
    model: IndirectMeasurementModel,
    psi: StateVector,
    observable: Literal["measured", "pointer"],
    *,
    evolved: bool,
) -> OutcomeDistribution:
    """Born distribution of a Heisenberg-picture observable in the
    model's product input, degenerate levels merged into one outcome.

    ``"measured"`` is the object observable, ``"pointer"`` the probe
    pointer, each lifted with dense Kronecker products; ``evolved``
    conjugates the lift by the interaction, U^dag (op x I) U."""
    s = model.spec
    if observable == "measured":
        lifted = np.kron(model.observable.entries, np.eye(s.probe_dim * s.ancilla_dim))
    else:
        lifted = np.kron(np.kron(np.eye(s.object_dim), model.pointer.entries), np.eye(s.ancilla_dim))
    if evolved:
        u = model.interaction.entries
        lifted = u.conj().T @ lifted @ u
    state = model.initial_state(psi)
    vals, projs = eig_hermitian(Operator(lifted))
    probs = [min(max(float(np.real(expectation(p, state))), 0.0), 1.0) for p in projs]
    return OutcomeDistribution(tuple(float(v) for v in vals), tuple(probs))


def object_state_cloud(dim: int, rng: np.random.Generator, count: int = 20_000) -> np.ndarray:
    """Object states to take a worst case over, as rows.

    For a qubit, a dense Bloch-sphere lattice: 361 polar angles by 720
    azimuths, the poles included, so every pure state lies within about
    0.005 rad of a row.  For larger dimensions, ``count`` Haar-random
    states (normalized complex Gaussian vectors)."""
    if dim == 2:
        theta, phi = np.meshgrid(
            np.linspace(0.0, np.pi, 361), np.arange(720) * (2.0 * np.pi / 720), indexing="ij"
        )
        return np.stack(
            [np.cos(theta / 2) + 0j, np.sin(theta / 2) * np.exp(1j * phi)], axis=-1
        ).reshape(-1, 2)
    raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def noise_operators(model: IndirectMeasurementModel) -> tuple[np.ndarray, np.ndarray]:
    """The error and disturbance operators E = U^dag P U - A and
    D = U^dag A U - A as dense matrices, from their definition: P and A
    lifted with Kronecker products, then conjugated by the whole U."""
    s = model.spec
    u = model.interaction.entries
    measured = np.kron(model.observable.entries, np.eye(s.probe_dim * s.ancilla_dim))
    pointer = np.kron(np.kron(np.eye(s.object_dim), model.pointer.entries), np.eye(s.ancilla_dim))
    return u.conj().T @ pointer @ u - measured, u.conj().T @ measured @ u - measured


def worst_noise_over_states(
    model: IndirectMeasurementModel, kind: Literal["error", "disturbance"], psis: np.ndarray
) -> float:
    """Largest rms error or disturbance over the object states ``psis``.

    The noise operator is :func:`noise_operators`' dense form, and each
    input psi x probe x ancilla is formed whole."""
    noise = noise_operators(model)[0 if kind == "error" else 1]
    ready = np.kron(model.probe_state.amplitudes, model.ancilla_state.amplitudes)
    worst = 0.0
    step = 50_000
    for start in range(0, len(psis), step):
        chunk = psis[start : start + step]
        inputs = (chunk[:, :, None] * ready[None, None, :]).reshape(len(chunk), -1)
        images = inputs @ noise.T
        worst = max(worst, float(np.max(np.sum(np.abs(images) ** 2, axis=1))))
    return math.sqrt(worst)


def generators(basis: CommutantBasis) -> tuple[Operator, ...]:
    """The commutant basis as dense Hermitian matrices, in coefficient
    order: per block (ascending charge), the d diagonal units
    v_i v_i^dag, then the symmetric pairs (v_i v_j^dag + v_j v_i^dag)/sqrt(2)
    and then the antisymmetric pairs i (v_i v_j^dag - v_j v_i^dag)/sqrt(2),
    each run over i < j with i slowest."""
    gens: list[Operator] = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    start = 0
    for d in basis.block_dims:
        cols = basis.eigenbasis[:, start : start + d]
        start += d
        for i in range(d):
            gens.append(Operator(np.outer(cols[:, i], cols[:, i].conj()), hermitian=True))
        for i in range(d):
            for j in range(i + 1, d):
                outer = np.outer(cols[:, i], cols[:, j].conj())
                gens.append(Operator((outer + outer.conj().T) * inv_sqrt2, hermitian=True))
        for i in range(d):
            for j in range(i + 1, d):
                outer = np.outer(cols[:, i], cols[:, j].conj())
                gens.append(Operator(1j * (outer - outer.conj().T) * inv_sqrt2, hermitian=True))
    return tuple(gens)


def _per_block_runs(basis: CommutantBasis):
    """Each block's eigenbasis columns, its i < j index pairs and its
    diagonal, symmetric and antisymmetric coefficient runs, block by block."""
    start = pos = 0
    for d in basis.block_dims:
        iu, ju = np.triu_indices(d, 1)
        n = iu.size
        yield (
            basis.eigenbasis[:, start : start + d], iu, ju,
            slice(pos, pos + d), slice(pos + d, pos + d + n), slice(pos + d + n, pos + d * d),
        )
        start += d
        pos += d * d


def conserving_unitary_per_block(basis: CommutantBasis, coefficients: np.ndarray) -> np.ndarray:
    """exp(-i sum_k c_k B_k) one block at a time, in block order: each
    block's Hermitian matrix filled from its own coefficient runs, its own
    eigendecomposition, and its V_b e^{-iH_b} V_b^dag added in.  This is
    the loop the library ran before it grouped blocks by size; the grouped
    form must equal it bit for bit."""
    coeffs = np.asarray(coefficients, dtype=float).reshape(-1)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    u = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for cols, iu, ju, diag, sym, anti in _per_block_runs(basis):
        h = np.diag(coeffs[diag]).astype(np.complex128)
        upper = (coeffs[sym] + 1j * coeffs[anti]) * inv_sqrt2
        h[iu, ju] = upper
        h[ju, iu] = np.conj(upper)
        w, v = np.linalg.eigh(h)
        ub = (v * np.exp(-1j * w)) @ v.conj().T
        u += cols @ ub @ cols.conj().T
    return u


def reference_conserving_model(
    seed: int, spec: HilbertSpec
) -> tuple[IndirectMeasurementModel, ConservationLaw, dict[str, Any]]:
    """The sampled model of ``seed`` on ``spec`` written out plainly, one
    case and one matrix at a time, as the library drew it before it
    stacked its cases: each charge from its own ``qr``, the lifts as
    ``np.kron`` products, the total's own ``eigh`` cut into blocks where
    its spectrum steps, U block by block
    (:func:`conserving_unitary_per_block`), and then the states, the
    pointer and the observable, all from the seed's one stream in that
    order.  Returns the model, the law and the intermediate arrays
    (``lifts``, ``total``, ``eigenbasis``, ``block_dims``)."""
    rng = np.random.default_rng(seed)
    d_obj, d_probe, d_anc = spec.object_dim, spec.probe_dim, spec.ancilla_dim
    parts = []
    for d in (d_obj, d_probe, d_anc):
        spectrum = rng.integers(-2, 3, size=d).astype(float)
        q, r = np.linalg.qr(two_draw_gaussian(rng, d))
        diag = r.diagonal()
        q = q * (diag / np.abs(diag))
        parts.append((q * spectrum) @ q.conj().T)
    lifts = (
        np.kron(parts[0], np.eye(d_probe * d_anc)),
        np.kron(np.kron(np.eye(d_obj), parts[1]), np.eye(d_anc)),
        np.kron(np.eye(d_obj * d_probe), parts[2]),
    )
    total = lifts[0] + lifts[1] + lifts[2]
    vals, vecs = np.linalg.eigh(total)
    block_dims, start = [], 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > DEGENERACY_TOL:
            block_dims.append(k - start)
            start = k
    basis = CommutantBasis(eigenbasis=vecs, block_dims=tuple(block_dims))
    u = conserving_unitary_per_block(basis, rng.standard_normal(sum(d * d for d in block_dims)))

    def hermitian(dim: int) -> Operator:
        raw = two_draw_gaussian(rng, dim)
        return Operator((raw + raw.conj().T) * 0.5)

    probe = two_draw_state(rng, d_probe)
    ancilla = two_draw_state(rng, d_anc) if spec.has_ancilla else None
    pointer = hermitian(d_probe)
    observable = hermitian(d_obj)
    law = ConservationLaw(spec, *(Operator(part) for part in parts))
    model = IndirectMeasurementModel(spec, probe, ancilla, Operator(u), pointer, observable)
    steps = {"lifts": lifts, "total": total, "eigenbasis": vecs, "block_dims": basis.block_dims}
    return model, law, steps


# A model must conserve its law's total charge this well (the bounds' gate).
_CONSERVING_TOL = 1e-9


def _reference_lifts(law: ConservationLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law's three parts lifted to the total space with ``np.kron``."""
    s = law.spec
    return (
        np.kron(law.object_part.entries, np.eye(s.probe_dim * s.ancilla_dim)),
        np.kron(np.kron(np.eye(s.object_dim), law.probe_part.entries), np.eye(s.ancilla_dim)),
        np.kron(np.eye(s.object_dim * s.probe_dim), law.ancilla_part.entries),
    )


def _reference_pass_start(
    model: IndirectMeasurementModel, law: ConservationLaw
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The gate both passes start with, then U and the lifts, and the
    evolved charges U^dag L U as one product: raise ``ValueError`` for a
    law on other factors, ``ConservationError`` when [U, L] has a spectral
    norm above the tolerance."""
    if model.spec.factor_dims != law.spec.factor_dims:
        raise ValueError(f"model factors {model.spec.factor_dims} differ from law factors {law.spec.factor_dims}")
    u = model.interaction.entries
    lifts = _reference_lifts(law)
    total = lifts[0] + lifts[1] + lifts[2]
    comm = u @ total - total @ u
    if np.linalg.norm(comm) > _CONSERVING_TOL:
        residual = float(np.linalg.norm(comm, 2))
        if residual > _CONSERVING_TOL:
            raise ConservationError(residual, _CONSERVING_TOL)
    evolved = u.conj().T @ np.stack(lifts) @ u
    if not np.isfinite(evolved).all() or np.abs(evolved - evolved.conj().swapaxes(1, 2)).max() > FLAG_TOL:
        raise ValueError("evolved charges are not finite Hermitian matrices")
    return u, lifts, evolved


def _reference_images(model: IndirectMeasurementModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E x = U^dag P U x - A x and D x = U^dag A U x - A x for the columns
    of ``x``, P and A applied on their own factor of U x and x."""
    s, u, a = model.spec, model.interaction.entries, model.observable.entries
    ux = u @ x
    ax = (a @ x.reshape(s.object_dim, -1)).reshape(x.shape)
    a_ux = (a @ ux.reshape(s.object_dim, -1)).reshape(x.shape)
    p_ux = (model.pointer.entries @ ux.reshape(s.object_dim, s.probe_dim, -1)).reshape(x.shape)
    return u.conj().T @ p_ux - ax, u.conj().T @ a_ux - ax


def _record(relation: str, kind: str, lhs: float, rhs: float, tag: str, details: dict[str, float]) -> dict[str, Any]:
    """A report's JSON record: its slack is |lhs - rhs| for an identity
    and rhs - lhs for an inequality, and its details are sorted."""
    slack = abs(lhs - rhs) if kind == "identity" else rhs - lhs
    record = {"relation": relation, "kind": kind, "lhs": lhs, "rhs": rhs, "slack": slack, "digest": tag}
    if details:
        record["details"] = dict(sorted(details.items()))
    return record


def reference_trade_off_reports(
    model: IndirectMeasurementModel, law: ConservationLaw, psi: StateVector
) -> list[dict[str, Any]]:
    """The four trade-off records of one case (``qway-1``, ``qway-2``,
    ``summed``, ``fundamental``) as JSON records, written out one case
    and one matrix at a time as the library computed them before it
    stacked its cases: the input psi x probe x ancilla from ``np.kron``,
    eps and eta the norms of E x and D x, each evolved charge's deviation
    from its own product with x, |<[A, L1]>| from psi, the norms of L1
    and L2 from their own SVDs, and the digest from its bits formula."""
    u, lifts, evolved = _reference_pass_start(model, law)
    x = np.kron(np.kron(psi.amplitudes, model.probe_state.amplitudes), model.ancilla_state.amplitudes)
    err, dist = _reference_images(model, x[:, None])
    q = {"eps": math.sqrt(np.vdot(err, err).real), "eta": math.sqrt(np.vdot(dist, dist).real)}
    for name, charge in zip(("sigma_l1", "sigma_l2", "sigma_l3"), evolved):
        vec = charge @ x
        mean = float(np.real(np.vdot(x, vec)))
        q[name] = math.sqrt(max(float(np.real(np.vdot(vec, vec))) - mean * mean, 0.0))
    a, l1 = model.observable.entries, law.object_part.entries
    comm = abs(complex(np.vdot(psi.amplitudes, (a @ l1 - l1 @ a) @ psi.amplitudes)))
    q["commutator_abs"] = comm
    eps, eta, s1, s2, s3 = q["eps"], q["eta"], q["sigma_l1"], q["sigma_l2"], q["sigma_l3"]

    def ratio(num: float, den: float) -> float:
        if den == 0.0:
            return 0.0 if num <= 1e-18 else float("inf")
        return num / den

    norms = [float(np.linalg.norm(part.entries, 2)) for part in (law.object_part, law.probe_part)]
    fund = ratio(comm**2, 2.0 * (2.0 * max(norms) + s3) ** 2)
    fund_sigma = ratio(comm**2, 2.0 * (2.0 * max(s1, s2) + s3) ** 2)
    tag = digest_of_bits(model=model, law=law, psi=psi)
    return [
        _record("qway-1", "inequality", 0.5 * comm, eps * s1 + eta * s2 + eta * s3, tag, q),
        _record("qway-2", "inequality", 0.5 * comm, eps * s1 + eta * s2 + eps * s3, tag, q),
        _record("summed", "inequality", comm, (eps + eta) * (2.0 * max(s1, s2) + s3), tag, q),
        _record("fundamental", "inequality", fund, eps**2 + eta**2, tag, {**q, "lhs_sigma_variant": fund_sigma}),
    ]


def reference_identity_reports(model: IndirectMeasurementModel, law: ConservationLaw) -> list[dict[str, Any]]:
    """The two identity records of one case as JSON records, written out
    one matrix at a time: [A, L1] with A lifted by ``np.kron``, E and D
    as the images of the identity matrix, each identity's right side from
    the evolved charges, and the spectral norm of each residual."""
    s = model.spec
    u, lifts, (l1t, l2t, l3t) = _reference_pass_start(model, law)
    measured = np.kron(model.observable.entries, np.eye(s.probe_dim * s.ancilla_dim))
    lhs = measured @ lifts[0] - lifts[0] @ measured
    err, dist = _reference_images(model, np.eye(s.total_dim))

    def comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x @ y - y @ x

    shared = comm(l1t, err) + comm(l2t, dist)
    tag = digest_of_bits(model=model, law=law)
    return [
        _record("identity-1", "identity", float(np.linalg.norm(lhs - (shared + comm(l3t, dist)), 2)), 0.0, tag, {}),
        _record("identity-2", "identity", float(np.linalg.norm(lhs - (shared + comm(l3t, err)), 2)), 0.0, tag, {}),
    ]


def reference_csv(records: list[dict[str, Any]]) -> str:
    """The CSV of JSON records: a header row, then each record's fields
    with floats as their repr and details as sorted compact JSON."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["relation", "kind", "lhs", "rhs", "slack", "digest", "details"])
    for r in records:
        details = json.dumps(r["details"], sort_keys=True, separators=(",", ":")) if "details" in r else ""
        writer.writerow([r["relation"], r["kind"], repr(r["lhs"]), repr(r["rhs"]), repr(r["slack"]), r["digest"], details])
    return buf.getvalue()


def unitary_gradient(
    basis: CommutantBasis, coefficients: np.ndarray, bra: np.ndarray, ket: np.ndarray
) -> np.ndarray:
    """Re <bra| dU/dc_k |ket> for every k, from block stacks filled and
    decomposed afresh: the derivative as the library computed it before
    it read the eigensystems that built U.  With h = V diag(w) V^dag, the
    derivative along a block B is V (Gamma o V^dag B V) V^dag
    (Daleckii-Krein), Gamma_ij = -i exp(-i (w_i + w_j)/2) sinc((w_i - w_j)/2),
    so <bra|dU|ket> = tr(B T) with Y the blocks of |ket><bra| in the
    eigenbasis and T = V (Gamma o V^dag Y V) V^dag."""
    lay = basis._layout
    e_dag = basis.eigenbasis.conj().T
    y = np.outer(e_dag @ ket, (e_dag @ bra).conj()).reshape(-1)[lay.frame]
    out = []
    for (d, k, at), h in zip(lay.groups, basis._block_stacks(coefficients)):
        w, v = np.linalg.eigh(h)
        v_dag = v.conj().swapaxes(1, 2)
        w_i, w_j = w[:, :, None], w[:, None, :]
        gamma = -1j * np.exp(-0.5j * (w_i + w_j)) * np.sinc((w_i - w_j) / (2.0 * np.pi))
        t = v @ (gamma * (v_dag @ y[at : at + k * d * d].reshape(k, d, d) @ v)) @ v_dag
        out.append(t.reshape(-1))
    return basis._pairings(np.concatenate(out))


def project_coefficients_per_block(basis: CommutantBasis, h: Operator) -> tuple[np.ndarray, float]:
    """Coefficients of the block-diagonal part of ``h`` in the eigenbasis
    and the Frobenius norm of the rest, read block by block."""
    coeffs = np.empty(basis.generator_count)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    rotated = basis.eigenbasis.conj().T @ h.entries @ basis.eigenbasis
    off_block = rotated.copy()
    start = 0
    for cols, iu, ju, diag, sym, anti in _per_block_runs(basis):
        d = cols.shape[1]
        hb = rotated[start : start + d, start : start + d]
        off_block[start : start + d, start : start + d] = 0.0
        coeffs[diag] = np.real(np.diag(hb))
        coeffs[sym] = np.real(hb[iu, ju] + hb[ju, iu]) * inv_sqrt2
        coeffs[anti] = np.real(1j * (hb[ju, iu] - hb[iu, ju])) * inv_sqrt2
        start += d
    return coeffs, float(np.linalg.norm(off_block))


def channel_apply(impl: GateImplementation, rho: Operator) -> Operator:
    """The induced two-qubit channel: couple in the ancilla state, apply
    the unitary, trace the ancilla back out."""
    if rho.dim != 4:
        raise ValueError(f"channel acts on two qubits, got operator dim {rho.dim}")
    xi = impl.ancilla_state.amplitudes
    u = impl.unitary.entries
    evolved = u @ np.kron(rho.entries, np.outer(xi, xi.conj())) @ u.conj().T
    d_anc = impl.spec.ancilla_dim
    return Operator(np.trace(evolved.reshape(4, d_anc, 4, d_anc), axis1=1, axis2=3))


def angle_states(t1, t2, t3, p1, p2, p3) -> np.ndarray:
    """Six hyperspherical angles (arrays) -> unit 4-amplitude rows.

    Three polar angles set the magnitudes, three azimuthal angles the
    relative phases (the first amplitude is real), so a lattice over the
    angles covers the sphere."""
    s1 = np.sin(t1)
    s12 = s1 * np.sin(t2)
    return np.stack(
        [
            np.cos(t1) + 0j,
            s1 * np.cos(t2) * np.exp(1j * np.asarray(p1)),
            s12 * np.cos(t3) * np.exp(1j * np.asarray(p2)),
            s12 * np.sin(t3) * np.exp(1j * np.asarray(p3)),
        ],
        axis=-1,
    )


def kraus_forms(impl: GateImplementation) -> np.ndarray:
    """The forms A_a = C^dag K_a, shape (d_anc, 4, 4), with the Kraus
    operators K_a = (I x <a|) U (I x |xi>) read off the unitary one
    ancilla level at a time."""
    d_anc = impl.spec.ancilla_dim
    u = impl.unitary.entries.reshape(4, d_anc, 4, d_anc)
    xi = impl.ancilla_state.amplitudes
    return np.stack([cnot_unitary().entries.conj().T @ (u[:, a] @ xi) for a in range(d_anc)])


def kraus_fidelity_sq(impl: GateImplementation):
    """psis (n, 4) -> F^2 = sum_a |<psi|A_a|psi>|^2 over :func:`kraus_forms`."""
    forms = kraus_forms(impl)
    d_anc = len(forms)
    stacked = forms.reshape(-1, 4).T

    def fsq(psis: np.ndarray) -> np.ndarray:
        images = (psis @ stacked).reshape(len(psis), d_anc, 4)
        z = np.einsum("ni,nai->na", psis.conj(), images)
        return np.sum(np.abs(z) ** 2, axis=1)

    return fsq


def kraus_lower_fsq(impl: GateImplementation, psi: StateVector) -> float:
    """A value no input's F^2 falls below, from the direction of z at ``psi``.

    With z_a = <psi|A_a|psi> over :func:`kraus_forms` and c = z/|z|, the
    Hermitian part H of sum_a conj(c_a) A_a has <phi|H|phi> =
    Re <c, z(phi)> <= |z(phi)| = F(phi) for every unit phi (Cauchy-Schwarz),
    so min F^2 >= max(0, lambda_min(H))^2.  It is tight exactly when psi is
    a lowest eigenvector of H with eigenvalue F(psi)."""
    forms = kraus_forms(impl)
    amps = psi.amplitudes
    z = np.einsum("i,aij,j->a", amps.conj(), forms, amps)
    c = z / np.linalg.norm(z)
    b = np.einsum("a,aij->ij", c.conj(), forms)
    return max(0.0, float(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0])) ** 2


def reference_evaluator(impl: GateImplementation) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The descent's fixed matrices in their plain formulation: the forms
    A_a = C^dag K_a, the m x 64 rows M of the symmetrized real forms
    [[A, iA], [-iA, A]] (``np.block``), ||M||_F, and K = 4 M^T M laid out
    so that W K, read as 8 x 8, is J^T J."""
    d_anc = impl.spec.ancilla_dim
    xi = impl.ancilla_state.amplitudes
    kraus = (impl.unitary.entries.reshape(4, d_anc, 4, d_anc) @ xi).transpose(1, 0, 2)
    forms = cnot_unitary().entries.conj().T @ kraus
    m = np.block([[forms, 1j * forms], [-1j * forms, forms]])
    sym = 0.5 * (m + m.transpose(0, 2, 1))
    rows = np.concatenate([sym.real, sym.imag]).reshape(-1, 64)
    pairs = 4.0 * rows.T @ rows
    gram = pairs.reshape(8, 8, 8, 8).swapaxes(1, 2).reshape(64, 64)
    return forms, rows, float(np.linalg.norm(rows)), gram


def reference_points(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Packed rows [w, W, S, F^2] at unit real coordinates w, one array per
    piece, joined at the end: W = w x w, r = W M^T, S = r M, F^2 = sum r^2."""
    big_w = (w[:, :, None] * w[:, None, :]).reshape(w.shape[0], 64)
    res = big_w @ rows.T
    fsq = np.sum(res * res, axis=1, keepdims=True)
    return np.concatenate([w, big_w, res @ rows, fsq], axis=1)


def _reference_moves(gram: np.ndarray, points: np.ndarray, damping: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row's damped Newton move and right-hand side, with the matrix
    built term by term; a row whose system is exactly singular stays put."""
    n = len(points)
    w, value = points[:, :8], points[:, 136, None]
    s = (points[:, 72:136].reshape(n, 8, 8) @ w[:, :, None])[:, :, 0]
    fw = value * w
    u = 6.0 * s - 4.0 * fw
    uw = u[:, :, None] * w[:, None, :]
    matrix = (points[:, None, 8:72] @ gram)[:, 0]
    matrix += 2.0 * points[:, 72:136]
    matrix = matrix.reshape(n, 8, 8)
    matrix -= uw
    matrix -= np.swapaxes(uw, 1, 2)
    matrix.reshape(n, 64)[:, ::9] += damping[:, None] - 2.0 * value
    rhs = 2.0 * (s - fw)
    try:
        return np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0], rhs
    except np.linalg.LinAlgError:
        pass
    moves = np.zeros_like(rhs)
    for i in range(n):
        try:
            moves[i] = np.linalg.solve(matrix[i], rhs[i])
        except np.linalg.LinAlgError:
            pass
    return moves, rhs


def _reference_lower(rows: np.ndarray, rows_norm: float, points: np.ndarray) -> np.ndarray:
    """lambda_min(S) / F, less the stated rounding allowance, squared, per row."""
    m, f = len(rows), np.sqrt(points[:, 136])
    delta = np.finfo(float).eps * f * ((m + 32) * rows_norm + m * f)
    lam = np.linalg.eigvalsh(points[:, 72:136].reshape(-1, 8, 8))[:, 0]
    return (np.maximum(lam - delta, 0.0) / np.maximum(f, np.finfo(float).tiny)) ** 2


def reference_descent(
    impl: GateImplementation, cfg: SearchConfig, starts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float, list[dict[str, float]], int]:
    """The batched damped Riemannian Newton descent of ``gate_fidelity``,
    written out plainly: packed rows from :func:`reference_points`, row
    norms from ``np.linalg.norm``, accepted rows copied by boolean index,
    the gain as ``np.max(..., where=better)`` and the trace one
    ``math.sqrt`` per start.  The starts are the 16 seed states and
    ``cfg.restarts`` normalised complex Gaussian rows of
    ``default_rng(cfg.seed)``, or the unit rows ``starts``, as
    ``cnot._sphere_descent`` takes them in the optimizer's warm pass.  Returns the
    final states, their F^2, the largest certified lower value, the trace
    and the number of states evaluated."""
    _, rows, rows_norm, gram = reference_evaluator(impl)
    if starts is None:
        eye, half = np.eye(4), 1.0 / math.sqrt(2.0)
        pairs = [eye[i] + ph * eye[j] for i, j in itertools.combinations(range(4), 2) for ph in (1, 1j)]
        psi = np.concatenate([eye, half * np.array(pairs)])
        labels = [f"seed-{i}" for i in range(len(psi))]
        if cfg.restarts > 0:
            g = np.random.default_rng(cfg.seed).standard_normal((cfg.restarts, 8))
            extra = g[:, :4] + 1j * g[:, 4:]
            psi = np.concatenate([psi, extra / np.linalg.norm(extra, axis=1, keepdims=True)])
            labels += [f"random-{i}" for i in range(cfg.restarts)]
    else:
        labels, psi = [f"given-{i}" for i in range(len(starts))], starts
    w = np.concatenate([psi.real, psi.imag], axis=1)
    evaluations = len(w)
    points = reference_points(rows, w)
    value = points[:, 136]
    initial = value.copy()
    step, checked = np.full(len(labels), 0.25), np.zeros(len(labels), dtype=bool)
    iterations = quiet = 0
    while iterations < cfg.max_iter and quiet < 2:
        moves, rhs = _reference_moves(gram, points, 0.5 / step)
        k = int(value.argmin())
        if not checked[k]:
            g = 0.5 * math.sqrt(float(rhs[k] @ rhs[k]))
            if g * g <= (2.0 * math.sqrt(value[k]) * rows_norm + g) * cfg.tol:
                checked[k] = True
                lower = float(_reference_lower(rows, rows_norm, points[k : k + 1])[0])
                if 0.0 < lower and value[k] - lower <= cfg.tol:
                    break
        iterations += 1
        trial = points[:, :8] - moves
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        evaluations += len(trial)
        trial_points = reference_points(rows, trial)
        better = trial_points[:, 136] < value
        gain = float(np.max(value - trial_points[:, 136], where=better, initial=0.0))
        points[better] = trial_points[better]
        step *= np.where(better, 1.5, 0.5)
        np.minimum(step, 1e6, out=step)
        np.maximum(step, 1e-12, out=step)
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
    lower = float(np.max(_reference_lower(rows, rows_norm, points)))
    return points[:, :4] + 1j * points[:, 4:8], value, lower, trace, evaluations


def grid_search_fidelity(
    impl: GateImplementation,
    coarse_step: float = np.pi / 8,
    zoom_rounds: int = 6,
    top_k: int = 32,
    chunk: int = 200_000,
) -> tuple[float, StateVector]:
    """Worst-case fidelity by dense grid enumeration plus local zoom.

    Sweep the full six-angle lattice at ``coarse_step``, keep the
    ``top_k`` lowest cells, then repeatedly halve the step around each
    survivor on a 5^6 stencil.  With six rounds the resolution around
    every candidate minimum is finer than pi/256.
    """
    fsq_of = kraus_fidelity_sq(impl)
    theta_vals = np.arange(0.0, np.pi + 1e-12, coarse_step)
    phi_vals = np.arange(0.0, 2 * np.pi - 1e-12, coarse_step)
    shape = (len(theta_vals),) * 3 + (len(phi_vals),) * 3
    total = int(np.prod(shape))

    cand_f: list[float] = []
    cand_x: list[np.ndarray] = []
    for start in range(0, total, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        angles = [theta_vals[i] for i in idx[:3]] + [phi_vals[i] for i in idx[3:]]
        fsq = fsq_of(angle_states(*angles))
        take = min(top_k, fsq.size)
        sel = np.argpartition(fsq, take - 1)[:take]
        cand_f.extend(fsq[sel])
        cand_x.extend(np.stack([a[sel] for a in angles], axis=1))
    seeds = [cand_x[i] for i in np.argsort(cand_f)[:top_k]]

    offsets = np.array(np.meshgrid(*([np.arange(-2, 3)] * 6), indexing="ij")).reshape(6, -1).T
    best_f = math.inf
    best_x = seeds[0]
    for x in seeds:
        step = coarse_step
        for _ in range(zoom_rounds):
            step *= 0.5
            pts = x[None, :] + offsets * step
            fsq = fsq_of(angle_states(*pts.T))
            j = int(np.argmin(fsq))
            x = pts[j]
            if fsq[j] < best_f:
                best_f = float(fsq[j])
                best_x = x
    return math.sqrt(max(best_f, 0.0)), StateVector.from_amplitudes(angle_states(*best_x))
