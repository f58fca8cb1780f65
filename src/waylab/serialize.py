"""JSON wire format for operators, states, models, and laws.

Complex numbers are stored as ``[re, im]`` pairs.  Python's shortest
round-trip float representation makes the encoding bit-exact: loading a
dumped object reproduces the original arrays entry for entry.  Reports
and configs reference heavyweight inputs through short content digests
(sha256 over the canonical JSON encoding) rather than inlining them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .conservation import ConservationLaw
from .measurement import IndirectMeasurementModel
from .operators import HilbertSpec, Operator, StateVector

__all__ = [
    "operator_to_json",
    "operator_from_json",
    "state_to_json",
    "state_from_json",
    "spec_to_json",
    "spec_from_json",
    "law_to_json",
    "law_from_json",
    "model_to_json",
    "model_from_json",
    "canonical_json",
    "digest",
]


def _pairs(values: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, one numpy call for the array."""
    return np.stack([values.real, values.imag], -1).tolist()


def operator_to_json(op: Operator) -> dict[str, Any]:
    return {"dim": op.dim, "entries": _pairs(op.entries)}


def operator_from_json(data: dict[str, Any]) -> Operator:
    dim = int(data["dim"])
    rows = data["entries"]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError(f"entries do not form a {dim}x{dim} matrix")
    mat = np.array(
        [[complex(c[0], c[1]) for c in row] for row in rows], dtype=np.complex128
    )
    return Operator(mat)


def state_to_json(psi: StateVector) -> dict[str, Any]:
    return {"dim": psi.dim, "amplitudes": _pairs(psi.amplitudes)}


def state_from_json(data: dict[str, Any]) -> StateVector:
    dim = int(data["dim"])
    amps = data["amplitudes"]
    if len(amps) != dim:
        raise ValueError(f"amplitude count {len(amps)} does not match dim {dim}")
    return StateVector(np.array([complex(c[0], c[1]) for c in amps], dtype=np.complex128))


def spec_to_json(spec: HilbertSpec) -> dict[str, Any]:
    return {
        "factor_dims": list(spec.factor_dims),
        "roles": {
            "object": 0,
            "probe": 1,
            "ancilla": list(range(2, len(spec.factor_dims))),
        },
    }


def spec_from_json(data: dict[str, Any]) -> HilbertSpec:
    dims = tuple(int(d) for d in data["factor_dims"])
    roles = data.get("roles")
    if roles is not None:
        expected = {"object": 0, "probe": 1, "ancilla": list(range(2, len(dims)))}
        got = {
            "object": int(roles.get("object", -1)),
            "probe": int(roles.get("probe", -1)),
            "ancilla": [int(k) for k in roles.get("ancilla", [])],
        }
        if got != expected:
            raise ValueError(
                f"unsupported factor roles {got}; this build expects object=0, "
                f"probe=1, ancilla=remaining"
            )
    return HilbertSpec(dims)


def law_to_json(law: ConservationLaw) -> dict[str, Any]:
    return {
        "spec": spec_to_json(law.spec),
        "object_part": operator_to_json(law.object_part),
        "probe_part": operator_to_json(law.probe_part),
        "ancilla_part": operator_to_json(law.ancilla_part),
    }


def law_from_json(data: dict[str, Any]) -> ConservationLaw:
    return ConservationLaw(
        spec=spec_from_json(data["spec"]),
        object_part=operator_from_json(data["object_part"]),
        probe_part=operator_from_json(data["probe_part"]),
        ancilla_part=operator_from_json(data["ancilla_part"]),
    )


def model_to_json(model: IndirectMeasurementModel) -> dict[str, Any]:
    return {
        "spec": spec_to_json(model.spec),
        "probe_state": state_to_json(model.probe_state),
        "ancilla_state": state_to_json(model.ancilla_state),
        "interaction": operator_to_json(model.interaction),
        "pointer": operator_to_json(model.pointer),
        "observable": operator_to_json(model.observable),
    }


def model_from_json(data: dict[str, Any]) -> IndirectMeasurementModel:
    return IndirectMeasurementModel(
        spec=spec_from_json(data["spec"]),
        probe_state=state_from_json(data["probe_state"]),
        ancilla_state=state_from_json(data["ancilla_state"]),
        interaction=operator_from_json(data["interaction"]),
        pointer=operator_from_json(data["pointer"]),
        observable=operator_from_json(data["observable"]),
    )


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_ENCODERS = {
    Operator: operator_to_json,
    StateVector: state_to_json,
    HilbertSpec: spec_to_json,
    ConservationLaw: law_to_json,
    IndirectMeasurementModel: model_to_json,
}


def digest(**parts: Any) -> str:
    """Short content digest of the named inputs.

    Each part is encoded with its type's JSON encoder (or used directly
    if it is already JSON-compatible), the parts are assembled into one
    canonical document keyed by name, and the first 16 hex digits of its
    sha256 identify the input set in reports.
    """
    doc: dict[str, Any] = {}
    for name, value in sorted(parts.items()):
        enc = _ENCODERS.get(type(value))
        doc[name] = enc(value) if enc else value
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:16]
