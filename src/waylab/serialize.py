"""JSON wire format for operators, states, models, and laws.

Complex numbers are stored as ``[re, im]`` pairs.  Python's shortest
round-trip float representation makes the encoding bit-exact: loading a
dumped object reproduces the original arrays entry for entry.  Reports
and configs reference heavyweight inputs through short content digests
(sha256 over the canonical JSON encoding) rather than inlining them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import weakref
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
    """Nested lists of ``[re, im]`` pairs: the complex128 array viewed as
    float64 pairs, converted in one call."""
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    return flat.reshape(values.shape + (2,)).tolist()


def operator_to_json(op: Operator) -> dict[str, Any]:
    return {"dim": op.dim, "entries": _pairs(op.entries)}


def _complexes(pairs: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Nested ``[re, im]`` pairs of the given shape, one numpy call.

    The pairs land in a float64 array of shape ``shape + (2,)``, viewed
    as complex128: bit-exact, like the encoder.  Ragged nesting, pairs
    of the wrong length and non-numeric entries (strings included, which
    a float conversion would parse) raise ``ValueError``.
    """
    try:
        arr = np.array(pairs)
    except ValueError:
        arr = None
    if arr is None or arr.shape != shape + (2,) or arr.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be {'x'.join(map(str, shape))} numeric [re, im] pairs")
    return arr.astype(np.float64, copy=False).view(np.complex128)[..., 0]


def operator_from_json(data: dict[str, Any]) -> Operator:
    dim = int(data["dim"])
    return Operator(_complexes(data["entries"], (dim, dim), "entries"))


def state_to_json(psi: StateVector) -> dict[str, Any]:
    return {"dim": psi.dim, "amplitudes": _pairs(psi.amplitudes)}


def state_from_json(data: dict[str, Any]) -> StateVector:
    dim = int(data["dim"])
    return StateVector(_complexes(data["amplitudes"], (dim,), "amplitudes"))


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


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return _CANONICAL_ENCODER.encode(payload)


# Canonical text of each operator and state digested so far, utf-8
# encoded.  Their entries are read-only, so the text cannot go stale,
# and it is dropped with the object.
_CANONICAL: "weakref.WeakKeyDictionary[Operator | StateVector, bytes]" = (
    weakref.WeakKeyDictionary()
)

_LEAF_ENCODERS = {Operator: operator_to_json, StateVector: state_to_json}


def _composite_members(value: Any) -> dict[str, Any] | None:
    """The fields of a law, a model or a gate implementation by name, or
    ``None`` for anything else.  Such a value is a dataclass whose fields
    are all specs, operators and states, and its document is its fields
    by name, as ``law_to_json``, ``model_to_json`` and
    ``implementation_to_json`` write it."""
    if not dataclasses.is_dataclass(value) or isinstance(value, type):
        return None
    members = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if all(isinstance(v, (HilbertSpec, Operator, StateVector)) for v in members.values()):
        return members
    return None


def _canonical_bytes(value: Any) -> bytes:
    """``canonical_json`` of the value's document, utf-8 encoded, with
    operators and states encoded once per object and composites spliced
    from their parts."""
    enc = _LEAF_ENCODERS.get(type(value))
    if enc is not None:
        text = _CANONICAL.get(value)
        if text is None:
            text = _CANONICAL[value] = canonical_json(enc(value)).encode("utf-8")
        return text
    if isinstance(value, HilbertSpec):
        return canonical_json(spec_to_json(value)).encode("utf-8")
    members = _composite_members(value)
    if members is not None:
        return _object_bytes(members)
    return canonical_json(value).encode("utf-8")


def _object_bytes(members: dict[str, Any]) -> bytes:
    """A JSON object with sorted keys, its members' text spliced in."""
    return b"{" + b",".join(
        _CANONICAL_ENCODER.encode(name).encode("utf-8") + b":" + _canonical_bytes(value)
        for name, value in sorted(members.items())
    ) + b"}"


def digest(**parts: Any) -> str:
    """Short content digest of the named inputs.

    The parts form one canonical document keyed by name, and the first
    16 hex digits of its sha256 identify the input set in reports.  A
    spec, operator or state stands for its JSON encoding, a law, model
    or gate implementation for the object of its fields' encodings, and
    any other value for itself (it must be JSON-compatible).  The bytes
    hashed are ``canonical_json`` of that document, but each operator
    and state is encoded only the first time it is digested.
    """
    return hashlib.sha256(_object_bytes(parts)).hexdigest()[:16]
