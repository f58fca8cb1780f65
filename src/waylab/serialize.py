"""JSON wire format for operators, states, models, and laws.

A complex array is read in either of two forms: packed,
``{"dtype": "<c16", "shape": [...], "base64": "..."}`` with the array's
little-endian complex128 bytes, or nested ``[re, im]`` pairs.  Both are
bit-exact, the pairs through Python's shortest round-trip float repr.
``operator_to_json`` writes the packed form, so the large matrices of
laws, models and implementations decode without a text parse of every
float; ``state_to_json`` writes pairs, so a report's state stays
readable.  Reports and configs reference heavyweight inputs through
short content digests rather than inlining them: sha256 over a small
canonical JSON header (each part's kind, shape, dtype and spec) followed
by the arrays' raw little-endian bytes, so digesting an operator never
renders its floats as text.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import math
from typing import Any, Hashable, Mapping, Sequence

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
    "digests",
]

# The largest entry magnitude of a document's operator: a product of six such matrices on
# a MAX_TOTAL_DIM (2^12) space, as [L(dt), E] is, and its squared entries' sum stay below 2^912.
MAX_ENTRY = 2.0**64


def _pairs(values: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs: the complex128 array viewed as
    float64 pairs, converted in one call."""
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    return flat.reshape(values.shape + (2,)).tolist()


def _packed(values: np.ndarray) -> dict[str, Any]:
    """The packed form: the array's ``<c16`` bytes in base64."""
    arr = np.ascontiguousarray(values, dtype="<c16")
    return {"dtype": "<c16", "shape": list(arr.shape), "base64": base64.b64encode(arr).decode("ascii")}


def operator_to_json(op: Operator) -> dict[str, Any]:
    return {"dim": op.dim, "entries": _packed(op.entries)}


def _unpacked(data: dict[str, Any], shape: tuple[int, ...], what: str) -> np.ndarray:
    """The array a packed form carries, refused unless its dtype is
    ``<c16``, its shape the expected one, and its base64 text valid and
    exactly ``16 * prod(shape)`` bytes long."""
    for key in ("dtype", "shape", "base64"):
        if key not in data:
            raise ValueError(f"packed {what} lacks {key!r}")
    if data["dtype"] != "<c16":
        raise ValueError(f"{what} dtype must be '<c16', got {data['dtype']!r}")
    got = data["shape"]
    if not (isinstance(got, list) and all(type(n) is int for n in got) and got == list(shape)):
        raise ValueError(f"{what} shape must be {list(shape)}, got {got!r}")
    if not isinstance(data["base64"], str):
        raise ValueError(f"{what} base64 must be a string")
    try:
        raw = base64.b64decode(data["base64"], validate=True)
    except ValueError as exc:
        raise ValueError(f"{what} base64 is not valid: {exc}") from None
    if len(raw) != 16 * math.prod(shape):
        raise ValueError(f"{what} base64 holds {len(raw)} bytes, not {16 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<c16").reshape(shape)


def _complexes(data: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A complex array of the given shape, from either wire form: the
    packed form ``operator_to_json`` writes, or the ``[re, im]`` pairs of
    ``state_to_json`` and of older configs.

    A dict is the packed form (see :func:`_unpacked`); pairs land in a
    float64 array of shape ``shape + (2,)``, viewed as complex128, in one
    numpy call.  Ragged nesting, pairs of the wrong length, non-numeric
    entries (booleans, and strings, which a float conversion would parse)
    and every malformed packed field raise ``ValueError``; finiteness is left
    to :class:`Operator` and :class:`StateVector`.
    """
    if isinstance(data, dict):
        return _unpacked(data, shape, what)
    try:
        arr = np.array(data)
    except ValueError:
        arr = None
    if arr is None or arr.shape != shape + (2,) or arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be {'x'.join(map(str, shape))} numeric [re, im] pairs")
    return arr.astype(np.float64, copy=False).view(np.complex128)[..., 0]


def _dim(data: dict[str, Any]) -> int:
    """The ``dim`` field, a JSON integer: a float, bool or string is refused."""
    dim = data["dim"]
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    return dim


def operator_from_json(data: dict[str, Any]) -> Operator:
    dim = _dim(data)
    entries = _complexes(data["entries"], (dim, dim), "entries")
    if not np.abs(entries).max(initial=0.0) <= MAX_ENTRY:  # NaN fails the comparison
        raise ValueError(f"operator entries must be finite and at most {MAX_ENTRY:.6g} in magnitude")
    return Operator(entries)


def state_to_json(psi: StateVector) -> dict[str, Any]:
    return {"dim": psi.dim, "amplitudes": _pairs(psi.amplitudes)}


def state_from_json(data: dict[str, Any]) -> StateVector:
    dim = _dim(data)
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
    spec = HilbertSpec(data["factor_dims"])
    roles = data.get("roles")
    # compared as JSON text, so 0.0 or true in place of an index is refused too
    if roles is not None and canonical_json(roles) != canonical_json(spec_to_json(spec)["roles"]):
        raise ValueError(
            f"unsupported factor roles {roles!r}; this build expects object=0, "
            f"probe=1, ancilla=remaining"
        )
    return spec


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


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


@dataclasses.dataclass(frozen=True)
class _Json:
    """A JSON value in a header key, compared by its canonical text."""

    text: str
    value: Any = dataclasses.field(compare=False)


def _key(value: Any, arrays: list[np.ndarray]) -> Hashable:
    """Everything ``value``'s header node is made of, hashable: equal keys
    make equal nodes (see :func:`_node`).  Its operators' and states'
    arrays are appended to ``arrays`` in the header's sorted depth-first
    order."""
    if isinstance(value, Operator):
        arrays.append(value.entries)
        return ("operator", value.entries.shape)
    if isinstance(value, StateVector):
        arrays.append(value.amplitudes)
        return ("state", value.amplitudes.shape)
    if isinstance(value, HilbertSpec):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return (cls, tuple(_key(getattr(value, name), arrays) for name in _field_names(cls)))
    return _Json(canonical_json(value), value)


def _node(key: Hashable) -> dict[str, Any]:
    """The kind-tagged header node of a :func:`_key`: an operator's or
    state's shape and dtype, a spec's ``spec_to_json``, an object's
    fields' nodes by name, any other value itself."""
    if isinstance(key, HilbertSpec):
        return {"kind": "spec", "spec": spec_to_json(key)}
    if isinstance(key, _Json):
        return {"kind": "json", "value": key.value}
    head, rest = key
    if isinstance(head, str):
        return {"kind": head, "shape": list(rest), "dtype": "<c16"}
    return {"kind": "object", "fields": dict(zip(_field_names(head), map(_node, rest)))}


def digest(**parts: Any) -> str:
    """Short content digest of the named inputs.

    The first 16 hex digits of the sha256 of a ``canonical_json`` header
    followed by the raw bytes of every operator's and state's array,
    little-endian complex128 (``<c16``) in the header's sorted
    depth-first order.  The header maps each part's name to a node
    tagged with its kind: an operator or state gives its shape and
    dtype, a spec its ``spec_to_json``, a law, model or gate
    implementation its fields' nodes by name, and any other value
    itself (it must be JSON-compatible).  The header fixes every
    array's length, and for non-NaN floats bits and shortest repr
    determine each other, signed zeros included.  This is
    :func:`digests` of one set of parts.
    """
    return digests([parts])[0]


def digests(cases: Sequence[Mapping[str, Any]]) -> list[str]:
    """``digest(**parts)`` of each ``parts`` mapping, in order.  Cases
    whose headers are equal (the same kinds, shapes, specs and other
    values under the same names, as on one layout) share one header,
    built, encoded and hashed once; each case then hashes only its
    arrays."""
    heads: dict[Hashable, Any] = {}
    out = []
    for parts in cases:
        arrays: list[np.ndarray] = []
        key = tuple((name, _key(parts[name], arrays)) for name in sorted(parts))
        head = heads.get(key)
        if head is None:
            header = {name: _node(node) for name, node in key}
            head = heads[key] = hashlib.sha256(canonical_json(header).encode("utf-8"))
        h = head.copy()
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype="<c16"))
        out.append(h.hexdigest()[:16])
    return out
