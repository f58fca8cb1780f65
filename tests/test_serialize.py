"""Wire-format tests: bit-exact round trips and stable digests."""

import base64
import json
import struct

import numpy as np
import pytest

import waylab.serialize
from waylab import (
    GateImplementation, HilbertSpec, IndirectMeasurementModel, Operator, StateVector, cnot_unitary,
)
from waylab.cnot import implementation_from_json, implementation_to_json, pauli
from waylab.serialize import (
    canonical_json,
    digest,
    digests,
    law_from_json,
    law_to_json,
    model_from_json,
    model_to_json,
    operator_from_json,
    operator_to_json,
    spec_from_json,
    spec_to_json,
    state_from_json,
    state_to_json,
)
from waylab.conservation import ConservationLaw, commutant_basis
from waylab.sampling import random_conserving_implementation, random_conserving_model, random_state

from oracles import WIRE_SPOILERS, digest_of_bits, digest_of_documents, pair_form, spoiled_implementation


def _random_operator(seed: int, dim: int) -> Operator:
    rng = np.random.default_rng(seed)
    return Operator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def test_operator_roundtrip_bit_exact():
    op = _random_operator(0, 3)
    back = operator_from_json(operator_to_json(op))
    np.testing.assert_array_equal(back.entries, op.entries)


def test_operator_roundtrip_survives_json_text():
    op = _random_operator(1, 4)
    text = json.dumps(operator_to_json(op))
    back = operator_from_json(json.loads(text))
    np.testing.assert_array_equal(back.entries, op.entries)


def test_operator_from_json_validates_shape():
    data = pair_form(operator_to_json(_random_operator(2, 3)))
    data["entries"] = data["entries"][:2]
    with pytest.raises(ValueError):
        operator_from_json(data)


def test_operator_entries_are_capped_where_a_document_enters():
    cap = waylab.serialize.MAX_ENTRY
    for entries in ([[cap, 0], [0, -cap]], [[0, 1j * cap], [-1j * cap, 0]], np.zeros((0, 0))):
        op = operator_from_json(operator_to_json(Operator(entries)))
        assert op.entries.tobytes() == np.asarray(entries, dtype=complex).tobytes()
    for re, im in ((np.nextafter(cap, np.inf), 0.0), (-2 * cap, 0.0), (0.0, 4 * cap), (np.nan, 0.0), (0.0, -np.inf)):
        data = {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[re, im], [1.0, 0.0]]]}
        with pytest.raises(ValueError, match="operator entries must be finite and at most"):
            operator_from_json(data)


@pytest.mark.parametrize(
    "bad_pair",
    [[1.0], [1.0, 0.0, 7.0], ["1.0", 0.0], [None, 0.0], [[1.0, 0.0], 0.0], 1.0],
    ids=["one-number", "three-numbers", "string", "null", "nested", "bare-number"],
)
def test_malformed_pairs_are_value_errors(bad_pair):
    # one bad pair among good ones, and every pair bad, for operators and states
    data = pair_form(operator_to_json(_random_operator(4, 2)))
    data["entries"][1][0] = bad_pair
    with pytest.raises(ValueError):
        operator_from_json(data)
    with pytest.raises(ValueError):
        operator_from_json({"dim": 1, "entries": [[bad_pair]]})
    amps = {"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    amps["amplitudes"][1] = bad_pair
    with pytest.raises(ValueError):
        state_from_json(amps)
    with pytest.raises(ValueError):
        state_from_json({"dim": 1, "amplitudes": [bad_pair]})


def test_decode_validates_counts():
    with pytest.raises(ValueError):
        state_from_json({"dim": 3, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    data = pair_form(operator_to_json(_random_operator(5, 3)))
    data["entries"][2] = data["entries"][2][:2]
    with pytest.raises(ValueError):
        operator_from_json(data)


def test_decode_is_bit_exact_with_integers_and_signed_zeros():
    data = {"dim": 2, "entries": [[[1, -0.0], [-0.0, 0]], [[2, 3], [0.1, -1e-300]]]}
    entries = operator_from_json(data).entries
    expected = np.array([[complex(1, -0.0), complex(-0.0, 0)], [complex(2, 3), complex(0.1, -1e-300)]])
    np.testing.assert_array_equal(entries.view(np.float64), expected.view(np.float64))
    assert np.signbit(entries.view(np.float64)).tolist() == [
        [False, True, True, False], [False, False, False, True],
    ]


def test_complexes_encode_as_pairs():
    op = Operator(np.array([[1 + 2j]]))
    assert operator_from_json({"dim": 1, "entries": [[[1.0, 2.0]]]}).entries.tolist() == [[1 + 2j]]
    # the pair encoder equals the entry-by-entry loop, signed zeros
    # included, and the packed encoder the entry-by-entry bytes
    mixed = _random_operator(3, 4).entries * np.array([1.0, 0.0, -0.0, 1.0])
    pairs = [[[float(z.real), float(z.imag)] for z in row] for row in mixed]
    assert json.dumps(waylab.serialize._pairs(mixed)) == json.dumps(pairs)
    assert "-0.0" in json.dumps(pairs)
    assert operator_to_json(op)["entries"] == {
        "dtype": "<c16", "shape": [1, 1], "base64": base64.b64encode(struct.pack("<dd", 1.0, 2.0)).decode(),
    }
    packed = operator_to_json(Operator(mixed))["entries"]
    assert base64.b64decode(packed["base64"]) == b"".join(
        struct.pack("<dd", z.real, z.imag) for row in mixed for z in row
    )
    assert json.dumps(pair_form(packed)) == json.dumps(pairs)
    psi = StateVector(np.array([-0.0, -1j * 0.6, 0.8]))
    amplitudes = state_to_json(psi)["amplitudes"]
    assert json.dumps(amplitudes) == json.dumps([[z.real, z.imag] for z in psi.amplitudes])


def _packed_by_hand(values: np.ndarray) -> dict:
    """The packed form of ``values``, built from its entries' bytes."""
    raw = b"".join(struct.pack("<dd", z.real, z.imag) for z in values.reshape(-1).tolist())
    return {"dtype": "<c16", "shape": list(values.shape), "base64": base64.b64encode(raw).decode()}


def test_packed_roundtrip_is_bit_exact():
    # signed zeros, the smallest subnormal and a larger one, both signs
    entries = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.0, -1.0]).view(np.complex128)
    entries = entries.reshape(2, 2)
    data = json.loads(json.dumps(operator_to_json(Operator(entries))))
    assert data["entries"] == _packed_by_hand(entries)
    back = operator_from_json(data).entries
    assert back.view(np.uint64).tolist() == entries.view(np.uint64).tolist()
    amplitudes = np.array([0.6, -0.0, -0.0, 0.8, 5e-324, -1e-310, -5e-324, 0.0]).view(np.complex128)
    psi = state_from_json({"dim": 4, "amplitudes": _packed_by_hand(amplitudes)}).amplitudes
    assert psi.view(np.uint64).tolist() == amplitudes.view(np.uint64).tolist()


def _rebased(data: dict, change) -> dict:
    """``data`` with its base64 text replaced by that of ``change(bytes)``."""
    return {**data, "base64": base64.b64encode(change(base64.b64decode(data["base64"]))).decode()}


# each spoiler, and the field its error must name
_PACKED_SPOILERS = {
    "dtype-c8": (lambda d: {**d, "dtype": "<c8"}, "dtype"),
    "dtype-big-endian": (lambda d: {**d, "dtype": ">c16"}, "dtype"),
    "dtype-name": (lambda d: {**d, "dtype": "complex128"}, "dtype"),
    "shape-mismatch": (lambda d: {**d, "shape": [n + 1 for n in d["shape"]]}, "shape"),
    "shape-extra-axis": (lambda d: {**d, "shape": d["shape"] + [1]}, "shape"),
    "shape-strings": (lambda d: {**d, "shape": [str(n) for n in d["shape"]]}, "shape"),
    "no-dtype": (lambda d: {k: v for k, v in d.items() if k != "dtype"}, "dtype"),
    "no-shape": (lambda d: {k: v for k, v in d.items() if k != "shape"}, "shape"),
    "no-base64": (lambda d: {k: v for k, v in d.items() if k != "base64"}, "base64"),
    "base64-number": (lambda d: {**d, "base64": 7}, "base64"),
    "base64-list": (lambda d: {**d, "base64": [d["base64"]]}, "base64"),
    "base64-bad-character": (lambda d: {**d, "base64": "*" + d["base64"][1:]}, "base64"),
    "base64-non-ascii": (lambda d: {**d, "base64": "\u00e9" + d["base64"][1:]}, "base64"),
    "one-entry-short": (lambda d: _rebased(d, lambda raw: raw[16:]), "base64"),
    "one-entry-long": (lambda d: _rebased(d, lambda raw: raw + bytes(16)), "base64"),
}


@pytest.mark.parametrize("spoil,field", list(_PACKED_SPOILERS.values()), ids=list(_PACKED_SPOILERS))
def test_malformed_packed_arrays_are_value_errors(spoil, field):
    entries = operator_to_json(_random_operator(6, 3))["entries"]
    with pytest.raises(ValueError, match=f"entries.*{field}"):
        operator_from_json({"dim": 3, "entries": spoil(entries)})
    amplitudes = _packed_by_hand(np.array([0.6, 0.8j, 0.0]))
    with pytest.raises(ValueError, match=f"amplitudes.*{field}"):
        state_from_json({"dim": 3, "amplitudes": spoil(amplitudes)})


def test_state_roundtrip():
    psi = StateVector.from_amplitudes([1.0, 1j, -2.0])
    back = state_from_json(state_to_json(psi))
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)


def test_spec_roundtrip_and_role_validation():
    spec = HilbertSpec((2, 3, 2, 2))
    data = spec_to_json(spec)
    assert data["roles"]["object"] == 0
    assert data["roles"]["probe"] == 1
    assert spec_from_json(data).factor_dims == spec.factor_dims
    data["roles"] = {"object": 1, "probe": 0, "ancilla": [2, 3]}
    with pytest.raises(ValueError):
        spec_from_json(data)


@pytest.mark.parametrize("spoiler", list(WIRE_SPOILERS))
def test_wire_integers_are_checked_not_converted(spoiler):
    # the decoders converted each of these into a valid field
    assert implementation_from_json(spoiled_implementation()).spec.factor_dims == (2, 2)
    with pytest.raises(ValueError):
        implementation_from_json(spoiled_implementation(spoiler))


def test_law_roundtrip():
    x = pauli("X")
    law = ConservationLaw(HilbertSpec((2, 2, 2)), x, x, x)
    back = law_from_json(law_to_json(law))
    np.testing.assert_array_equal(back.lifts[3], law.lifts[3])


def test_model_roundtrip():
    spec = HilbertSpec((2, 2))
    model = IndirectMeasurementModel(
        spec=spec,
        probe_state=StateVector.basis(2, 0),
        ancilla_state=None,
        interaction=cnot_unitary(),
        pointer=pauli("Z"),
        observable=pauli("Z"),
    )
    back = model_from_json(model_to_json(model))
    np.testing.assert_array_equal(back.interaction.entries, model.interaction.entries)
    np.testing.assert_array_equal(back.probe_state.amplitudes, model.probe_state.amplitudes)
    # trivial ancilla survives the trip as the 1-dim state
    assert back.ancilla_state.dim == 1


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a


def test_digest_stability_and_sensitivity():
    op = pauli("X")
    psi = StateVector.basis(2, 0)
    d1 = digest(op=op, psi=psi, label="run")
    d2 = digest(psi=psi, label="run", op=op)  # kwargs order must not matter
    assert d1 == d2
    assert len(d1) == 16
    assert int(d1, 16) >= 0  # hex
    d3 = digest(op=pauli("Y"), psi=psi, label="run")
    assert d3 != d1
    d4 = digest(op=op, psi=psi, label="other")
    assert d4 != d1


def test_digest_known_value_is_frozen():
    # regression pin: if the header or the byte layout ever changes, this moves
    assert digest(answer=42) == digest(answer=42)
    frozen = digest(answer=42)
    assert frozen == "37ec1d9ffa131106"


def test_implementation_digest_is_frozen():
    # regression pin of the digest of a whole implementation: the entries
    # are exact products, so their bits are the same on every platform,
    # and the 112 negated zeros pin that -0.0 is hashed as its own bits
    rot = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    spec = HilbertSpec((2, 2, 2))
    ancilla = StateVector(np.array([0.6, 0.8j]))
    impl = GateImplementation(spec, Operator(-np.kron(cnot_unitary().entries, rot)), ancilla)
    bits = impl.unitary.entries.view(np.float64)
    assert int(np.count_nonzero(np.signbit(bits) & (bits == 0.0))) == 112
    assert digest(implementation=impl) == "b569ab184e8e31f8"
    unsigned = GateImplementation(spec, Operator(impl.unitary.entries + 0.0), ancilla)
    assert digest(implementation=unsigned) != digest(implementation=impl)


def _with_signed_zeros(values: np.ndarray) -> np.ndarray:
    """The same numbers with the imaginary zeros negated."""
    out = np.array(values, dtype=np.complex128)
    flat = out.view(np.float64)
    flat[flat == 0.0] = -0.0
    return out


def _digest_cases() -> list[dict]:
    """Part sets over four factorizations: laws, models, states and
    implementations, content-equal copies decoded from their documents,
    signed zeros, an operator and a state with the same numbers, equal
    arrays under two specs, and an operator beside a dict that mimics
    its header node."""
    cases = []
    for seed, dims in enumerate([(2, 2), (2, 3), (2, 2, 2), (3, 2, 2, 2)]):
        spec = HilbertSpec(dims)
        model, law = random_conserving_model(seed, spec)
        psi = random_state(np.random.default_rng(seed), spec.object_dim)
        cases += [
            {"model": model, "law": law, "psi": psi},
            {"model": model_from_json(model_to_json(model)), "law": law, "psi": psi},
            {"model": model, "law": law},
            {"law": law, "basis": "x", "scenario": {"nbar": 1.5, "cutoff": 9}},
            {"law": law_from_json(law_to_json(law)), "basis": "x", "scenario": {"nbar": 1.5, "cutoff": 9}},
            {"state": StateVector.basis(spec.object_dim, 0), "spec": spec},
            {"state": StateVector(_with_signed_zeros(StateVector.basis(spec.object_dim, 0).amplitudes)), "spec": spec},
        ]
        if dims[:2] == (2, 2):
            impl = random_conserving_implementation(
                seed, law, basis=commutant_basis(law),
                ancilla_state=random_state(np.random.default_rng(seed + 7), spec.ancilla_dim),
            )
            cases.append({"implementation": impl, "law": law, "psi": random_state(np.random.default_rng(1), 2)})
            ideal = np.kron(cnot_unitary().entries, np.eye(spec.ancilla_dim))
            cases += [
                {"implementation": impl},
                {"implementation": GateImplementation(spec, Operator(ideal), impl.ancilla_state)},
                {"implementation": GateImplementation(spec, Operator(_with_signed_zeros(ideal)), impl.ancilla_state)},
            ]
    cases.append({"op": Operator(_with_signed_zeros(np.eye(3))), "answer": 42})
    cases.append({"op": Operator(np.eye(3)), "answer": 42})
    # an operator and a state with the same numbers
    cases += [{"x": Operator(np.array([[1.0]]))}, {"x": StateVector(np.array([1.0]))}]
    # equal arrays under two specs
    u = random_conserving_implementation(
        9, ConservationLaw(HilbertSpec((2, 2, 4)), pauli("X"), pauli("X"), Operator(np.diag([0.0, 1, 2, 3]))),
    ).unitary
    xi = StateVector.basis(4, 0)
    for dims in [(2, 2, 4), (2, 2, 2, 2)]:
        cases.append({"implementation": GateImplementation(HilbertSpec(dims), u, xi)})
        cases.append({"spec": HilbertSpec(dims), "unitary": u})
    # an operator beside a dict that mimics its header node
    op = Operator(np.eye(2))
    mimic = {"kind": "operator", "shape": [2, 2], "dtype": "<c16"}
    cases += [{"a": op, "b": mimic}, {"a": mimic, "b": op}, {"a": op, "b": op}]
    return cases


def test_digest_matches_the_bits_formula(monkeypatch):
    # the library's digest hashes the bytes the formula spells out, in
    # any keyword order, and never renders an array as text
    cases = _digest_cases()
    encodes = []
    for encoder in ("_pairs", "_packed"):
        encode = getattr(waylab.serialize, encoder)
        monkeypatch.setattr(waylab.serialize, encoder, lambda v, encode=encode: encodes.append(1) or encode(v))
    for parts in cases:
        expected = digest_of_bits(**parts)
        assert digest(**parts) == expected
        assert digest(**dict(reversed(list(parts.items())))) == expected
    assert encodes == []


def test_batched_digests_are_the_bits_formula_of_each_case():
    # one digests call over every case: cases with one header share its
    # hash, and cases that differ only in a spec or in a shape do not
    cases = _digest_cases()
    cases += [{"op": Operator(np.eye(2))}, {"op": Operator(np.eye(3))}, {"op": Operator(np.eye(2))}]
    assert digests(cases) == [digest_of_bits(**parts) for parts in cases]
    assert digests([]) == []


def test_digest_tells_apart_what_the_document_formula_did():
    # over every pair of part sets, the bits digest agrees exactly when
    # the former document digest agreed: signed zeros, operator versus
    # state, spec and the header-mimicking dict all still count
    cases = _digest_cases()
    old = [digest_of_documents(**parts) for parts in cases]
    new = [digest(**parts) for parts in cases]
    same = [(i, j) for i in range(len(cases)) for j in range(i) if old[i] == old[j]]
    assert len(same) == 8  # the decoded copies, so the check is not vacuous
    for i in range(len(cases)):
        for j in range(i):
            assert (new[i] == new[j]) == (old[i] == old[j]), (cases[i], cases[j])
    # the one place the formulas part: a plain dict that spells out an
    # operator's wire document matched the operator before, and no longer
    assert digest_of_documents(op=operator_to_json(op := pauli("X"))) == digest_of_documents(op=op)
    assert digest(op=operator_to_json(op)) != digest(op=op)
