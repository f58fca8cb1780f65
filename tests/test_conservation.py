"""Conservation-law plumbing: commutant construction and conserving unitaries.

The key cross-check is against a brute-force nullspace count: the space
of matrices commuting with L has complex dimension sum(m_i^2) over the
eigenvalue multiplicities, which a dense superoperator rank computation
confirms without reusing any of the block logic under test.
"""

import numpy as np
import pytest

from waylab import (
    ConservationError,
    ConservationLaw,
    HilbertSpec,
    Operator,
    StateVector,
    commutant_basis,
    commutator,
    conservation_residual,
    conserving_unitary,
    operator_norm,
    zero,
)
import waylab.conservation
from waylab.cnot import GateImplementation, cnot_unitary, pauli
from waylab.operators import CHUNK_ENTRIES
from waylab.conservation import commutant_bases, conserving_exponential, conserving_unitaries
import waylab.sampling
from waylab.sampling import random_conserving_model, random_conserving_models, random_state
from waylab.serialize import digest
from waylab.scenarios import build_boson, build_spin

from oracles import (
    conserving_unitary_per_block,
    expm_skew,
    generators,
    gue_hermitian,
    kraus_fidelity_sq,
    project_coefficients_per_block,
    reference_conserving_model,
    two_draw_gaussian,
    two_draw_state,
    unitary_gradient,
)


X = pauli("X")
Z = pauli("Z")


def _xx_law() -> ConservationLaw:
    return ConservationLaw(HilbertSpec((2, 2)), X, X)


def _xxx_law() -> ConservationLaw:
    return ConservationLaw(HilbertSpec((2, 2, 2)), X, X, X)


def test_law_total_is_embedded_sum():
    law = _xx_law()
    expected = np.kron(X.entries, np.eye(2)) + np.kron(np.eye(2), X.entries)
    np.testing.assert_allclose(law.lifts[3], expected, atol=1e-15)


def test_law_defaults_ancilla_to_zero():
    law = ConservationLaw(HilbertSpec((2, 2, 2)), X, X)
    np.testing.assert_allclose(law.ancilla_part.entries, np.zeros((2, 2)))


def test_law_validates_parts():
    spec = HilbertSpec((2, 2))
    with pytest.raises(ValueError):
        ConservationLaw(spec, X, Operator(np.eye(3)))
    nonherm = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        ConservationLaw(spec, X, nonherm)


def test_conservation_error_carries_numbers():
    err = ConservationError(residual=0.5, tol=1e-9)
    assert err.residual == 0.5
    assert err.tol == 1e-9
    message = str(err)
    assert "residual" in message and "5.0" in message
    assert isinstance(err, ValueError)


def test_conservation_residual_zero_for_commuting():
    law = _xx_law()
    u = expm_skew(Operator(law.lifts[3], hermitian=True), 0.37)
    assert conservation_residual(u, law) < 1e-12


def test_conservation_residual_detects_violation():
    law = _xx_law()
    u = Operator(np.kron(Z.entries, np.eye(2)), unitary=True)
    assert conservation_residual(u, law) > 1.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2, 2)])
def test_conservation_residual_is_the_spectral_norm_of_u_l_minus_l_u_bit_for_bit(dims):
    # the independent formula: numpy's spectral norm of U L - L U with L the
    # lift stack's total, on a conserving and a non-conserving unitary
    model, law = random_conserving_model(31, HilbertSpec(dims))
    total = law.lifts[3]
    generic = expm_skew(gue_hermitian(np.random.default_rng(32), total.shape[0]))
    for u, conserving in ((model.interaction, True), (generic, False)):
        want = np.linalg.norm(u.entries @ total - total @ u.entries, 2)
        assert conservation_residual(u, law) == want
        assert bool(want < 1e-9) is conserving


def test_commutant_generator_counts():
    # multiplicities of X1+X2: {-2: 1, 0: 2, +2: 1} -> 1 + 4 + 1
    assert commutant_basis(_xx_law()).generator_count == 6
    # X1+X2+X3: {-3: 1, -1: 3, +1: 3, +3: 1} -> 1 + 9 + 9 + 1
    assert commutant_basis(_xxx_law()).generator_count == 20


def test_block_structure_matches_multiplicities():
    # each block's charge value, read off the diagonal of the total
    # charge in the eigenbasis (floats, so compared with tolerance)
    law = _xx_law()
    basis = commutant_basis(law)
    assert basis.block_dims == (1, 2, 1)
    e = basis.eigenbasis
    diagonal = np.real(np.diag(e.conj().T @ law.lifts[3] @ e))
    ends = np.cumsum(basis.block_dims)
    for value, block in zip([-2.0, 0.0, 2.0], np.split(diagonal, ends[:-1])):
        np.testing.assert_allclose(block, value, atol=1e-12)
    assert ends[-1] == diagonal.size


def test_bases_with_one_block_signature_share_a_read_only_layout():
    # X1 + X2 and Z1 + Z2 both split into blocks (1, 2, 1)
    xx, zz = commutant_basis(_xx_law()), commutant_basis(ConservationLaw(HilbertSpec((2, 2)), Z, Z))
    assert xx.block_dims == zz.block_dims == (1, 2, 1)
    assert xx._layout is zz._layout
    for arr in xx._layout[2:]:
        assert not arr.flags.writeable
    assert commutant_basis(_xxx_law())._layout is not xx._layout


@pytest.mark.parametrize("law_fn", [_xx_law, _xxx_law])
def test_commutant_count_matches_nullspace(law_fn):
    # brute force: vec([B, L]) = (I (x) L - L^T (x) I) vec(B) = 0
    law = law_fn()
    l_tot = law.lifts[3]
    d = l_tot.shape[0]
    superop = np.kron(np.eye(d), l_tot) - np.kron(l_tot.T, np.eye(d))
    rank = np.linalg.matrix_rank(superop, tol=1e-9)
    nullity = d * d - rank
    assert commutant_basis(law).generator_count == nullity


def test_generators_are_orthonormal_hermitian_and_commute():
    basis = commutant_basis(_xx_law())
    gens = generators(basis)
    l_tot = Operator(_xx_law().lifts[3])
    for i, g in enumerate(gens):
        assert g.is_hermitian()
        assert operator_norm(commutator(g, l_tot)) < 1e-12
        for j in range(i, len(gens)):
            ip = np.trace(g.entries.conj().T @ gens[j].entries)
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_conserving_unitary_matches_dense_exponential():
    basis = commutant_basis(_xx_law())
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(basis.generator_count)
    u = conserving_unitary(basis, coeffs)
    dense = sum(
        (c * g.entries for c, g in zip(coeffs, generators(basis))),
        np.zeros((4, 4), dtype=complex),
    )
    expected = expm_skew(Operator(dense, hermitian=True))
    np.testing.assert_allclose(u.entries, expected.entries, atol=1e-12)
    assert u.is_unitary()


def test_conserving_unitary_conserves():
    law = _xxx_law()
    basis = commutant_basis(law)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = conserving_unitary(basis, rng.standard_normal(basis.generator_count))
        assert conservation_residual(u, law) < 1e-10


def test_conserving_unitary_rejects_bad_length():
    basis = commutant_basis(_xx_law())
    with pytest.raises(ValueError):
        conserving_unitary(basis, np.zeros(basis.generator_count + 1))


def test_project_coefficients_roundtrip():
    basis = commutant_basis(_xx_law())
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(basis.generator_count)
    dense = sum(
        (c * g.entries for c, g in zip(coeffs, generators(basis))),
        np.zeros((4, 4), dtype=complex),
    )
    h = Operator(dense, hermitian=True)
    out = basis.project_coefficients(h)
    want, residual = project_coefficients_per_block(basis, h)
    assert np.array_equal(out, want)
    np.testing.assert_allclose(out, coeffs, atol=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-10)


def test_project_coefficients_pythagoras():
    # in-block mass plus the reported residual^2 must recover the full
    # Frobenius mass of any Hermitian input
    basis = commutant_basis(_xx_law())
    rng = np.random.default_rng(8)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = Operator((m + m.conj().T) / 2, hermitian=True)
    coeffs = basis.project_coefficients(h)
    want, residual = project_coefficients_per_block(basis, h)
    assert np.array_equal(coeffs, want)
    frob_sq = np.linalg.norm(h.entries, "fro") ** 2
    assert np.sum(coeffs**2) + residual**2 == pytest.approx(frob_sq, rel=1e-12)


def test_project_detects_nonconserving_direction():
    # Z (x) I does not commute with X1+X2, so it must leave a residual
    basis = commutant_basis(_xx_law())
    h = Operator(np.kron(Z.entries, np.eye(2)), hermitian=True)
    want, residual = project_coefficients_per_block(basis, h)
    assert np.array_equal(basis.project_coefficients(h), want)
    assert residual > 0.5


def test_commutant_spans_trivial_law():
    # L = 0 conserves everything: the commutant is the full Hermitian
    # space and any Hermitian projects with zero residual
    spec = HilbertSpec((2, 2))
    law = ConservationLaw(spec, zero(2), zero(2))
    basis = commutant_basis(law)
    assert basis.generator_count == 16
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = Operator((m + m.conj().T) / 2, hermitian=True)
    want, residual = project_coefficients_per_block(basis, h)
    assert np.array_equal(basis.project_coefficients(h), want)
    assert residual == pytest.approx(0.0, abs=1e-10)


def _random_laws():
    for dims in ((2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 2, 2), (2, 3, 2)):
        for seed in range(12):
            yield f"random-{dims}-{seed}", random_conserving_model(seed, HilbertSpec(dims))[1]
    yield "spin-3", build_spin(3).law
    yield "spin-4", build_spin(4).law
    yield "boson-1", build_boson(1.0).law
    # generic spectra: every block is 1 x 1
    for dims in ((2, 2), (2, 2, 2), (3, 2, 2)):
        rng = np.random.default_rng(sum(dims))
        spec = HilbertSpec(dims)
        yield f"nondegenerate-{dims}", ConservationLaw(
            spec, *(gue_hermitian(rng, d) for d in (spec.object_dim, spec.probe_dim, spec.ancilla_dim))
        )


def test_grouped_blocks_match_the_per_block_loop_bit_for_bit():
    sizes_seen: set[tuple[int, ...]] = set()
    for name, law in _random_laws():
        basis = commutant_basis(law)
        sizes_seen.add(tuple(sorted(set(basis.block_dims))))
        if name.startswith("nondegenerate"):
            assert set(basis.block_dims) == {1}, name
        rng = np.random.default_rng(7)
        for scale in (0.3, 1.0, 4.0):
            coeffs = rng.standard_normal(basis.generator_count) * scale
            u = conserving_unitary(basis, coeffs)
            assert np.array_equal(u.entries, conserving_unitary_per_block(basis, coeffs)), name
            m = rng.standard_normal((basis.dim, basis.dim)) + 1j * rng.standard_normal((basis.dim, basis.dim))
            h = Operator((m + m.conj().T) / 2, hermitian=True)
            want, _ = project_coefficients_per_block(basis, h)
            assert np.array_equal(basis.project_coefficients(h), want), name
    # layouts with several sizes, repeated sizes and 1 x 1 blocks only
    assert (1,) in sizes_seen and any(len(s) >= 3 for s in sizes_seen)


def test_one_call_over_mixed_bases_gives_each_its_own_unitary():
    # one conserving_unitaries call over bases of several dimensions and
    # block depths, in an order that mixes both: each basis gets the bytes
    # of its own conserving_unitary and of the block-by-block loop.  The
    # zero law has one block, the whole space, and the distinct diagonal
    # charges leave only 1 x 1 blocks.  Dimensions 12 and 16 have one
    # basis each, which adds its blocks one at a time; the two (4, 4, 4)
    # bases' terms do not fit one stack of CHUNK_ENTRIES entries, so they
    # are summed a window of positions at a time
    def diagonal(*values: float) -> Operator:
        return Operator(np.diag(values), hermitian=True)

    laws = [
        ConservationLaw(HilbertSpec((2, 2, 2)), zero(2), zero(2), zero(2)),
        ConservationLaw(HilbertSpec((2, 2, 2)), diagonal(0, 1), diagonal(0, 2), diagonal(0, 4)),
        ConservationLaw(HilbertSpec((3, 2)), diagonal(0, 2, 4), diagonal(0, 1)),
    ]
    layouts = ((2, 2), (2, 2, 2), (3, 2), (2, 2, 2, 2), (4, 4, 4), (2, 2, 2), (2, 3, 2), (3, 2), (4, 4, 4))
    for seed, dims in enumerate(layouts):
        laws.append(random_conserving_model(seed, HilbertSpec(dims))[1])
    laws.insert(4, ConservationLaw(HilbertSpec((2, 2)), zero(2), zero(2)))
    bases = commutant_bases(laws)
    depths = [len(basis.block_dims) for basis in bases]
    assert depths[0] == 1 and bases[0].block_dims == (8,)
    assert set(bases[1].block_dims) == {1} and set(bases[2].block_dims) == {1}
    assert len({(basis.dim, depth) for basis, depth in zip(bases, depths)}) >= 8
    assert [basis.dim for basis in bases].count(16) == [basis.dim for basis in bases].count(12) == 1
    assert sum(depth for basis, depth in zip(bases, depths) if basis.dim == 64) > CHUNK_ENTRIES // 64**2
    # within one dimension, the call order is not the order of block depth
    eights = [depth for basis, depth in zip(bases, depths) if basis.dim == 8]
    assert eights != sorted(eights, reverse=True)
    rng = np.random.default_rng(32)
    coefficients = [rng.standard_normal(basis.generator_count) for basis in bases]
    for basis, c, u in zip(bases, coefficients, conserving_unitaries(bases, coefficients)):
        assert u.entries.tobytes() == conserving_unitary(basis, c).entries.tobytes(), basis.block_dims
        assert u.entries.tobytes() == conserving_unitary_per_block(basis, c).tobytes(), basis.block_dims


def test_padded_block_sums_keep_each_basis_bits_in_both_window_shapes(monkeypatch):
    # at 100 entries a window, the three dimension-8 bases (3 * 64 entries
    # a position) are summed one position a window, and the three
    # dimension-4 bases (3 * 16) two positions a window, the random law's
    # terms overlapping.  The shallower bases of each dimension are padded
    # with +0.0 past their last block, also where the sum is an exact zero;
    # a sum that starts at +0.0 holds no -0.0, so the padded adds leave
    # every bit as it is
    monkeypatch.setattr(waylab.conservation, "CHUNK_ENTRIES", 100)

    def diagonal(*values: float) -> Operator:
        return Operator(np.diag(values), hermitian=True)

    laws = [
        ConservationLaw(HilbertSpec((2, 2, 2)), zero(2), zero(2), zero(2)),
        ConservationLaw(HilbertSpec((2, 2)), diagonal(0, 1), diagonal(0, 1)),
        random_conserving_model(4, HilbertSpec((2, 2, 2)))[1],
        random_conserving_model(0, HilbertSpec((2, 2)))[1],
        ConservationLaw(HilbertSpec((2, 2)), diagonal(0, 1), diagonal(0, 2)),
        ConservationLaw(HilbertSpec((2, 2, 2)), diagonal(0, 1), diagonal(0, 2), diagonal(0, 4)),
    ]
    bases = commutant_bases(laws)
    block_dims = [(8,), (1, 2, 1), (1, 2, 2, 2, 1), (1,) * 4, (1,) * 4, (1,) * 8]
    assert [basis.block_dims for basis in bases] == block_dims
    assert 100 // (3 * 8 * 8) == 0 and 100 // (3 * 4 * 4) == 2
    rng = np.random.default_rng(33)
    coefficients = [rng.standard_normal(basis.generator_count) for basis in bases]
    unitaries = conserving_unitaries(bases, coefficients)
    # the shallow dimension-4 basis is padded at entries whose sum is an exact zero
    shallow = unitaries[1].entries
    zeros = np.concatenate([shallow.real[shallow.real == 0], shallow.imag[shallow.imag == 0]])
    assert zeros.size and not np.signbit(zeros).any()
    for basis, c, u in zip(bases, coefficients, unitaries):
        assert u.entries.tobytes() == conserving_unitary(basis, c).entries.tobytes(), basis.block_dims
        assert u.entries.tobytes() == conserving_unitary_per_block(basis, c).tobytes(), basis.block_dims


def test_law_lift_stack_is_read_only_and_its_total_is_the_sum():
    # the lifts and the total are one read-only stack, built once, whose
    # last matrix is the bytes of l1 + l2 + l3 with the parts lifted by np.kron
    law = random_conserving_model(3, HilbertSpec((2, 3, 2)))[1]
    stack = law.lifts
    assert law.lifts is law.lifts
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        stack[3] += 1.0
    a, b, c = (part.entries for part in (law.object_part, law.probe_part, law.ancilla_part))
    lifts = (np.kron(a, np.eye(6)), np.kron(np.kron(np.eye(2), b), np.eye(2)), np.kron(np.eye(6), c))
    assert all(got.tobytes() == want.tobytes() for got, want in zip(stack[:3], lifts))
    assert (lifts[0] + lifts[1] + lifts[2]).tobytes() == stack[3].tobytes()


@pytest.mark.parametrize("zero_point", [False, True], ids=["random-point", "degenerate-point"])
@pytest.mark.parametrize("build", [lambda: build_spin(3), lambda: build_boson(1.0)], ids=["spin3", "boson1"])
def test_unitary_gradient_matches_central_differences(build, zero_point):
    # dF^2/dc_k at a fixed input psi is 2 Re <(C psi) x z| dU/dc_k |psi x xi>;
    # at c = 0 every block's eigenvalues coincide, where only the sinc
    # form of the divided differences stays finite
    scenario = build()
    basis = commutant_basis(scenario.law)
    rng = np.random.default_rng(12)
    c = np.zeros(basis.generator_count) if zero_point else rng.standard_normal(basis.generator_count)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    xi = scenario.ancilla_state.amplitudes
    cnot = cnot_unitary().entries

    def fsq(coeffs: np.ndarray) -> float:
        impl = GateImplementation(scenario.spec, conserving_unitary(basis, coeffs), scenario.ancilla_state)
        return float(kraus_fidelity_sq(impl)(psi[None, :])[0])

    ket = np.kron(psi, xi)
    u, derivative = conserving_exponential(basis, c)
    z = (cnot @ psi).conj() @ (u.entries @ ket).reshape(4, -1)
    analytic = 2.0 * derivative(np.kron(cnot @ psi, z), ket)
    h = 1e-5
    numeric = np.array([(fsq(c + h * e) - fsq(c - h * e)) / (2 * h) for e in np.eye(c.size)])
    assert np.max(np.abs(numeric)) > 1e-3
    np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-8)


def test_exponential_derivative_is_the_fresh_decomposition_bit_for_bit():
    # the derivative map reads the eigensystems that built U; filling and
    # decomposing the stacks again, as the reference does, gives the same bits
    for name, law in _random_laws():
        basis = commutant_basis(law)
        rng = np.random.default_rng(11)
        points = [np.zeros(basis.generator_count)]
        points += [rng.standard_normal(basis.generator_count) * scale for scale in (0.3, 1.0, 4.0)]
        for c in points:
            u, derivative = conserving_exponential(basis, c)
            # a plain Operator: the digest types operators by exact class
            assert type(u) is Operator, name
            assert np.array_equal(u.entries, conserving_unitary(basis, c).entries), name
            for _ in range(2):  # the map can be read more than once
                bra, ket = rng.standard_normal((2, basis.dim)) + 1j * rng.standard_normal((2, basis.dim))
                got = derivative(bra, ket)
                assert got.shape == (basis.generator_count,) and got.dtype == np.float64, name
                assert np.array_equal(got, unitary_gradient(basis, c, bra, ket)), name


SAMPLED_LAYOUTS = ((2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 2), (1, 2), (2, 3, 2))


@pytest.mark.parametrize("chunk", [1, 2, 63, 64, 65, 130])
def test_stacked_sampler_is_the_per_case_oracle_byte_for_byte(chunk):
    # 130 cases cycling through six layouts, sampled a chunk at a time:
    # each chunk mixes layouts and block sizes, and every case keeps the
    # bytes of its own one-case draw
    seeds = [int(s) for s in np.random.default_rng(28).integers(0, 2**62, size=130)]
    specs = [HilbertSpec(SAMPLED_LAYOUTS[i % len(SAMPLED_LAYOUTS)]) for i in range(len(seeds))]
    for start in range(0, len(seeds), chunk):
        cases = random_conserving_models(seeds[start : start + chunk], specs[start : start + chunk])
        bases = commutant_bases([law for _, law in cases])
        for seed, spec, (model, law), basis in zip(seeds[start:], specs[start:], cases, bases):
            ref_model, ref_law, ref = reference_conserving_model(seed, spec)
            got = [
                law.object_part, law.probe_part, law.ancilla_part, *law.lifts,
                basis.eigenbasis, model.interaction, model.probe_state, model.ancilla_state,
                model.pointer, model.observable,
            ]
            want = [
                ref_law.object_part, ref_law.probe_part, ref_law.ancilla_part, *ref["lifts"], ref["total"],
                ref["eigenbasis"], ref_model.interaction, ref_model.probe_state, ref_model.ancilla_state,
                ref_model.pointer, ref_model.observable,
            ]
            for k, (a, b) in enumerate(zip(got, want)):
                a, b = (getattr(x, "entries", getattr(x, "amplitudes", x)) for x in (a, b))
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (seed, spec, k)
            assert basis.block_dims == ref["block_dims"], (seed, spec)
            assert digest(model=model, law=law) == digest(model=ref_model, law=ref_law), (seed, spec)


@pytest.mark.parametrize("seed", [0, 1, 28, 2**62 - 1])
def test_one_draw_gaussians_are_the_two_draw_oracles_bit_for_bit(seed):
    # PCG64 fills a (2, d, d) or 2d draw in stream order, so one draw gives
    # the real parts and then the imaginary parts of two draws, and leaves
    # the stream where the two draws do
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    for dim in (1, 2, 3, 4, 8, 13, 2, 1):
        a, b = waylab.sampling._gaussian(one, dim), two_draw_gaussian(two, dim)
        assert a.shape == b.shape == (dim, dim) and a.tobytes() == b.tobytes(), dim
        a, b = random_state(one, dim).amplitudes, two_draw_state(two, dim).amplitudes
        assert a.shape == b.shape == (dim,) and a.tobytes() == b.tobytes(), dim
    assert one.bit_generator.state == two.bit_generator.state
