"""Scenario-layer tests: ceilings, bosonic truncation, positive control,
and the ceiling-probing optimizer.

Two constructions act as end-to-end controls.  A conservation law built
from Z on the control commutes with the ideal gate's generator, so the
fidelity optimizer must reach F ~ 1 through the projected start (the
bound has no teeth when [A, L1] = 0).  And the swap-based commuting
model must pass both measurement predicates exactly, witnessing the
contrapositive of the noise trade-off.
"""

import math
import sys

import numpy as np
import pytest
from scipy.stats import poisson

from waylab import (
    ConservationLaw,
    GateImplementation,
    HilbertSpec,
    Operator,
    OptimizeConfig,
    Scenario,
    SearchConfig,
    StateVector,
    boson_reports,
    build_boson,
    build_spin,
    cnot_unitary,
    commutant_basis,
    conservation_residual,
    conserving_unitary,
    expectation,
    is_nondisturbing,
    is_precise,
    operator_norm,
    optimize_fidelity,
    rms_disturbance,
    rms_error,
    std_dev,
    way_positive_control,
    zero,
)
import waylab.operators
import waylab.scenarios
from waylab.cnot import (
    _FSQ,
    _IPLUS,
    FidelityResult,
    _clipped,
    _sphere_descent,
    gate_fidelity,
    measurement_view,
    pauli,
    search_meets,
    sigma_ceiling_fsq,
)
from waylab.scenarios import (
    CeilingViolation,
    ceiling_boson,
    ceiling_qubit,
    poisson_cutoff,
    projected_gate_coefficients,
    truncated_coherent,
)
from waylab.serialize import digest


X = pauli("X")
Z = pauli("Z")
# the sigma-l3 report does not read the fidelity
PERFECT = FidelityResult(1.0, 1.0, 0.0, StateVector.basis(4, 0), 1)


def test_ceiling_qubit_values():
    assert ceiling_qubit(2) == pytest.approx(15.0 / 16.0, abs=0)
    assert ceiling_qubit(3) == pytest.approx(1.0 - 1.0 / 36.0, abs=1e-15)
    assert ceiling_qubit(4) == pytest.approx(1.0 - 1.0 / 64.0, abs=1e-15)
    with pytest.raises(ValueError):
        ceiling_qubit(1)


def test_ceiling_boson_values():
    assert ceiling_boson(1.0) == pytest.approx(1.0 - 1.0 / 16.0, abs=1e-15)
    assert ceiling_boson(4.0) == pytest.approx(1.0 - 1.0 / 64.0, abs=1e-15)
    with pytest.raises(ValueError):
        ceiling_boson(0.0)


def test_build_spin_layout():
    two = build_spin(2)
    assert two.spec.factor_dims == (2, 2)
    # the 1 x 1 ancilla register of n = 2: a zero charge and the state 1
    assert two.ancilla_state.amplitudes.tolist() == [1.0]
    assert two.law.ancilla_part.entries.tolist() == [[0.0]]
    assert two.label == "spin-n2"
    np.testing.assert_allclose(two.law.object_part.entries, X.entries, atol=0)

    three = build_spin(3)
    assert three.spec.factor_dims == (2, 2, 2)
    assert operator_norm(three.law.ancilla_part) == pytest.approx(1.0)
    # default reservoir state is the computational |0...0>
    np.testing.assert_allclose(three.ancilla_state.amplitudes, [1.0, 0.0], atol=0)

    four = build_spin(4)
    assert operator_norm(four.law.ancilla_part) == pytest.approx(2.0)
    assert four.ceiling_fsq == pytest.approx(1.0 - 1.0 / 64.0)

    with pytest.raises(ValueError):
        build_spin(1)


def test_poisson_cutoff_oracles():
    # frozen values for the standard tail tolerance
    assert poisson_cutoff(1.0) == 13
    assert poisson_cutoff(2.0) == 17
    assert poisson_cutoff(4.0) == 23
    # the returned dimension really does meet the tail bound, and is
    # minimal for it
    for nbar in (1.0, 2.0, 4.0):
        d = poisson_cutoff(nbar)
        assert poisson.sf(d - 1, nbar) < 1e-10
        assert poisson.sf(d - 2, nbar) >= 1e-10
    with pytest.raises(ValueError):
        poisson_cutoff(-1.0)


@pytest.mark.parametrize("nbar", [math.nan, math.inf, 1e6], ids=["nan", "infinity", "huge"])
def test_unusable_nbar_is_value_error(nbar):
    # poisson_cutoff returned 1 for NaN, which failed later inside
    # StateVector, and ran infinity and 1e6 to its level cap, ending in a
    # RuntimeError; every case fails here before anything is allocated
    with pytest.raises(ValueError):
        poisson_cutoff(nbar)
    with pytest.raises(ValueError):
        build_boson(nbar)
    if not math.isfinite(nbar):
        with pytest.raises(ValueError):
            ceiling_boson(nbar)


@pytest.mark.parametrize("nbar", [1e4, 1e6])
def test_fock_cutoff_is_bounded_by_the_dense_limit(nbar):
    # poisson_cutoff searched up to its own cap of 100 000 levels; no space
    # holding a factor past the dense limit can be built
    with pytest.raises(ValueError, match="Fock cutoff .* exceeds the dense limit 4096"):
        poisson_cutoff(nbar)
    assert poisson_cutoff(900.0) <= waylab.operators.MAX_TOTAL_DIM


@pytest.mark.parametrize("n", [13, 10**6, 10**400])
def test_oversized_spin_n_is_refused_before_any_factor_is_listed(n):
    # build_spin listed (2,) * (n - 2) before anything was refused, and a
    # ceiling_qubit of an n past a double's range raised OverflowError
    with pytest.raises(ValueError, match="more than 12 qubits exceeds the dense limit 4096"):
        build_spin(n)


def test_truncated_coherent_moments():
    for nbar in (1.0, 2.0, 4.0):
        cutoff = poisson_cutoff(nbar)
        xi = truncated_coherent(nbar, cutoff)
        assert xi.dim == cutoff
        n_op = Operator(np.diag(np.arange(cutoff, dtype=float)), hermitian=True)
        mean = expectation(n_op, xi).real
        assert mean == pytest.approx(nbar, abs=1e-8)
        # Poissonian spread survives truncation: (Delta N)^2 = <N>
        assert std_dev(n_op, xi) ** 2 == pytest.approx(nbar, abs=1e-7)
        assert np.all(xi.amplitudes.real >= 0)
        assert np.all(np.abs(xi.amplitudes.imag) == 0)
    with pytest.raises(ValueError):
        truncated_coherent(0.0, 10)
    with pytest.raises(ValueError):
        truncated_coherent(1.0, 0)


def test_build_boson_layout():
    sc = build_boson(1.0)
    assert sc.spec.ancilla_dim == 13
    assert sc.spec.factor_dims == (2, 2, 13)
    assert sc.label == "boson-nbar1"
    assert sc.ceiling_fsq == pytest.approx(1.0 - 1.0 / 16.0)
    # the field charge is twice the number operator
    np.testing.assert_allclose(
        sc.law.ancilla_part.entries, np.diag(2.0 * np.arange(13)), atol=0
    )
    with pytest.raises(ValueError):
        build_boson(1e-9)


def test_one_scenario_type_reads_its_space_label_and_cutoff_from_the_law():
    # the space is the law's, the label follows from the layout or nbar,
    # and a coherent-field scenario's Fock cutoff is its ancilla dimension
    for n in range(2, 6):
        sc = build_spin(n)
        assert sc.label == f"spin-n{n}" and sc.nbar is None
        assert sc.spec is sc.law.spec
    for nbar, cutoff, label in ((1.0, 13, "boson-nbar1"), (2.0, 17, "boson-nbar2"), (4.0, 23, "boson-nbar4")):
        sc = build_boson(nbar)
        assert sc.label == label and sc.nbar == nbar
        assert sc.spec is sc.law.spec
        assert sc.spec.ancilla_dim == cutoff
        impl = GateImplementation(sc.spec, Operator(np.eye(sc.spec.total_dim), unitary=True), sc.ancilla_state)
        tag = digest(implementation=impl, scenario={"nbar": nbar, "cutoff": cutoff})
        assert {r.digest for r in boson_reports(impl, sc, PERFECT)} == {tag}
    # a spin register has no field to check
    spin = build_spin(3)
    impl = GateImplementation(spin.spec, Operator(np.eye(8), unitary=True), spin.ancilla_state)
    with pytest.raises(ValueError, match="not a coherent-field scenario"):
        boson_reports(impl, spin, PERFECT)


def test_sigma_check_untouched_field():
    # U = I leaves the coherent state alone: sigma(L3') = 2 Delta N =
    # 2 sqrt(nbar), which for nbar=4 reads 4 against the bound
    # 2 sqrt(6) ~ 4.899
    sc = build_boson(4.0)
    impl = GateImplementation(sc.spec, Operator(np.eye(sc.spec.total_dim), unitary=True), sc.ancilla_state)
    rep = boson_reports(impl, sc, PERFECT)[1]
    assert rep.relation == "sigma-l3"
    assert rep.lhs == pytest.approx(4.0, abs=1e-6)
    assert rep.rhs == pytest.approx(2.0 * math.sqrt(6.0), abs=1e-12)
    assert rep.passed()
    assert rep.details["mean_n_evolved"] == pytest.approx(4.0, abs=1e-6)


def test_sigma_check_evolves_the_charge_once(monkeypatch):
    # sigma(L3') and the moments of N' = L3'/2 share one U^dag L3 U, and
    # halving is exact, so the mean and deviation are U^dag (I x N) U's
    # to the bit
    sc = build_boson(1.0)
    basis = commutant_basis(sc.law)
    u = conserving_unitary(basis, 0.3 * np.random.default_rng(3).standard_normal(basis.generator_count))
    impl = GateImplementation(sc.spec, u, sc.ancilla_state)
    full = measurement_view(impl).initial_state(_IPLUS)
    number_op = Operator(0.5 * sc.law.ancilla_part.entries, hermitian=True)
    (n_evolved,) = waylab.operators.evolved_stack(sc.spec.lift(number_op.entries, "ancilla")[None], u.entries)
    vec = n_evolved @ full.amplitudes
    mean_n = float(np.real(np.vdot(full.amplitudes, vec)))
    delta_n = math.sqrt(max(float(np.real(np.vdot(vec, vec))) - mean_n**2, 0.0))

    evolved_stack = waylab.operators.evolved_stack
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("waylab") and getattr(module, "evolved_stack", None) is evolved_stack:
            monkeypatch.setattr(module, "evolved_stack", lambda ops, v: calls.append(1) or evolved_stack(ops, v))
    rep = boson_reports(impl, sc, PERFECT)[1]
    assert len(calls) == 1
    assert rep.details["mean_n_evolved"] == mean_n
    assert rep.lhs == 2.0 * delta_n
    assert rep.details["poissonian_residual"] == abs(delta_n - math.sqrt(mean_n))
    assert rep.details["mean_n_evolved"] != pytest.approx(1.0, abs=1e-3)


def test_boson_reports_share_one_digest_and_one_ceiling():
    # one l3_moments pass feeds all three records, so sigma-ceiling's
    # ceiling is sigma-l3's deviation put through sigma_ceiling_fsq, bit for bit
    sc = build_boson(2.0)
    basis = commutant_basis(sc.law)
    u = conserving_unitary(basis, 0.4 * np.random.default_rng(5).standard_normal(basis.generator_count))
    impl = GateImplementation(sc.spec, u, sc.ancilla_state)
    result = gate_fidelity(impl, SearchConfig(restarts=2, max_iter=30))
    ceiling, sigma_l3, nbar_ceiling = boson_reports(impl, sc, result)
    assert [r.relation for r in (ceiling, sigma_l3, nbar_ceiling)] == ["sigma-ceiling", "sigma-l3", "nbar-ceiling"]
    assert ceiling.digest == sigma_l3.digest == nbar_ceiling.digest
    assert ceiling.rhs == sigma_ceiling_fsq(sigma_l3.lhs)
    assert ceiling.rhs == sigma_l3.details["sigma_ceiling_fsq"]
    assert ceiling.lhs == nbar_ceiling.lhs == result.fidelity_sq
    assert nbar_ceiling.rhs == sc.ceiling_fsq == sigma_l3.details["nbar_ceiling_fsq"]
    f2_details = {"fidelity_sq_lower": result.fidelity_sq_lower, "nbar": 2.0}
    assert dict(ceiling.details) == {**f2_details, "sigma_l3": sigma_l3.lhs}
    assert dict(nbar_ceiling.details) == f2_details
    with pytest.raises(ValueError, match="scenario's space"):
        boson_reports(impl, build_boson(1.0), result)


def test_sigma_check_stable_under_larger_cutoff():
    # enlarging the truncation must not move the physics: 1e-18 keeps
    # 7 more Fock levels than the default 1e-10
    lhs, cutoffs = [], []
    for tail_tol in (waylab.scenarios.TAIL_TOL, 1e-18):
        sc = build_boson(1.0, tail_tol)
        cutoffs.append(sc.spec.ancilla_dim)
        impl = GateImplementation(
            sc.spec, Operator(np.eye(sc.spec.total_dim), unitary=True), sc.ancilla_state
        )
        lhs.append(boson_reports(impl, sc, PERFECT)[1].lhs)
    assert cutoffs[1] >= cutoffs[0] + 5
    assert lhs[0] == pytest.approx(lhs[1], abs=1e-6)


def test_projected_start_reproduces_gate_in_commuting_law():
    # Z on the control commutes with the gate generator, so projecting
    # onto that commutant loses nothing and the exponential returns the
    # exact gate
    spec = HilbertSpec((2, 2))
    law = ConservationLaw(spec, Z, zero(2))
    scenario = Scenario(law, None, 1.0)
    basis = commutant_basis(law)
    coeffs = projected_gate_coefficients(scenario, basis)
    u = conserving_unitary(basis, coeffs)
    np.testing.assert_allclose(u.entries, cnot_unitary().entries, atol=1e-12)
    assert conservation_residual(u, law) <= 1e-12


def test_optimizer_attains_unit_fidelity_without_obstruction():
    # commuting law: the ceiling argument is void and the projected
    # start already contains the perfect gate
    spec = HilbertSpec((2, 2))
    law = ConservationLaw(spec, Z, zero(2))
    scenario = Scenario(law, None, 1.0)
    run = optimize_fidelity(
        scenario,
        OptimizeConfig(
            restarts=0,
            max_iter=6,
            inner=SearchConfig(restarts=4, max_iter=80),
        ),
    )
    assert run.best_fidelity_sq >= 1.0 - 1e-9
    assert run.min_gap_evaluated >= -1e-9


def test_optimize_fidelity_spin2_structure():
    run = optimize_fidelity(
        build_spin(2),
        OptimizeConfig(
            restarts=1,
            max_iter=25,
            seed=3,
            inner=SearchConfig(restarts=4, max_iter=60),
        ),
    )
    assert run.scenario == "spin-n2"
    assert run.ceiling_fsq == pytest.approx(15.0 / 16.0)
    assert run.min_gap_evaluated >= -1e-9
    assert run.best_fidelity_sq <= run.ceiling_fsq + 1e-9
    assert len(run.coefficients) == 6
    assert run.evaluations > 0
    assert len(run.trace) == 2  # projected start + 1 random restart
    data = run.to_json_dict()
    assert data["scenario"] == "spin-n2"
    assert "search_estimate_fsq" in data["details"]
    assert data["gap"] == pytest.approx(run.ceiling_fsq - run.best_fidelity_sq)


@pytest.mark.parametrize("seed", [101, 103, 20021017])
def test_gradient_ascent_reaches_quarter_at_n3(seed):
    # the projected-gate start lies on the F ~ 0 plateau at n = 3; the
    # Nelder-Mead search and compass polish that the ascent replaced
    # ended at F^2 0.0956 to 0.211 on this budget, the optimum is 0.25
    run = optimize_fidelity(
        build_spin(3),
        OptimizeConfig(
            restarts=0, max_iter=30, seed=seed,
            inner=SearchConfig(restarts=4, max_iter=80, seed=seed),
        ),
    )
    assert run.best_fidelity_sq >= 0.249
    assert run.min_gap_evaluated >= -1e-9
    assert run.trace[0]["initial"] ** 2 < 1e-6


# the maximin-spin3 benchmark's optimize budget
MAXIMIN_BUDGET = dict(restarts=0, max_iter=30, inner=SearchConfig(restarts=4, max_iter=80))


@pytest.mark.parametrize(
    "scenario, config",
    [
        (build_spin(3), OptimizeConfig(seed=20021017, **MAXIMIN_BUDGET)),
        (build_spin(4), OptimizeConfig(restarts=1, max_iter=20, seed=7, inner=SearchConfig(restarts=4, max_iter=60))),
        (build_boson(1.0), OptimizeConfig(restarts=1, max_iter=20, seed=7, inner=SearchConfig(restarts=4, max_iter=60))),
    ],
    ids=["spin-n3", "spin-n4", "boson-nbar1"],
)
def test_warm_pass_leaves_the_run_of_cold_searches_unchanged(monkeypatch, scenario, config):
    shipped = optimize_fidelity(scenario, config).to_json_dict()
    passes = []

    def never_rejects(impl, test, search, starts):
        passes.append(impl)
        return False

    # with no trial rejected, every trial gets its cold search: the run without a warm pass
    monkeypatch.setattr(waylab.scenarios, "search_meets", never_rejects)
    assert optimize_fidelity(scenario, config).to_json_dict() == shipped
    assert passes


def test_warm_pass_rejects_only_trials_the_cold_search_rejects(monkeypatch):
    config = OptimizeConfig(seed=20021017, **MAXIMIN_BUDGET)
    cold, warm = [], []  # (impl, result); (impl, verdict, the current point's F^2, the cold F^2)

    def cold_spy(impl, search=None):
        res = gate_fidelity(impl, search)
        cold.append((impl, res))
        return res

    def warm_spy(impl, test, search, starts):
        verdict = search_meets(impl, test, search, starts)
        current = next(r for _, r in cold if r.final_states is starts)
        warm.append((impl, verdict, current.fidelity_sq, gate_fidelity(impl, config.inner).fidelity_sq))
        return verdict

    monkeypatch.setattr(waylab.scenarios, "gate_fidelity", cold_spy)
    monkeypatch.setattr(waylab.scenarios, "search_meets", warm_spy)
    run = optimize_fidelity(build_spin(3), config)
    assert run.evaluations == 32  # 1 + 30 ascent points and the final score, as without the pass
    assert len(cold) <= 20
    assert len(warm) == 30  # every trial, none on the start point or the final score
    rejected = [w for w in warm if w[1]]
    assert len(rejected) == 32 - len(cold)
    cold_impls = {id(impl) for impl, _ in cold}
    assert all((id(impl) in cold_impls) != verdict for impl, verdict, _, _ in warm)
    for _, _, current_fsq, cold_fsq in rejected:
        assert cold_fsq <= current_fsq


@pytest.mark.parametrize(
    "scenario, config",
    [
        (build_spin(3), OptimizeConfig(seed=20021017, **MAXIMIN_BUDGET)),
        (build_spin(4), OptimizeConfig(restarts=0, max_iter=10, seed=2, inner=SearchConfig(restarts=4, max_iter=80, seed=2))),
        (build_boson(1.0), OptimizeConfig(restarts=1, max_iter=20, seed=7, inner=SearchConfig(restarts=4, max_iter=60))),
    ],
    ids=["spin-n3", "spin-n4", "boson-nbar1"],
)
def test_warm_verdict_is_the_verdict_after_every_warm_step(monkeypatch, scenario, config):
    # the warm pass stops at the first step whose lowest F^2 decides the
    # trial; the full WARM_STEPS descent from the same starts decides it
    # the same way, and no trial is rejected whose warm F^2 tops the
    # current point's
    verdicts, early, at_start = [], 0, 0
    current_fsq = {}  # each cold search's F^2, by its final states: a later warm pass's starts

    def cold_spy(impl, search=None):
        res = gate_fidelity(impl, search)
        current_fsq[res.final_states.tobytes()] = res.fidelity_sq
        return res

    def spy(impl, test, search, starts):
        nonlocal early, at_start
        assert search.max_iter == waylab.scenarios.WARM_STEPS
        before = impl._evaluator.evaluations
        verdict = search_meets(impl, test, search, starts)
        used = impl._evaluator.evaluations - before
        before = impl._evaluator.evaluations
        full = _sphere_descent(impl._evaluator, search, starts)[0][:, _FSQ]
        assert verdict == test(_clipped(full.min()))
        assert not test(float(np.nextafter(current_fsq[starts.tobytes()], 2.0)))
        early += used < impl._evaluator.evaluations - before
        at_start += used == len(starts)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(waylab.scenarios, "search_meets", spy)
    monkeypatch.setattr(waylab.scenarios, "gate_fidelity", cold_spy)
    optimize_fidelity(scenario, config)
    assert any(verdicts) and not all(verdicts)
    assert early > 0
    if scenario.label == "spin-n4":
        assert at_start > 0  # rejected before any step


def test_spin2_runs_no_warm_pass(monkeypatch):
    searches, passes = [], []

    def spy(impl, search=None):
        searches.append(impl)
        return gate_fidelity(impl, search)

    monkeypatch.setattr(waylab.scenarios, "gate_fidelity", spy)
    monkeypatch.setattr(waylab.scenarios, "search_meets", lambda *args: passes.append(args))
    run = optimize_fidelity(build_spin(2), OptimizeConfig(restarts=1, max_iter=10, seed=3))
    assert len(searches) == run.evaluations
    assert not passes


def test_random_starts_are_drawn_when_their_turn_comes(monkeypatch):
    # the first search runs before any random start is drawn, at the cap of
    # 4096 starts too; 10^18, which a list would have held before the first
    # search, is refused as a search's restarts are
    scenario = build_spin(2)
    with pytest.raises(ValueError, match=r"restarts must lie in \[0, 4096\], got 1000000000000000000"):
        optimize_fidelity(scenario, OptimizeConfig(restarts=10**18))

    class Reached(Exception):
        pass

    def first_search(impl, search=None):
        raise Reached

    drawn = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, *shape):
            drawn.append(shape)
            return self.rng.standard_normal(*shape)

    monkeypatch.setattr(waylab.scenarios, "gate_fidelity", first_search)
    monkeypatch.setattr(np.random, "default_rng", Counting)
    with pytest.raises(Reached):
        optimize_fidelity(scenario, OptimizeConfig(restarts=waylab.operators.MAX_TOTAL_DIM))
    assert drawn == []


def test_optimize_rejects_bad_initial_points():
    with pytest.raises(ValueError):
        optimize_fidelity(
            build_spin(2),
            OptimizeConfig(restarts=0, max_iter=5, initial_points=((0.0, 0.0),)),
        )


def test_optimize_stops_with_witness_above_ceiling(monkeypatch):
    def perfect(impl, config=None):
        return FidelityResult(1.0, 1.0, 0.0, StateVector.basis(4, 0), 1)

    monkeypatch.setattr(waylab.scenarios, "gate_fidelity", perfect)
    scenario = build_spin(2)
    with pytest.raises(CeilingViolation) as info:
        optimize_fidelity(scenario, OptimizeConfig(restarts=0, max_iter=5))
    exc = info.value
    assert not isinstance(exc, AssertionError)
    assert exc.scenario == "spin-n2"
    assert exc.fidelity_sq == 1.0
    assert exc.ceiling_fsq == pytest.approx(15.0 / 16.0)
    expected = np.clip(
        projected_gate_coefficients(scenario, commutant_basis(scenario.law)), -2 * np.pi, 2 * np.pi
    )
    assert np.allclose(exc.coefficients, expected)


def test_positive_control_x_basis():
    law = ConservationLaw(HilbertSpec((2, 2, 2)), X, X, X)
    model = way_positive_control(X, law)
    assert conservation_residual(model.interaction, law) <= 1e-9
    assert is_precise(model)
    assert is_nondisturbing(model)


def test_positive_control_z_basis():
    law = ConservationLaw(HilbertSpec((2, 2, 2)), Z, Z, Z)
    model = way_positive_control(Z, law)
    assert conservation_residual(model.interaction, law) <= 1e-9
    assert is_precise(model)
    assert is_nondisturbing(model)
    # exactness on a couple of explicit states, not just the predicate
    for amps in ([1.0, 0.0], [0.6, 0.8], [1.0, 1j]):
        psi = StateVector.from_amplitudes(amps)
        assert rms_error(model, psi) <= 1e-12
        assert rms_disturbance(model, psi) <= 1e-12


def test_positive_control_scalar_observable():
    # the degenerate swap construction: P_upper = I, P_lower = 0, so U = I
    scalar = Operator(3.0 * np.eye(2), hermitian=True)
    for charge in (X, Z):
        law = ConservationLaw(HilbertSpec((2, 2, 2)), charge, charge, charge)
        model = way_positive_control(scalar, law)
        np.testing.assert_array_equal(model.interaction.entries, np.eye(8))
        assert conservation_residual(model.interaction, law) == 0.0
        assert is_precise(model)
        assert is_nondisturbing(model)
    # a scalar observable needs the (2,2,2) layout like any other
    with pytest.raises(ValueError, match="qubit object/probe/ancilla"):
        way_positive_control(scalar, ConservationLaw(HilbertSpec((2, 2)), X, X))


def test_positive_control_rejects_noncommuting():
    law = ConservationLaw(HilbertSpec((2, 2, 2)), X, X, X)
    with pytest.raises(ValueError):
        way_positive_control(Z, law)
