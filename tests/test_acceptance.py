"""End-to-end acceptance suite.

One test per contract; each prints a single verdict line of the form

    [acceptance] criterion N (name): PASS -- detail

directly to the terminal (bypassing capture) so the run leaves an
auditable trail even when everything is green.  Budgets are sized so
the whole file finishes in a few minutes on one core.
"""

import time

import numpy as np

from waylab import (
    ConservationLaw,
    GateImplementation,
    HilbertSpec,
    Operator,
    SearchConfig,
    StateVector,
    boson_reports,
    build_boson,
    build_spin,
    cnot_unitary,
    commutant_basis,
    commutator,
    conservation_residual,
    conserving_unitary,
    expectation,
    gate_fidelity,
    identity_reports,
    is_nondisturbing,
    is_precise,
    measurement_view,
    noise_fidelity_link,
    pauli,
    std_dev,
    trade_off_reports,
    way_positive_control,
)
from waylab.sampling import (
    random_conserving_implementation,
    random_conserving_model,
    random_hermitian,
    random_state,
)
from waylab.scenarios import (
    FINAL_SEARCH,
    OptimizeConfig,
    ceiling_qubit,
    optimize_fidelity,
    projected_gate_coefficients,
)

from oracles import expm_skew, grid_search_fidelity, kraus_lower_fsq, outcome_distribution

X = pauli("X")
SPEC22 = HilbertSpec((2, 2))
LAW22 = ConservationLaw(SPEC22, X, X)


def _announce(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_identities_on_random_conserving_models(capsys):
    # both operator identities, machine precision, across system shapes
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for spec in (HilbertSpec((2, 2)), HilbertSpec((2, 2, 2)), HilbertSpec((2, 2, 4))):
        for k in range(34):
            model, law = random_conserving_model(1000 + 97 * k + spec.total_dim, spec)
            for report in identity_reports(model, law):
                worst = max(worst, report.lhs)
            count += 1
    ok = worst <= 1e-9 and count >= 100
    _announce(
        capsys, 1, "commutation identities", ok,
        f"{count} models, worst residual {worst:.3e}, {time.perf_counter()-t0:.1f}s",
    )


def test_criterion_2_trade_off_bounds_on_random_triples(capsys):
    t0 = time.perf_counter()
    worst = np.inf
    count = 0
    plan = (
        (HilbertSpec((2, 2)), 500),
        (HilbertSpec((2, 2, 2)), 400),
        (HilbertSpec((2, 2, 4)), 100),
    )
    for spec, per in plan:
        rng = np.random.default_rng(spec.total_dim)
        for k in range(per):
            model, law = random_conserving_model(5_000_000 + k + spec.total_dim * 131, spec)
            psi = random_state(rng, spec.object_dim)
            reports = trade_off_reports(model, law, psi)
            worst = min(worst, min(r.slack for r in reports))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9 and count >= 1000 and elapsed < 60.0
    _announce(
        capsys, 2, "trade-off bounds", ok,
        f"{count} triples x 4 relations, worst slack {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_3_ideal_gate_is_a_perfect_control_meter(capsys):
    # the exact gate, read as a measurement of the control in the
    # computational basis, has zero error and zero disturbance, and the
    # pointer statistics after the interaction reproduce the statistics
    # the control had before it
    view = measurement_view(GateImplementation(SPEC22, cnot_unitary()))
    worst_noise = max(is_precise(view).worst_value, is_nondisturbing(view).worst_value)
    rng = np.random.default_rng(3)
    states = [StateVector.basis(2, 0), StateVector.basis(2, 1)]
    states += [StateVector.from_amplitudes([1.0, ph]) for ph in (1.0, -1.0, 1.0j, -1.0j)]
    states += [random_state(rng, 2) for _ in range(8)]
    worst_prob = 0.0
    for psi in states:
        before = outcome_distribution(view, psi, "measured", evolved=False)
        after = outcome_distribution(view, psi, "pointer", evolved=True)
        assert before.outcomes == after.outcomes
        for p, q in zip(before.probabilities, after.probabilities):
            worst_prob = max(worst_prob, abs(p - q))
    ok = worst_noise <= 1e-12 and worst_prob <= 1e-10
    _announce(
        capsys, 3, "ideal-gate meter", ok,
        f"exact worst eps/eta {worst_noise:.2e}, "
        f"worst probability gap {worst_prob:.2e} over {len(states)} states",
    )


def test_criterion_4_spin_ceilings_respected_by_search(capsys):
    # the ceiling for two spins must be the exact dyadic 15/16, every
    # candidate evaluated during the search must sit below ceiling+tol,
    # and the best value found is reported as data, not asserted
    assert ceiling_qubit(2) == 1.0 - 1.0 / 16.0
    assert 1.0 - ceiling_qubit(2) == 1.0 / 16.0
    results = {}
    for n, max_iter, seed in ((2, 30, 11), (3, 90, 12)):
        t0 = time.perf_counter()
        cfg = OptimizeConfig(
            restarts=1, max_iter=max_iter, seed=seed,
            inner=SearchConfig(restarts=4, max_iter=80, seed=seed),
        )
        run = optimize_fidelity(build_spin(n), cfg)
        assert run.ceiling_fsq == ceiling_qubit(n)
        results[n] = (run, time.perf_counter() - t0)
    ok = all(run.min_gap_evaluated >= -1e-9 for run, _ in results.values())
    # more conserved room (a larger commutant) must help: the best
    # three-spin implementation beats the best two-spin one, certainly.
    # n=2 has no ancilla, so its value is exact; n=3's certified lower
    # value must clear it
    ok = ok and results[2][0].best_fidelity_sq_lower == results[2][0].best_fidelity_sq
    ok = ok and results[3][0].best_fidelity_sq_lower > results[2][0].best_fidelity_sq
    detail = ", ".join(
        f"n={n}: best F^2={run.best_fidelity_sq:.4f} (certified >= {run.best_fidelity_sq_lower:.4f}) "
        f"of ceiling {run.ceiling_fsq:.4f} ({run.evaluations} evals, {dt:.0f}s)"
        for n, (run, dt) in sorted(results.items())
    )
    _announce(capsys, 4, "spin fidelity ceilings", ok, detail)


def test_criterion_5_noise_fidelity_link_on_conserving_implementations(capsys):
    t0 = time.perf_counter()
    basis = commutant_basis(LAW22)
    worst = np.inf
    count = 0
    for k in range(200):
        impl = random_conserving_implementation(777 + k, LAW22, basis=basis)
        fidelity = gate_fidelity(impl, SearchConfig(restarts=4, max_iter=80, seed=k))
        reports = noise_fidelity_link(impl, LAW22, fidelity=fidelity)  # the circular candidate
        # the squared-noise and fidelity-link slacks at |+>, by the chain's
        # own formulas from its plus_ ingredients; the sigma ceiling is one
        d = reports[0].details
        plus_noise = d["plus_eps"] ** 2 + d["plus_eta"] ** 2
        plus_squared = d["plus_commutator_abs"] ** 2 / (2.0 * (2.0 + d["plus_sigma_l3"]) ** 2)
        plus_slacks = (plus_noise - plus_squared, 8.0 * (1.0 - d["fidelity_sq"]) - plus_noise)
        worst = min(worst, *(report.slack for report in reports), *plus_slacks)
        count += 1
    ok = worst >= -1e-9 and count >= 200
    _announce(
        capsys, 5, "noise-to-fidelity link", ok,
        f"{count} implementations x 2 control states, worst slack {worst:.3e}, "
        f"{time.perf_counter()-t0:.1f}s",
    )


def test_criterion_6_boson_ceilings(capsys):
    # the deviation-form ceiling is rigorous for the truncated coherent
    # ancilla and must hold for every sampled implementation; the
    # 2*sqrt(<N>+2) cap on the evolved ancilla charge and the 1-1/(16 nbar)
    # form rest on untruncated coherent-state algebra, so their per-seed
    # outcomes are reported as findings rather than asserted
    t0 = time.perf_counter()
    rigorous_ok = True
    findings = []
    for nbar in (1.0, 2.0, 4.0):
        scenario = build_boson(nbar, 1e-10)
        basis = commutant_basis(scenario.law)
        sigma_pass = nbar_pass = total = 0
        for k in range(2):
            impl = random_conserving_implementation(
                9000 + 17 * k + int(nbar), scenario.law, basis=basis,
                ancilla_state=scenario.ancilla_state,
            )
            result = gate_fidelity(impl, SearchConfig(restarts=4, max_iter=80, seed=k))
            _, sig, _ = boson_reports(impl, scenario, result)
            sigma = sig.details["sigma_l3_evolved"]
            ceiling = 1.0 - 1.0 / (4.0 * (2.0 + sigma) ** 2)
            rigorous_ok = rigorous_ok and result.fidelity_sq <= ceiling + 1e-9
            total += 1
            sigma_pass += bool(sig.passed(1e-9))
            nbar_pass += bool(result.fidelity_sq <= scenario.ceiling_fsq + 1e-9)
        findings.append(
            f"nbar={nbar:g}: sigma-cap {sigma_pass}/{total}, nbar-form {nbar_pass}/{total}"
        )
    _announce(
        capsys, 6, "boson ceilings", rigorous_ok,
        f"deviation-form ceiling held on all samples; findings: "
        + "; ".join(findings) + f"; {time.perf_counter()-t0:.1f}s",
    )


def test_criterion_7_positive_control(capsys):
    # an observable commuting with the charge is measurable exactly and
    # without disturbance by a conserving interaction
    law = ConservationLaw(HilbertSpec((2, 2, 2)), X, X, X)
    model = way_positive_control(X, law)
    residual = conservation_residual(model.interaction, law)
    precise = is_precise(model)
    nondisturbing = is_nondisturbing(model)
    ok = residual <= 1e-9 and bool(precise) and bool(nondisturbing)
    _announce(
        capsys, 7, "positive control", ok,
        f"conservation residual {residual:.2e}, worst eps {precise.worst_value:.2e}, "
        f"worst eta {nondisturbing.worst_value:.2e}",
    )


def test_criterion_8_deviation_product_floor(capsys):
    # sigma(A) sigma(B) >= |<[A, B]>| / 2 on random pairs and states
    rng = np.random.default_rng(8)
    worst = np.inf
    count = 0
    while count < 1000:
        dim = int(rng.integers(2, 17))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        lhs = std_dev(a, psi) * std_dev(b, psi)
        rhs = 0.5 * abs(expectation(commutator(a, b), psi))
        worst = min(worst, lhs - rhs)
        count += 1
    ok = worst >= -1e-10
    _announce(
        capsys, 8, "deviation product floor", ok,
        f"{count} pairs on dims 2-16, worst margin {worst:.3e}",
    )


def test_criterion_9_search_matches_grid_oracle(capsys):
    # the adaptive search and an exhaustive lattice sweep are
    # independent routes to the same worst-case fidelity
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    cases = [expm_skew(random_hermitian(rng, 4)) for _ in range(3)]
    cases.append(
        Operator(cnot_unitary().entries @ np.diag([1, 1, 1, np.exp(0.9j)]), unitary=True)
    )
    basis = commutant_basis(LAW22)
    cases.append(conserving_unitary(basis, np.random.default_rng(5).standard_normal(basis.generator_count)))
    worst_gap = 0.0
    for i, u in enumerate(cases):
        impl = GateImplementation(SPEC22, u)
        f_grid, witness = grid_search_fidelity(impl, zoom_rounds=5)
        f_opt = gate_fidelity(impl, SearchConfig(restarts=24, max_iter=300, seed=i)).fidelity
        worst_gap = max(worst_gap, abs(f_grid - f_opt))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-4 and elapsed < 300.0
    _announce(
        capsys, 9, "search vs grid oracle", ok,
        f"{len(cases)} two-spin instances, worst |grid - search| {worst_gap:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_ancilla_search_meets_an_independent_lower_value(capsys):
    # with an ancilla the descent estimates min F^2 from above; the grid
    # lattice is a second estimate from above, and the Kraus-form lower
    # value at the search's worst state bounds it from below.  At the
    # maximin optima all three must meet.
    t0 = time.perf_counter()
    seed = int(np.random.SeedSequence(20021017).generate_state(1)[0])
    cfg = OptimizeConfig(restarts=0, max_iter=30, seed=seed, inner=SearchConfig(restarts=4, max_iter=80))
    worst_gap = worst_grid = 0.0
    ok = True
    names = []
    for name, scenario in (("n=3", build_spin(3)), ("n=4", build_spin(4)), ("nbar=1", build_boson(1.0))):
        basis = commutant_basis(scenario.law)
        run = optimize_fidelity(scenario, cfg)
        u = conserving_unitary(basis, np.array(run.coefficients))
        impl = GateImplementation(scenario.spec, u, scenario.ancilla_state)
        res = gate_fidelity(impl, FINAL_SEARCH)
        lower = kraus_lower_fsq(impl, res.worst_state)
        f_grid, _ = grid_search_fidelity(impl, zoom_rounds=5)
        ok = ok and lower <= f_grid**2 + 1e-12 and abs(f_grid - res.fidelity) <= 1e-4
        worst_gap = max(worst_gap, res.fidelity_sq - lower)
        worst_grid = max(worst_grid, abs(f_grid - res.fidelity))
        names.append(f"{name} F^2={res.fidelity_sq:.4f}")
    ok = ok and worst_gap <= 1e-9
    # off the optima the lower value need not close, but it must stay below
    scenario = build_spin(3)
    basis = commutant_basis(scenario.law)
    center = projected_gate_coefficients(scenario, basis)
    rng = np.random.default_rng(3)
    for _ in range(2):
        u = conserving_unitary(basis, center + 0.3 * rng.standard_normal(center.size))
        impl = GateImplementation(scenario.spec, u, scenario.ancilla_state)
        res = gate_fidelity(impl, FINAL_SEARCH)
        ok = ok and kraus_lower_fsq(impl, res.worst_state) <= res.fidelity_sq + 1e-12
    # about 10 s on one core, nearly all of it the three grid sweeps; the
    # bound leaves room for a loaded machine
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _announce(
        capsys, 10, "ancilla search vs independent routes", ok,
        f"optima {', '.join(names)}: worst search - lower {worst_gap:.1e}, "
        f"worst |grid - search| {worst_grid:.1e}; 2 perturbed n=3 gates; {elapsed:.1f}s",
    )
