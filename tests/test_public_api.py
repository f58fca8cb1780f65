"""The public surface, pinned: what the CLI, the scenarios, the benchmark
and the test oracles use, and nothing that only tests call.

A name added to an ``__all__`` has to be added here too, which is the
point: test-only helpers belong in ``tests/oracles.py``.
"""

import importlib

import pytest

import waylab

MODULE_ALL = {
    "operators": {
        "FLAG_TOL", "UNITARY_TOL", "DEGENERACY_TOL", "HilbertSpec", "Operator", "StateVector",
        "tensor_states", "commutator", "evolved_stack", "expectation", "std_dev",
        "stacked_moments", "inner_products", "operator_norm", "operator_norms", "zero",
    },
    "measurement": {
        "IndirectMeasurementModel", "CertificationResult",
        "noise_images", "stacked_noise_images", "rms_error", "rms_disturbance",
        "is_precise", "is_nondisturbing",
    },
    "conservation": {
        "ConservationError", "ConservationLaw", "CommutantBasis",
        "conservation_residual", "commutant_basis", "commutant_bases",
        "conserving_unitary", "conserving_unitaries",
    },
    "bounds": {
        "BoundReport", "bound_ingredients", "identity_reports", "stacked_identity_reports",
        "require_conserving", "trade_off_reports", "stacked_trade_off_reports", "qway_bounds", "summed_bound", "fundamental_bound",
        "reports_to_csv",
    },
    "cnot": {
        "GateImplementation", "SearchConfig", "FidelityResult", "cnot_unitary", "pauli",
        "state_fidelity", "gate_fidelity", "search_meets", "measurement_view", "noise_fidelity_link",
        "l3_moments", "sigma_ceiling_fsq",
        "implementation_to_json", "implementation_from_json",
    },
    "scenarios": {
        "TAIL_TOL", "CEILING_TOL", "Scenario", "OptimizeConfig",
        "OptimizationRun", "CeilingViolation", "build_spin", "build_boson", "boson_reports",
        "optimize_fidelity", "way_positive_control",
    },
    "sampling": {
        "DEFAULT_STRENGTH", "random_state", "random_conserving_model",
        "random_conserving_models", "random_conserving_implementation",
    },
    "serialize": {
        "operator_to_json", "operator_from_json", "state_to_json", "state_from_json",
        "spec_to_json", "spec_from_json", "law_to_json", "law_from_json",
        "model_to_json", "model_from_json", "canonical_json", "digest", "digests",
    },
}

PACKAGE_ALL = {
    "HilbertSpec", "Operator", "StateVector", "commutator", "expectation",
    "operator_norm", "std_dev", "tensor_states", "zero",
    "CertificationResult", "IndirectMeasurementModel",
    "is_nondisturbing", "is_precise", "rms_disturbance", "rms_error",
    "CommutantBasis", "ConservationError", "ConservationLaw", "commutant_basis",
    "conservation_residual", "conserving_unitary",
    "BoundReport", "identity_reports", "trade_off_reports",
    "FidelityResult", "GateImplementation", "SearchConfig", "cnot_unitary",
    "gate_fidelity", "measurement_view", "noise_fidelity_link", "pauli",
    "OptimizationRun", "OptimizeConfig", "Scenario", "boson_reports",
    "build_boson", "build_spin", "optimize_fidelity", "way_positive_control",
    "__version__",
}


def test_package_all_is_pinned():
    assert len(waylab.__all__) == len(set(waylab.__all__))
    assert set(waylab.__all__) == PACKAGE_ALL
    for name in waylab.__all__:
        assert hasattr(waylab, name), name


@pytest.mark.parametrize("module", sorted(MODULE_ALL))
def test_module_all_is_pinned(module):
    mod = importlib.import_module(f"waylab.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    assert set(mod.__all__) == MODULE_ALL[module]
    for name in mod.__all__:
        assert hasattr(mod, name), name


@pytest.mark.parametrize(
    "module, name",
    [("bounds", "qway_bounds"), ("bounds", "summed_bound"), ("bounds", "fundamental_bound"),
     ("cnot", "state_fidelity")],
)
def test_benchmark_bound_names_resolve_by_module_path(module, name):
    # the benchmark binds these by module path; they left the package namespace only
    assert not hasattr(waylab, name)
    assert callable(getattr(importlib.import_module(f"waylab.{module}"), name))
