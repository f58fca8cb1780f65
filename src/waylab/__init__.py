"""Numerical laboratory for conservation-law limits on quantum measurement.

The package builds finite-dimensional indirect measurement models
(object, probe, optional ancilla factors), checks operator identities
that follow from additive conservation laws, evaluates the resulting
error/disturbance trade-off bounds, and searches for the best CNOT
gate fidelity attainable when the interaction must commute with a
conserved quantity.
"""

from types import ModuleType as _Module

from .operators import (
    HilbertSpec,
    Operator,
    StateVector,
    commutator,
    expectation,
    operator_norm,
    std_dev,
    tensor_states,
    zero,
)
from .measurement import (
    CertificationResult,
    IndirectMeasurementModel,
    is_nondisturbing,
    is_precise,
    rms_disturbance,
    rms_error,
)
from .conservation import (
    CommutantBasis,
    ConservationError,
    ConservationLaw,
    commutant_basis,
    conservation_residual,
    conserving_unitary,
)
from .bounds import BoundReport, identity_reports, trade_off_reports
from .cnot import (
    FidelityResult,
    GateImplementation,
    SearchConfig,
    cnot_unitary,
    gate_fidelity,
    measurement_view,
    noise_fidelity_link,
    pauli,
)
from .scenarios import (
    OptimizationRun,
    OptimizeConfig,
    Scenario,
    boson_reports,
    build_boson,
    build_spin,
    optimize_fidelity,
    way_positive_control,
)

__version__ = "0.1.0"

# The imports above are the one list of public names; the submodules they bind are not.
__all__ = [
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _Module))
] + ["__version__"]
