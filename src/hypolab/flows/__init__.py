"""State, Jacobian, and inverse flows with Malliavin-covariance quadrature."""
from .brownian import BrownianGrid, sample_brownian, standard_normal_stream
from .integrals import (
    RemainderEnergy,
    chaos_remainder,
    chaos_remainder_path,
    expansion_coefficients,
    iterated_integral,
    pullback_process,
)
from .probes import AssumptionProbe, MomentProbe, assumption_probe, moment_probe
from .simulate import (
    SCHEMES,
    EnsembleResult,
    FlowTrajectory,
    RecordSpec,
    SimConfig,
    Trajectory,
    malliavin_checkpoint_ensemble,
    malliavin_derivative,
    nearest_index,
    run_ensemble,
    simulate_flow,
    simulate_x,
)

__all__ = [
    "BrownianGrid",
    "sample_brownian",
    "standard_normal_stream",
    "SCHEMES",
    "SimConfig",
    "Trajectory",
    "FlowTrajectory",
    "RecordSpec",
    "EnsembleResult",
    "simulate_x",
    "simulate_flow",
    "run_ensemble",
    "malliavin_derivative",
    "malliavin_checkpoint_ensemble",
    "nearest_index",
    "iterated_integral",
    "pullback_process",
    "chaos_remainder",
    "chaos_remainder_path",
    "expansion_coefficients",
    "RemainderEnergy",
    "AssumptionProbe",
    "assumption_probe",
    "MomentProbe",
    "moment_probe",
]
