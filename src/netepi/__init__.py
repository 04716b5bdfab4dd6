"""Deterministic ODE models of spreading processes on heterogeneous,
fully rewiring random networks, cross-validated against an agent-based
Monte-Carlo simulator."""

from .abm import (
    EnsembleSummary,
    NetworkRealization,
    generate_network,
    run_ensemble,
    simulate_epidemic,
    summarize_trajectories,
)
from .analysis import (
    CoverageReport,
    FitResult,
    SobolResult,
    compare_ode_abm,
    fit_parameters,
    phase_series,
    sobol_first_order,
)
from .config import SimulationSpec, parse_config, parse_config_data, run_trajectory
from .degree import (
    DegreeDistribution,
    from_weights,
    mean_degree,
    sample_degrees,
    truncated_power_law,
)
from .errors import ConfigError, DomainError, NetepiError, StabilityError
from .mixing import LinkProbabilities
from .ode import (
    CompartmentModel,
    EpidemicParams,
    Trajectory,
    TreatmentSchedule,
    build_model,
    integrate,
)

__version__ = "0.1.0"
