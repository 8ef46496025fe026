"""springsim: parallel torsion-spring fitting and energy experiments.

Simulates a vertically guided two-link robot leg under PD trajectory
control, fits the energy-optimal parallel torsion spring (stiffness and
equilibrium angle) to the logged knee trajectory in closed form, reruns
with the spring, and reports the energy reduction.

See README.md for the angle/torque conventions and the CLI.
"""

from .errors import (
    ConfigError,
    DegenerateTrajectory,
    EmptyFile,
    EmptySpecList,
    IoFailure,
    MalformedRow,
    MissingFile,
    MissingTrace,
    NonFiniteState,
    NonUniformTimestep,
    OutOfRange,
    SimulationError,
    SingularConfiguration,
    SpringSimError,
    Unreachable,
)
from .fitting import (
    EnergyModel,
    FitDiagnostics,
    WindowState,
    energy,
    fit_optimal,
    stationarity_residual,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    GridReport,
    export_traces_from_dir,
    fit_external,
    load_report,
    load_run_config,
    load_specs_file,
    paper_table,
    run_experiment,
    run_grid,
    save_specs_file,
)
from .leg import (
    LegGeometry,
    fk_height,
    gravity_knee_torque,
    ik_angle,
    jacobian,
    reference_height,
)
from .simulator import ControllerConfig, SimConfig, SimState, initial_state, run, step
from .trajectory import (
    Sample,
    SpringParams,
    Trajectory,
    load_trajectory,
    save_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ControllerConfig",
    "DegenerateTrajectory",
    "EmptyFile",
    "EmptySpecList",
    "EnergyModel",
    "ExperimentResult",
    "ExperimentSpec",
    "FitDiagnostics",
    "GridReport",
    "IoFailure",
    "LegGeometry",
    "MalformedRow",
    "MissingFile",
    "MissingTrace",
    "NonFiniteState",
    "NonUniformTimestep",
    "OutOfRange",
    "Sample",
    "SimConfig",
    "SimState",
    "SimulationError",
    "SingularConfiguration",
    "SpringParams",
    "SpringSimError",
    "Trajectory",
    "Unreachable",
    "WindowState",
    "energy",
    "export_traces_from_dir",
    "fit_external",
    "fit_optimal",
    "fk_height",
    "gravity_knee_torque",
    "ik_angle",
    "initial_state",
    "jacobian",
    "load_report",
    "load_run_config",
    "load_specs_file",
    "load_trajectory",
    "paper_table",
    "reference_height",
    "run",
    "run_experiment",
    "run_grid",
    "save_specs_file",
    "save_trajectory",
    "stationarity_residual",
    "step",
]
