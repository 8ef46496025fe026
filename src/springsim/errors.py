"""Exception types shared across the package.

Constructor/type-invariant violations raise plain ``ValueError``;
everything that can go wrong during an *operation* (I/O, fitting,
integration, experiment orchestration) derives from ``SpringSimError``
so the CLI can map it to exit code 1. The tree is flat: the only bases
in between are those a caller catches (SimulationError, ConfigError).
"""


class SpringSimError(Exception):
    """Base class for all domain errors."""


# --- files and trajectory logs ---------------------------------------------


class IoFailure(SpringSimError):
    def __init__(self, path, cause):
        super().__init__(f"I/O error on {path}: {cause}")
        self.path = path


class MissingFile(SpringSimError):
    def __init__(self, path):
        super().__init__(f"trajectory file not found: {path}")
        self.path = path


class EmptyFile(SpringSimError):
    def __init__(self, path, detail="no data rows"):
        super().__init__(f"{path}: {detail}")
        self.path = path


class MalformedRow(SpringSimError):
    def __init__(self, path, line_no, detail):
        super().__init__(f"{path}:{line_no}: {detail}")
        self.path = path
        self.line_no = line_no


class NonUniformTimestep(SpringSimError):
    """Timestamp i+1 deviates from the uniform grid by more than 1e-9 s."""

    def __init__(self, index, detail="", path=None):
        msg = f"non-uniform timestep at sample index {index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg if path is None else f"{path}: {msg}")
        self.index = index
        self.detail = detail
        self.path = path


# --- fitting ----------------------------------------------------------------


class DegenerateTrajectory(SpringSimError):
    """Angle variance is ~0: the spring parameters are underdetermined."""


# --- kinematics -------------------------------------------------------------


class OutOfRange(SpringSimError):
    """Knee angle outside the valid interior range (0, pi]."""

    def __init__(self, theta):
        super().__init__(f"knee angle {theta!r} outside (0, pi]")
        self.theta = theta


class Unreachable(SpringSimError):
    """Requested base height outside (0, 2L]."""

    def __init__(self, h, max_h):
        super().__init__(f"height {h!r} unreachable (must be in (0, {max_h}])")
        self.h = h


# --- simulation -------------------------------------------------------------


class SimulationError(SpringSimError):
    """Base class for integration failures."""


class SingularConfiguration(SimulationError):
    """|dh/dtheta| below tolerance: reflected inertia degenerates."""

    def __init__(self, theta, t):
        super().__init__(
            f"singular/invalid configuration theta={theta!r} at t={t:.6f} s"
        )
        self.theta = theta
        self.t = t


class NonFiniteState(SimulationError):
    def __init__(self, t):
        super().__init__(f"state became non-finite at t={t:.6f} s")
        self.t = t


# --- experiment harness -----------------------------------------------------


class MissingTrace(SpringSimError):
    def __init__(self, path):
        super().__init__(f"trace file not found: {path}")
        self.path = path


class ConfigError(SpringSimError):
    """Malformed experiment/run configuration file."""


class EmptySpecList(ConfigError):
    """No experiments to run: a usage error (CLI exit code 2)."""
