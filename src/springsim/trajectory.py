"""Sampled knee trajectories and their on-disk CSV format.

A trajectory is a uniformly sampled series of (time, knee angle, motor
torque). It is the common currency of the package: the simulator emits
one, the spring fitter consumes one, and the CSV format defined here is
the interchange format for external (real-robot) logs.

Conventions
-----------
* ``alpha`` is the interior knee angle in radians (straight leg = pi).
* ``tau`` is the knee motor torque in N*m, **flexion-positive**: positive
  torque drives the knee toward folding (lowers the base). Holding a
  load up therefore logs *negative* torque. This orientation makes the
  load-compensating spring fit come out with positive stiffness.
* ``dt`` is stored once; timestamps must lie on a uniform grid to within
  1e-9 s. Construction from non-uniform data is rejected, never
  silently resampled.

File format: CSV with header ``t,alpha_rad,tau_Nm``, one sample per
line, decimal points, newline-terminated. Floats are written with
``repr`` so that load(save(x)) reproduces every field exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from ._fileio import atomic_write, float_rows, read_file
from .errors import (
    EmptyFile,
    MalformedRow,
    MissingFile,
    NonUniformTimestep,
)

CSV_HEADER = "t,alpha_rad,tau_Nm"

#: Maximum tolerated deviation of a timestamp from the uniform grid [s].
TIMESTEP_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Sample:
    """One trajectory sample.

    Attributes:
        t: Time since the start of the log [s].
        alpha: Interior knee angle [rad].
        tau: Knee motor torque [N*m], flexion-positive.
    """

    t: float
    alpha: float
    tau: float

    def __post_init__(self) -> None:
        for name in ("t", "alpha", "tau"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Sample.{name} must be finite, got {v!r}")


@dataclass(frozen=True, slots=True)
class SpringParams:
    """Linear torsion spring: stiffness and equilibrium angle.

    The spring exerts ``mu * (alpha - alpha0)`` of flexion-positive
    torque, i.e. it carries that much of the logged motor torque.

    Attributes:
        mu: Torsional stiffness [N*m/rad]. Must be >= 0 (a physical
            spring); fitters report negative candidates only through
            :class:`~springsim.fitting.FitDiagnostics`.
        alpha0: Equilibrium angle [rad] (zero spring torque there). May
            lie outside the leg's motion range (a pre-wound spring).
    """

    mu: float
    alpha0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError(f"spring stiffness must be finite and >= 0, got {self.mu!r}")
        if not math.isfinite(self.alpha0):
            raise ValueError(f"spring equilibrium must be finite, got {self.alpha0!r}")


class Trajectory:
    """Immutable, uniformly sampled (t, alpha, tau) series.

    Backed by read-only float64 arrays; safe to share across threads.

    Args:
        t: Timestamps [s], strictly increasing on a uniform grid.
        alpha: Knee angles [rad].
        tau: Motor torques [N*m], flexion-positive.
        dt: Sampling interval [s]. Inferred from ``t[1] - t[0]`` when
            omitted (requires >= 2 samples).

    Raises:
        ValueError: Empty input, non-finite values, bad ``dt``.
        NonUniformTimestep: Some timestamp deviates from the uniform
            grid by more than 1e-9 s, or ``dt`` is inferred and the first
            two timestamps do not increase.
    """

    __slots__ = ("t", "alpha", "tau", "dt")

    def __init__(self, t, alpha, tau, dt: float | None = None):
        t = np.ascontiguousarray(t, dtype=np.float64)
        alpha = np.ascontiguousarray(alpha, dtype=np.float64)
        tau = np.ascontiguousarray(tau, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("trajectory needs at least one sample")
        if alpha.shape != t.shape or tau.shape != t.shape:
            raise ValueError(
                f"shape mismatch: t{t.shape}, alpha{alpha.shape}, tau{tau.shape}"
            )
        for name, arr in (("t", t), ("alpha", alpha), ("tau", tau)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite value in {name}")
        if dt is None:
            if t.size < 2:
                raise ValueError("dt must be given explicitly for a 1-sample trajectory")
            dt = float(t[1] - t[0])
            if not dt > 0.0:
                raise NonUniformTimestep(1, f"t[1]-t[0]={dt!r} is not positive")
        dt = float(dt)
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be positive, got {dt!r}")
        steps = np.diff(t)
        off = np.abs(steps - dt)
        if off.size and float(off.max()) > TIMESTEP_TOL:
            bad = int(np.argmax(off > TIMESTEP_TOL)) + 1
            raise NonUniformTimestep(
                bad, f"t[{bad}]-t[{bad - 1}]={steps[bad - 1]!r} vs dt={dt!r}"
            )
        for arr in (t, alpha, tau):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "dt", dt)

    def __setattr__(self, name, value):
        raise AttributeError("Trajectory is immutable")

    def __len__(self) -> int:
        return int(self.t.size)

    def __iter__(self) -> Iterator[Sample]:
        for i in range(len(self)):
            yield Sample(float(self.t[i]), float(self.alpha[i]), float(self.tau[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.dt == other.dt
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.tau, other.tau)
        )

    def __repr__(self) -> str:
        return f"Trajectory(n={len(self)}, dt={self.dt!r}, duration={self.t[-1] - self.t[0]:.3f}s)"


def save_trajectory(traj: Trajectory, path) -> None:
    """Write ``traj`` as CSV (atomically: temp file + rename).

    Raises:
        IoFailure: On any OS-level write problem.
    """
    atomic_write(
        path, float_rows(CSV_HEADER, traj.t.tolist(), traj.alpha.tolist(), traj.tau.tolist())
    )


#: Every byte a number in a well-formed log can contain: what
#: :func:`repr` writes for a finite float.
_NUMBER_BYTES = b"0123456789+-.eE"


def _parse_bulk(data: bytes) -> np.ndarray | None:
    """The cells of a well-formed log, row-major, or None to defer.

    Well-formed: the exact header line, then at least two lines that
    each hold three finite numbers made of :data:`_NUMBER_BYTES` only,
    each line ending in a newline. Anything else -- blank lines, CRLF,
    spaces, ``nan``, ``1_0``, non-ASCII bytes -- returns None, and the
    per-line parser decides. numpy parses such cells to the same floats
    as ``float()``.
    """
    header = CSV_HEADER.encode() + b"\n"
    if not data.startswith(header):
        return None
    body = data[len(header):]
    n = body.count(b"\n")
    if n < 2 or body.translate(None, _NUMBER_BYTES) != b",,\n" * n:
        return None
    try:
        with warnings.catch_warnings():
            # older numpy warns, rather than raises, on a cell it cannot parse
            warnings.simplefilter("error")
            values = np.fromstring(body.replace(b"\n", b","), sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != 3 * n or not np.isfinite(values).all():
        return None
    return values


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV written by :func:`save_trajectory`.

    ``dt`` is inferred from the first two timestamps, then the uniform
    grid invariant is validated for the whole file. A well-formed file
    is parsed in bulk; any other goes through :func:`_load_strict`, the
    per-line parser, which alone decides what is accepted and which
    error is raised.

    Raises:
        MissingFile: ``path`` is not a regular file.
        IoFailure: ``path`` could not be read.
        EmptyFile: No data rows, or a single row (dt not inferable).
        MalformedRow: Wrong column count or unparsable number
            (exception carries the 1-based line number).
        NonUniformTimestep: Grid invariant violated (carries the sample
            index of the first offending step).
    """
    path = Path(path)
    data = read_file(path, MissingFile(path))
    values = _parse_bulk(data)
    if values is None:
        return _load_strict(path, data)
    del data  # not held while the arrays are built: it sets a large log's peak RSS
    return Trajectory(values[0::3], values[1::3], values[2::3])


def _load_strict(path, data: bytes) -> Trajectory:
    """Per-line parser of ``path``'s bytes: the specification of :func:`load_trajectory`."""
    # A byte that is not UTF-8 decodes to a lone surrogate, which no
    # number or header matches: its line is reported as malformed.
    lines = data.decode("utf-8", "surrogateescape").splitlines()
    if not lines:
        raise EmptyFile(path)
    header = lines[0].strip()
    if header != CSV_HEADER:
        raise MalformedRow(path, 1, f"expected header {CSV_HEADER!r}, got {header!r}")
    t, alpha, tau = [], [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedRow(path, line_no, f"expected 3 columns, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise MalformedRow(path, line_no, str(exc)) from exc
        if not all(math.isfinite(v) for v in row):
            raise MalformedRow(path, line_no, "non-finite value")
        t.append(row[0])
        alpha.append(row[1])
        tau.append(row[2])
    if not t:
        raise EmptyFile(path)
    if len(t) < 2:
        raise EmptyFile(path, "fewer than 2 data rows (dt cannot be inferred)")
    return Trajectory(t, alpha, tau)
