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
line, decimal points, newline-terminated. Floats are written byte for
byte as ``repr`` writes them, so that load(save(x)) reproduces every
field exactly; the file is written a block of rows at a time, in memory
that does not grow with the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np
import orjson

from ._fileio import atomic_write, float_rows, open_input
from .errors import (
    EmptyFile,
    MalformedRow,
    MissingFile,
    NonUniformTimestep,
)

CSV_HEADER = "t,alpha_rad,tau_Nm"

#: Maximum tolerated deviation of a timestamp from the uniform grid [s].
TIMESTEP_TOL = 1e-9

#: Elements of ``t`` that :class:`Trajectory` feeds its grid check at a
#: time, so that the check's temporaries do not grow with the series.
_CHECK_BLOCK = 8192


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
            # min and max are NaN if any element is, and +-inf if any is
            if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
                raise ValueError(f"non-finite value in {name}")
        if dt is None and t.size < 2:
            raise ValueError("dt must be given explicitly for a 1-sample trajectory")
        grid = _Grid(dt)
        for i in range(0, t.size, _CHECK_BLOCK):
            grid.feed(t[i : i + _CHECK_BLOCK])
        for arr in (t, alpha, tau):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "dt", grid.dt)

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


class _Grid:
    """The uniform-grid check of :class:`Trajectory`, fed the finite
    timestamps of a series in order, a piece of any length at a time.

    :meth:`feed` raises what :class:`Trajectory` raises for the series
    at the first timestamp off its grid, with the same index and detail.
    ``dt`` is the one given or, once two timestamps are in, the one
    inferred from them; the last timestamp carries over to the next piece.

    Raises:
        ValueError: ``dt`` is given and is not finite and positive.
    """

    __slots__ = ("dt", "_n", "_last")

    def __init__(self, dt: float | None = None):
        self.dt = None if dt is None else float(dt)
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        self._n = 0  # timestamps fed so far
        self._last = 0.0  # the last of them

    def feed(self, t: np.ndarray) -> None:
        # A step past the float range is inf, and off the grid: no warning.
        with np.errstate(over="ignore"):
            n = self._n
            if self.dt is None and n + t.size > 1:
                dt = float(t[1] - t[0]) if n == 0 else float(t[0] - self._last)
                if not 0.0 < dt < math.inf:
                    why = "is not positive" if dt <= 0.0 else "is past the float range"
                    raise NonUniformTimestep(1, f"t[1]-t[0]={dt!r} {why}")
                self.dt = dt
            # Until dt is known, n is 0 and t holds one timestamp: no step to check.
            dt = self.dt
            if n:
                step = float(t[0] - self._last)
                if abs(step - dt) > TIMESTEP_TOL:
                    raise _off_grid(n, step, dt)
            if t.size > 1:
                off = np.subtract(t[1:], t[:-1])  # np.diff(t), then in place
                off -= dt
                np.abs(off, out=off)
                if float(off.max()) > TIMESTEP_TOL:
                    bad = int(np.argmax(off > TIMESTEP_TOL)) + 1
                    raise _off_grid(n + bad, float(t[bad] - t[bad - 1]), dt)
            self._n = n + t.size
            self._last = float(t[-1])


def _off_grid(index: int, step: float, dt: float) -> NonUniformTimestep:
    """The error for the step into sample ``index``, ``step`` long, off the grid of ``dt``."""
    return NonUniformTimestep(index, f"t[{index}]-t[{index - 1}]={step!r} vs dt={dt!r}")


def save_trajectory(traj: Trajectory, path) -> None:
    """Write ``traj`` as CSV (atomically: temp file + rename).

    Raises:
        IoFailure: On any OS-level write problem.
    """
    atomic_write(path, float_rows(CSV_HEADER, traj.t, traj.alpha, traj.tau))


#: Every byte a number in a well-formed log can contain: what
#: :func:`repr` writes for a finite float.
_NUMBER_BYTES = b"0123456789+-.eE"

#: Bytes of a well-formed log read, checked and parsed at a time; a chunk
#: runs on to the end of the line holding its last byte. While orjson
#: parses a chunk, the chunk's JSON text is the one copy of its bytes that
#: is alive; with orjson's list of Python floats (32 bytes a value, against
#: the 8 of a column) and their column, about 4.3 times the chunk is held
#: (a traced peak of 35.6 KB on a 150k-sample log). 8 KiB keeps that under
#: a fit's 128 KiB block. 16 KiB parsed that log about 13% faster, but
#: raised the peak RSS of ``springsim fit`` on it by 0.01-0.04 MiB.
_CHUNK_BYTES = 1 << 13


def _line_chunk(fh: BinaryIO, size: int) -> bytes:
    """The next ``size`` bytes of ``fh``, run on to the end of the line
    holding the last of them or to the end of the file; b"" at its end."""
    chunk = fh.read(size)
    if chunk and not chunk.endswith(b"\n"):
        chunk += fh.readline()
    return chunk


def _read_header(fh: BinaryIO) -> bool:
    """Whether ``fh`` reads the header line next, ended by LF or CRLF."""
    header = CSV_HEADER.encode()
    head = fh.read(len(header) + 1)
    return head == header + b"\n" or head == header + b"\r" and fh.read(1) == b"\n"


def _lines(chunk: bytes) -> int | None:
    """The number of lines in ``chunk`` if each holds three cells made of
    :data:`_NUMBER_BYTES` and ends in LF, else None."""
    shape = chunk.translate(None, _NUMBER_BYTES)
    m = len(shape) // 3
    return m if chunk.endswith(b"\n") and shape == b",,\n" * m else None


def _parse_bulk(fh: BinaryIO, grid: _Grid, sink=None):
    """The well-formed log that ``fh`` reads from its start: its columns
    t, alpha, tau as a (3, n) array or, with a ``sink``, the sink, fed
    each chunk's alpha and tau; or None to defer.

    Well-formed: the exact header line, then at least two lines that
    each hold three finite JSON numbers made of :data:`_NUMBER_BYTES`
    only, each line ending in LF or CRLF. Anything else returns None,
    and the per-line parser decides: blank lines, a lone CR, spaces,
    ``nan``, ``1_0``, non-ASCII bytes, and the cells that ``float()``
    reads but JSON does not (``+1``, ``.5``, ``5.``, ``01``), or reads
    with a sign that orjson drops (the integer ``-0``). orjson rounds
    each number it reads correctly, so it parses every cell it accepts
    to the float that ``float()`` gives.

    orjson reads the integer ``-0`` as the integer 0, so a chunk that
    holds one parses to a zero among its values. Only such a chunk is
    searched for a ``-0`` cell, in its JSON text: first (after ``[``),
    between commas, or last (before ``]``); a chunk holding none of its
    values at zero is not searched.

    The log is checked and parsed a :data:`_CHUNK_BYTES` chunk of whole
    lines at a time, so beside the columns only O(:data:`_CHUNK_BYTES`)
    is held. While orjson parses a chunk, the chunk's JSON text is the
    only copy of its bytes that is alive: the bytes as read, and those
    with line ends turned to commas, are freed first. With a sink the log
    is read once, and each chunk's alpha and tau go to ``sink.add`` as
    parsed, so nothing grows with the log; the sink may have been fed
    part of a log that then returns None. Without one it is read twice:
    once to count its lines, then once more to parse them straight into
    the preallocated columns, and a log whose header or line count
    changes between the two reads returns None. On return ``fh`` may be
    at any position.

    Each chunk's timestamps are fed to ``grid`` as it is parsed. The
    first error of the grid is raised only once the whole log has parsed
    as well-formed; a log that is not returns None all the same, so the
    per-line parser's error comes first.
    """
    if not _read_header(fh):
        return None
    n = None  # lines counted, for the columns
    if sink is None:
        n = sum(block.count(b"\n") for block in iter(lambda: fh.read(_CHUNK_BYTES), b""))
        fh.seek(0)
        if n < 2 or not _read_header(fh):
            return None
        cols = np.empty((3, n))
    off_grid = None
    row = 0
    while chunk := _line_chunk(fh, _CHUNK_BYTES):
        m = _lines(chunk)
        if m is None:  # CRLF line ends, or not well-formed
            chunk = chunk.replace(b"\r\n", b"\n")
            m = _lines(chunk)
        # more lines than counted
        if m is None or n is not None and row + m > n:
            return None
        # The chunk as a JSON array, each line end a comma but the last.
        # Each copy is freed once the next is made, so at most two are
        # alive at once, and the text alone while orjson parses it.
        cells = chunk.replace(b"\n", b",")
        del chunk
        text = b"[%b]" % memoryview(cells)[:-1]
        del cells
        try:
            values = orjson.loads(text)
        except orjson.JSONDecodeError:
            return None
        if len(values) != 3 * m:
            return None
        values = np.fromiter(values, np.float64, 3 * m)  # and the list is freed
        if not np.isfinite(values).all():
            return None
        # orjson reads the integer -0 as the integer 0, without its sign;
        # a chunk holding no zero holds no such cell
        if np.count_nonzero(values) < values.size and (
            text.startswith(b"[-0,") or b",-0," in text or text.endswith(b",-0]")
        ):
            return None
        del text
        rows = values.reshape(m, 3).T
        if off_grid is None:
            try:
                grid.feed(rows[0])
            except NonUniformTimestep as exc:
                off_grid = exc
        if sink is None:
            cols[:, row : row + m] = rows
        else:
            sink.add(rows[1], rows[2])
        row += m
    if row < 2 or n is not None and row != n:
        return None
    if off_grid is not None:
        raise off_grid
    return cols if sink is None else sink


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV written by :func:`save_trajectory`.

    ``dt`` is inferred from the first two timestamps, then the uniform
    grid invariant is validated for the whole file. The file is read as
    :func:`_read_log` reads it, so a well-formed file takes 24 bytes per
    sample plus O(:data:`_CHUNK_BYTES`).

    Raises:
        MissingFile: ``path`` is not a regular file.
        IoFailure: ``path`` could not be opened or read.
        EmptyFile: No data rows, or a single row (dt not inferable).
        MalformedRow: Wrong column count or unparsable number
            (exception carries the 1-based line number).
        NonUniformTimestep: Grid invariant violated (carries the sample
            index of the first offending step, and names ``path``).
    """
    cols, _ = _read_log(path)
    return Trajectory(*cols)


def _read_log(path, sink=None):
    """The log at ``path``, read as its columns t, alpha, tau in a (3, n)
    array or, with a ``sink``, fed to it; and its dt.

    The one reader of a log: it raises what :func:`load_trajectory`
    raises. The file is opened once. A well-formed file is parsed a
    chunk at a time by :func:`_parse_bulk` while its timestamps are
    checked against the grid: read twice into the columns, 24 bytes per
    sample, or read once into ``sink``, so beside the columns only
    O(:data:`_CHUNK_BYTES`) is held. Any other file is read whole, from
    the same handle, by :func:`_load_strict`, the per-line parser, which
    alone decides what is accepted and which error is raised; its
    timestamps are checked by the same grid, and its alpha and tau are
    fed whole to the sink, reset first.

    ``sink`` is an object with ``add(alpha, tau)``, taking the next
    samples of the log in order, and ``reset()``, such as the
    accumulator of ``springsim fit``; it is returned in place of the
    columns.
    """
    path = Path(path)
    try:
        with open_input(path, MissingFile(path)) as fh:
            grid = _Grid()
            read = _parse_bulk(fh, grid, sink)
            if read is None:
                fh.seek(0)
                read = _load_strict(path, fh.read())
                grid = _Grid()  # the bulk pass may have fed it part of the log
                grid.feed(read[0])
                if sink is not None:
                    sink.reset()  # and the sink, too
                    sink.add(read[1], read[2])
                    read = sink
    except NonUniformTimestep as exc:
        raise NonUniformTimestep(exc.index, exc.detail, path) from exc
    return read, grid.dt


def _load_strict(path, data: bytes) -> np.ndarray:
    """Per-line parser of ``path``'s bytes, the specification of
    :func:`_read_log`: the columns t, alpha, tau as a (3, n) array."""
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
    return np.array([t, alpha, tau])
