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

#: Bytes of a log read and parsed at a time; a chunk runs on to the end
#: of the line holding its last byte. While orjson parses a chunk, the
#: chunk and its JSON text are the two copies of its bytes that are
#: alive; with orjson's list of Python floats (32 bytes a value, against
#: the 8 of a column) and their column, about 6 times the chunk is held
#: (a traced peak of 50.2 KB while a 150k-sample log is read into a sink
#: that keeps nothing). 8 KiB keeps that under a fit's 128 KiB block.
#: 16 KiB parsed that log about 13% faster, but raised the peak RSS of
#: ``springsim fit`` on it by 0.01-0.04 MiB.
_CHUNK_BYTES = 1 << 13


def _line_chunk(fh: BinaryIO, size: int) -> bytes:
    """The next ``size`` bytes of ``fh``, run on to the end of the line
    holding the last of them or to the end of the file; b"" at its end."""
    chunk = fh.read(size)
    if chunk and not chunk.endswith(b"\n"):
        chunk += fh.readline()
    return chunk


def _lines(chunk: bytes) -> int | None:
    """The number of lines in ``chunk`` if each holds three cells made of
    :data:`_NUMBER_BYTES` and ends in LF, else None."""
    shape = chunk.translate(None, _NUMBER_BYTES)
    m = len(shape) // 3
    return m if chunk.endswith(b"\n") and shape == b",,\n" * m else None


def _parse_bulk(chunk: bytes) -> np.ndarray | None:
    """The rows t, alpha, tau of ``chunk``, whole lines of a log past its
    header, as a (3, m) array if the chunk is well-formed; else None, and
    the per-line rules of :func:`_parse_lines` decide.

    Well-formed: lines that each hold three finite JSON numbers made of
    :data:`_NUMBER_BYTES` only, each line ending in LF or CRLF. Anything
    else returns None: blank lines, a lone CR, spaces, ``nan``, ``1_0``,
    non-ASCII bytes, and the cells that ``float()`` reads but JSON does
    not (``+1``, ``.5``, ``5.``, ``01``), or reads with a sign that
    orjson drops (the integer ``-0``). orjson rounds each number it reads
    correctly, so it parses every cell it accepts to the float that
    ``float()`` gives.

    orjson reads the integer ``-0`` as the integer 0, so a chunk that
    holds one parses to a zero among its values. Only such a chunk is
    searched for a ``-0`` cell, in its JSON text: first (after ``[``),
    between commas, or last (before ``]``); a chunk holding none of its
    values at zero is not searched.
    """
    m = _lines(chunk)
    if m is None:  # CRLF line ends, or not well-formed
        chunk = chunk.replace(b"\r\n", b"\n")
        m = _lines(chunk)
        if m is None:
            return None
    # The chunk as a JSON array, each line end a comma but the last.
    cells = chunk.replace(b"\n", b",")
    del chunk  # frees the LF copy of a CRLF chunk; the caller holds the chunk as read
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
    return values.reshape(m, 3).T


def _parse_lines(path, chunk: bytes, line_no: int) -> tuple[np.ndarray, int]:
    """The rows t, alpha, tau of ``chunk``, whole lines of the log at
    ``path`` after its first ``line_no``, by the per-line rules, as a
    (3, k) array; and the lines read once it is parsed.

    The rules: the lines are those ``str.splitlines`` gives, so a lone CR
    and the other Unicode line boundaries end a line too. The first line
    of the log, stripped, is the header. After it a line that is blank
    but for whitespace is skipped, and any other holds three cells that
    ``float()`` reads to finite values; a malformed line raises
    MalformedRow with its 1-based number. The log is cut into chunks
    after a LF, which never splits a UTF-8 sequence or a CRLF, so its
    chunks parse as the whole log would.
    """
    rows = []
    # A byte that is not UTF-8 decodes to a lone surrogate, which no
    # number or header matches: its line is reported as malformed.
    for line in chunk.decode("utf-8", "surrogateescape").splitlines():
        line_no += 1
        if line_no == 1:
            header = line.strip()
            if header != CSV_HEADER:
                raise MalformedRow(path, 1, f"expected header {CSV_HEADER!r}, got {header!r}")
            continue
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
        rows.append(row)
    return np.array(rows).reshape(-1, 3).T, line_no


class _Columns:
    """The sink of :func:`load_trajectory`: the columns t, alpha, tau of
    the samples fed to :meth:`add`, with room for ``n`` of them, grown
    in place if more come."""

    __slots__ = ("cols", "n")

    def __init__(self, n: int):
        self.cols = [np.empty(n) for _ in range(3)]
        self.n = 0  # samples fed so far

    def add(self, rows) -> None:
        """Feed the next samples: rows t, alpha, tau, 1-D arrays of equal length."""
        n = self.n + rows[0].size
        for i, col in enumerate(self.cols):
            if n > col.size:
                col.resize(max(n, 2 * col.size), refcheck=False)
            col[self.n : n] = rows[i]
        self.n = n


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV written by :func:`save_trajectory`.

    ``dt`` is inferred from the first two timestamps, then the uniform
    grid invariant is validated for the whole file. The file's LF bytes
    are counted first, and the columns sized to that count, so a file of
    LF-ended lines takes 24 bytes per sample plus O(:data:`_CHUNK_BYTES`):
    they grow only for a file with lines ended by another
    ``str.splitlines`` boundary, or one that changed after the count.

    Raises:
        MissingFile: ``path`` is not a regular file.
        IoFailure: ``path`` could not be opened or read.
        EmptyFile: No data rows, or a single row (dt not inferable).
        MalformedRow: Wrong column count or unparsable number
            (exception carries the 1-based line number).
        NonUniformTimestep: Grid invariant violated (carries the sample
            index of the first offending step, and names ``path``).
    """
    sink, _ = _read_log(path)
    for col in sink.cols:
        col.resize(sink.n, refcheck=False)  # in place
    return Trajectory(*sink.cols)


def _read_log(path, sink=None):
    """The log at ``path`` fed to ``sink``, and its dt; with no sink, fed
    to :class:`_Columns` sized by a count of the log's LF bytes.

    The one reader of a log: it raises what :func:`load_trajectory`
    raises. The file is opened once, and read once from its start, its
    first line and then a :data:`_CHUNK_BYTES` chunk of whole lines at a
    time, so beside the sink only O(:data:`_CHUNK_BYTES`) is held; the
    count, for the columns, reads it once more before that. A chunk past
    the header that :func:`_parse_bulk` accepts is parsed by orjson; any
    other chunk, the header line among them, by :func:`_parse_lines`,
    which alone decides what is accepted and raises at the first
    malformed line. Each chunk's timestamps are checked against the grid
    as it is parsed, but the first error of the grid is raised only once
    the whole log has parsed, so a malformed row further on comes first.

    ``sink`` is an object with ``add(rows)``, taking the next samples of
    the log in order as a (3, m) array of rows t, alpha, tau, such as
    the accumulator of ``springsim fit``; it is returned.
    """
    path = Path(path)
    try:
        with open_input(path, MissingFile(path)) as fh:
            if sink is None:
                blocks = iter(lambda: fh.read(_CHUNK_BYTES), b"")
                sink = _Columns(sum(block.count(b"\n") for block in blocks))
                fh.seek(0)
            grid, off_grid = _Grid(), None
            line_no = rows = 0
            chunk = fh.readline()  # the header line, for the per-line rules
            while chunk:
                cols = _parse_bulk(chunk) if line_no else None  # past the header
                if cols is None:
                    cols, line_no = _parse_lines(path, chunk, line_no)
                else:
                    line_no += cols.shape[1]
                if cols.size:
                    if off_grid is None:
                        try:
                            grid.feed(cols[0])
                        except NonUniformTimestep as exc:
                            off_grid = exc
                    sink.add(cols)
                    rows += cols.shape[1]
                chunk = _line_chunk(fh, _CHUNK_BYTES)
        if not rows:
            raise EmptyFile(path)
        if rows < 2:
            raise EmptyFile(path, "fewer than 2 data rows (dt cannot be inferred)")
        if off_grid is not None:
            raise off_grid
    except NonUniformTimestep as exc:
        raise NonUniformTimestep(exc.index, exc.detail, path) from exc
    return sink, grid.dt
