"""Trajectory construction invariants and CSV round-trips."""

import decimal
import errno
import io
import math
import struct
import sys
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from springsim import (
    EmptyFile,
    IoFailure,
    MalformedRow,
    MissingFile,
    NonUniformTimestep,
    Sample,
    SpringParams,
    Trajectory,
    export_traces_from_dir,
    load_trajectory,
    save_trajectory,
)
from springsim import _fileio, energy, fit_external, fitting, harness, trajectory
from springsim.cli import main as cli_main
from springsim.trajectory import CSV_HEADER

from conftest import spy_on_open

#: ``open`` itself, for writes to a file whose opens a test spies on.
_REAL_OPEN = io.open


def _write(path, text):
    path.write_text(text)
    return path


class TestSample:
    def test_fields(self):
        s = Sample(t=0.01, alpha=0.7, tau=-10.5)
        assert (s.t, s.alpha, s.tau) == (0.01, 0.7, -10.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            Sample(t=bad, alpha=0.0, tau=0.0)
        with pytest.raises(ValueError):
            Sample(t=0.0, alpha=bad, tau=0.0)
        with pytest.raises(ValueError):
            Sample(t=0.0, alpha=0.0, tau=bad)


class TestSpringParams:
    def test_negative_stiffness_rejected(self):
        with pytest.raises(ValueError):
            SpringParams(mu=-0.1, alpha0=0.0)

    def test_zero_stiffness_ok(self):
        assert SpringParams(mu=0.0, alpha0=1.0).mu == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SpringParams(mu=math.nan, alpha0=0.0)
        with pytest.raises(ValueError):
            SpringParams(mu=1.0, alpha0=math.inf)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([], [], [])

    def test_single_sample_needs_explicit_dt(self):
        with pytest.raises(ValueError):
            Trajectory([0.0], [0.1], [1.0])
        traj = Trajectory([0.0], [0.1], [1.0], dt=0.01)
        assert len(traj) == 1

    def test_dt_inferred_from_first_step(self):
        traj = Trajectory([0.0, 0.01], [0.1, 0.2], [1.0, 1.1])
        assert traj.dt == 0.01

    def test_nonuniform_rejected_with_index(self):
        with pytest.raises(NonUniformTimestep) as exc:
            Trajectory([0.0, 0.01, 0.03], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert exc.value.index == 2

    def test_small_jitter_within_tolerance_ok(self):
        t = [0.0, 0.01, 0.02 + 5e-10]
        traj = Trajectory(t, [0.0] * 3, [0.0] * 3, dt=0.01)
        assert len(traj) == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.01], [0.1, math.nan], [0.0, 0.0])

    # At 8 elements a block the grid check crosses block edges: it must
    # find what a check of the whole column finds, and a non-finite value
    # anywhere is reported before it.
    @pytest.mark.parametrize("bad", [1, 7, 8, 9, 16, 19])
    def test_first_off_grid_step_found_in_any_block(self, monkeypatch, bad):
        monkeypatch.setattr(trajectory, "_CHECK_BLOCK", 8)
        t = np.arange(20) * 0.01
        t[bad:] += 0.001  # the step into sample `bad` is off the grid, no later one
        with pytest.raises(NonUniformTimestep) as exc:
            Trajectory(t, np.zeros(20), np.zeros(20), dt=0.01)
        assert exc.value.index == bad
        assert exc.value.detail == f"t[{bad}]-t[{bad - 1}]={float(t[bad] - t[bad - 1])!r} vs dt=0.01"

    @pytest.mark.parametrize("bad", [0, 7, 8, 19])
    def test_nonfinite_found_in_any_block_before_the_grid(self, monkeypatch, bad):
        monkeypatch.setattr(trajectory, "_CHECK_BLOCK", 8)
        t = np.arange(20) * 0.01
        t[2] = 5.0  # off the grid too: the non-finite value is reported first
        tau = np.zeros(20)
        tau[bad] = math.inf
        with pytest.raises(ValueError, match="non-finite value in tau"):
            Trajectory(t, np.zeros(20), tau, dt=0.01)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.01], [0.1], [0.0, 0.0])

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.01], [0.0, 0.0], [0.0, 0.0], dt=-0.01)

    def test_immutable(self):
        traj = Trajectory([0.0, 0.01], [0.1, 0.2], [1.0, 1.1])
        with pytest.raises(AttributeError):
            traj.dt = 0.5
        with pytest.raises(ValueError):
            traj.alpha[0] = 9.9

    def test_iter_yields_samples(self):
        traj = Trajectory([0.0, 0.01], [0.1, 0.2], [1.0, 1.1])
        assert list(traj) == [Sample(0.0, 0.1, 1.0), Sample(0.01, 0.2, 1.1)]


class TestLoad:
    def test_two_row_file(self, tmp_path):
        p = _write(tmp_path / "a.csv", "t,alpha_rad,tau_Nm\n0.00,0.1,1.0\n0.01,0.2,1.1\n")
        traj = load_trajectory(p)
        assert len(traj) == 2
        assert traj.dt == 0.01
        np.testing.assert_array_equal(traj.alpha, [0.1, 0.2])
        np.testing.assert_array_equal(traj.tau, [1.0, 1.1])

    def test_nonuniform_file(self, tmp_path):
        p = _write(
            tmp_path / "b.csv",
            "t,alpha_rad,tau_Nm\n0.00,0.1,1.0\n0.01,0.2,1.1\n0.03,0.3,1.2\n",
        )
        with pytest.raises(NonUniformTimestep) as exc:
            load_trajectory(p)
        assert exc.value.index == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_trajectory(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_trajectory(_write(tmp_path / "c.csv", "t,alpha_rad,tau_Nm\n"))

    def test_single_row_rejected(self, tmp_path):
        p = _write(tmp_path / "d.csv", "t,alpha_rad,tau_Nm\n0.0,0.1,1.0\n")
        with pytest.raises(EmptyFile):
            load_trajectory(p)

    def test_bad_header(self, tmp_path):
        p = _write(tmp_path / "e.csv", "time,angle,torque\n0.0,0.1,1.0\n")
        with pytest.raises(MalformedRow) as exc:
            load_trajectory(p)
        assert exc.value.line_no == 1

    def test_malformed_number_carries_line(self, tmp_path):
        p = _write(tmp_path / "f.csv", "t,alpha_rad,tau_Nm\n0.0,0.1,1.0\n0.01,oops,1.1\n")
        with pytest.raises(MalformedRow) as exc:
            load_trajectory(p)
        assert exc.value.line_no == 3

    def test_wrong_column_count(self, tmp_path):
        p = _write(tmp_path / "g.csv", "t,alpha_rad,tau_Nm\n0.0,0.1\n0.01,0.2,1.1\n")
        with pytest.raises(MalformedRow) as exc:
            load_trajectory(p)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "data, line_no",
        [
            (b"t,alpha_rad,tau_Nm\n0.0,0.1,1.0\n0.01,0.2,1.5\xff\n0.02,0.3,1.2\n", 3),
            (b"t,alpha_rad,tau_Nm\xff\n0.0,0.1,1.0\n0.01,0.2,1.1\n", 1),
            (b"t,alpha_rad,tau_Nm\n0.0,0.1,1.0\n\xff\n0.01,0.2,1.1\n", 3),
        ],
        ids=["cell", "header", "own_line"],
    )
    def test_non_utf8_byte_carries_line(self, tmp_path, data, line_no):
        p = tmp_path / "h.csv"
        p.write_bytes(data)
        with pytest.raises(MalformedRow) as exc:
            load_trajectory(p)
        assert exc.value.line_no == line_no


class TestSaveAndRoundTrip:
    def test_single_sample_file_layout(self, tmp_path):
        traj = Trajectory([0.0], [0.1], [1.0], dt=0.01)
        path = tmp_path / "one.csv"
        save_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,alpha_rad,tau_Nm"
        assert len(lines) == 2

    def test_thousand_sample_line_count(self, tmp_path):
        n = 1000
        t = np.arange(n) * 0.01
        traj = Trajectory(t, np.sin(t), np.cos(t), dt=0.01)
        path = tmp_path / "k.csv"
        save_trajectory(traj, path)
        assert len(path.read_text().splitlines()) == n + 1

    def test_round_trip_synthetic_sine(self, tmp_path):
        # 1000-sample sine: every field must survive save/load to 1e-12
        # (repr formatting actually makes the round trip exact).
        n = 1000
        t = np.arange(n) * 0.01
        alpha = 0.7 + 0.2 * np.sin(2 * np.pi * t / 1.88)
        tau = -10.5 + 2.0 * np.sin(2 * np.pi * t / 1.88 + 0.3)
        traj = Trajectory(t, alpha, tau, dt=0.01)
        path = tmp_path / "sine.csv"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert back.dt == traj.dt
        np.testing.assert_allclose(back.t, traj.t, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.alpha, traj.alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.tau, traj.tau, rtol=0, atol=1e-12)
        assert back == traj  # exact, thanks to repr round-tripping

    def test_round_trip_random_logs(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(5):
            n = int(rng.integers(2, 400))
            dt = float(rng.choice([1e-3, 0.01, 0.1]))
            traj = Trajectory(
                np.arange(n) * dt,
                rng.standard_normal(n),
                100.0 * rng.standard_normal(n),
                dt=dt,
            )
            path = tmp_path / f"r{i}.csv"
            save_trajectory(traj, path)
            assert load_trajectory(path) == traj

    def test_save_is_deterministic(self, tmp_path):
        t = np.arange(50) * 0.01
        traj = Trajectory(t, np.sin(t), np.cos(t), dt=0.01)
        p1, p2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        save_trajectory(traj, p1)
        save_trajectory(traj, p2)
        assert p1.read_bytes() == p2.read_bytes()


# --- bulk parser vs the per-line parser ------------------------------------------

#: Finite float64 values from uniformly random bit patterns.
FLOAT64 = (
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
    .filter(math.isfinite)
)

#: Cell contents other than a plain ``repr``: the bulk parser must defer
#: each to the per-line parser or parse it to the same float.
ODD_CELLS = [
    "", " 1.5", "1.5 ", " ", "nan", "inf", "-inf", "1e999", "-1e999", "1e-400",
    "1_0", "0x10", "2.5abc", "1.5,2.5", "+1", "5.", "-.5", "1E5", "1.5e", "1.5.5",
    "\u0661", "\u00e9", "\udcff", "-0", "-0e0", "0", "01", "-00",
]

#: Bytes inside a line: lone CR and other str.splitlines() line boundaries,
#: NUL, and a byte that is not UTF-8 ("\udcff" encodes to 0xff).
ODD_CHARS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\x00", "\udcff"]

#: Line ends other than LF: CRLF, a lone CR and other str.splitlines()
#: line boundaries, and a byte that is not UTF-8 in place of the LF.
ODD_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\udcff"]


def _midpoint(x):
    """The exact decimal halfway between finite ``x`` > 0 and the next float up."""
    with decimal.localcontext(decimal.Context(prec=2000)):
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
    return format(mid, "e")


#: JSON numbers whose float() the bulk parser must give bit for bit: reprs
#: of random bit patterns and of subnormals, decimals of 15-800 digits,
#: exact midpoints between adjacent floats, where a parser must round half
#: to even, and integers up to and past 2**64.
JSON_NUMBERS = st.one_of(
    FLOAT64.map(repr),
    st.integers(1 - 2**52, 2**52 - 1).filter(bool).map(lambda m: repr(m * 5e-324)),
    st.builds(
        "{}{}.{}e{}".format,
        st.sampled_from(["", "-"]),
        st.integers(1, 9),
        st.text("0123456789", min_size=14, max_size=799),
        st.integers(-400, 310),
    ),
    st.builds(
        "{}{}".format,
        st.sampled_from(["", "-"]),
        FLOAT64.map(abs).filter(lambda x: 0 < x < sys.float_info.max).map(_midpoint),
    ),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1]).map(str),
).filter(lambda cell: math.isfinite(float(cell)))

CELLS = st.one_of(
    st.sampled_from(ODD_CELLS),
    st.text(alphabet="0123456789+-.eE", max_size=8),
    FLOAT64.map(repr),
    st.tuples(FLOAT64.map(repr), st.sampled_from(ODD_CHARS)).map("".join),
)


@st.composite
def mutated_logs(draw):
    """Bytes of a trajectory CSV, well-formed or mutated in a few places."""
    n = draw(st.integers(0, 5))
    dt = draw(st.sampled_from([1e-3, 0.01, 0.25]))
    rows = [[repr(i * dt), repr(draw(FLOAT64)), repr(draw(FLOAT64))] for i in range(n)]
    # the log's line end: with no LF, it has more rows than LF bytes
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x85"]))
    ends = [end] * n
    inserted = {}
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        kind = draw(st.sampled_from(["cell", "cell", "cell", "drop", "end", "line"]))
        if kind == "cell":
            rows[i][j] = draw(CELLS)
        elif kind == "drop" and len(rows[i]) > 1:
            del rows[i][j]
        elif kind == "end":
            ends[i] = draw(st.sampled_from(ODD_ENDS))
        elif kind == "line":  # blank, or a lone byte that is not UTF-8
            line = draw(st.sampled_from(["", "  ", "\t", "\udcff"]))
            inserted[i] = line + draw(st.sampled_from(["\n"] + ODD_ENDS))
    # a header line that is a well-formed row: a log without its header
    header = draw(st.sampled_from([CSV_HEADER, CSV_HEADER, CSV_HEADER + " ", "t,a,b", "0.0,1,2"]))
    text = header + end
    for i, (row, row_end) in enumerate(zip(rows, ends)):
        text += inserted.get(i, "") + ",".join(row) + row_end
    if n and draw(st.integers(0, 3)) == 0:
        text = text[:-1]  # no final newline
    return text.encode("utf-8", "surrogateescape")


def _small_log(tmp_path):
    """A saved 1000-sample log of about 45 KB, and its trajectory."""
    rng = np.random.default_rng(3)
    n = 1000
    traj = Trajectory(np.arange(n) * 1.0, rng.standard_normal(n), rng.standard_normal(n))
    path = tmp_path / "small.csv"
    save_trajectory(traj, path)
    return path, traj


def _big_log(tmp_path):
    """A saved 50k-sample log of about 2.3 MB, and its trajectory."""
    rng = np.random.default_rng(9)
    n = 50_000
    traj = Trajectory(
        np.arange(n) * 1e-3, 2.0 + 1e-3 * rng.standard_normal(n), rng.standard_normal(n)
    )
    path = tmp_path / "big.csv"
    save_trajectory(traj, path)
    return path, traj


def _spoil(path, edit):
    """Make the saved log at ``path`` not well-formed in a few lines: a
    blank line appended, or a space before five of its line ends."""
    data = path.read_bytes()
    if edit == "blank_line":
        data += b"\n"
    else:
        lines = data.split(b"\n")
        for k in range(1, len(lines) - 1, len(lines) // 5):
            lines[k] += b" "
        data = b"\n".join(lines)
    path.write_bytes(data)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rewrite(path, data):
    """Replace the contents of ``path``, past any ``open`` spy."""
    with _REAL_OPEN(path, "wb") as fh:
        fh.write(data)


class SpyReader(io.BufferedReader):
    """A buffered binary file that counts its ``read`` calls, its seeks,
    and the bytes that ``read`` and ``readline`` return.

    ``on_seek`` runs once, before the first seek. The read numbered
    ``fail_read`` (from 1) raises EIO.
    """

    def __init__(self, path, on_seek=None, fail_read=None):
        super().__init__(io.FileIO(path))
        self.reads = self.seeks = self.nbytes = 0
        self._on_seek, self._fail_read = on_seek, fail_read

    def read(self, size=-1):
        self.reads += 1
        if self.reads == self._fail_read:
            raise OSError(errno.EIO, "Input/output error")
        data = super().read(size)
        self.nbytes += len(data)
        return data

    def readline(self, size=-1):
        line = super().readline(size)
        self.nbytes += len(line)
        return line

    def seek(self, pos, whence=io.SEEK_SET):
        self.seeks += 1
        on_seek, self._on_seek = self._on_seek, None
        if on_seek is not None:
            on_seek()
        return super().seek(pos, whence)


def _outcome(load, path):
    """Bit-exact arrays and dt, or the error class with its line or index."""
    try:
        traj = load(path)
    except Exception as exc:
        return type(exc), getattr(exc, "line_no", None), getattr(exc, "index", None)
    return traj.dt, traj.t.tobytes(), traj.alpha.tobytes(), traj.tau.tobytes()


def _fit_outcome(path):
    """``fit_external(path)``, or the error class and text it raises."""
    try:
        return fit_external(path)
    except Exception as exc:
        return type(exc), str(exc)


def _load_strict(path, data: bytes) -> np.ndarray:
    """The whole-file specification of the log reader: the columns t,
    alpha, tau of the log ``path`` whose bytes are ``data``, by the
    per-line rules, as a (3, n) array."""
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


def _reference_load(path):
    """What ``load_trajectory(path)`` gives by the whole-file specification."""
    cols = _load_strict(path, path.read_bytes())
    try:
        return Trajectory(*cols)
    except NonUniformTimestep as exc:
        raise NonUniformTimestep(exc.index, exc.detail, path) from exc


def _reference_read(path, sink):
    """``trajectory._read_log`` by the whole-file specification: the log's
    columns go to ``sink`` in one ``add``."""
    traj = _reference_load(path)
    sink.add((traj.t, traj.alpha, traj.tau))
    return sink, traj.dt


def _assert_parity(path, load=True, fit=True):
    """The load and the fit of ``path`` (or either) have the outcome they
    have by the whole-file specification."""
    if load:
        assert _outcome(load_trajectory, path) == _outcome(_reference_load, path)
    if fit:
        actual = _fit_outcome(path)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(harness, "_read_log", _reference_read)
            assert _fit_outcome(path) == actual


def _spy_per_line(monkeypatch):
    """The list of every chunk that the per-line rules parse from now on."""
    chunks = []
    real = trajectory._parse_lines

    def spy(path, chunk, line_no):
        chunks.append(chunk)
        return real(path, chunk, line_no)

    monkeypatch.setattr(trajectory, "_parse_lines", spy)
    return chunks


#: Chunk sizes for the bulk parser below the default: a chunk per line
#: (1) and a few lines each (7, 64).
SMALL_CHUNKS = [1, 7, 64]

#: 128 KiB, which holds each small log here whole, the default chunk
#: size, and the small ones.
CHUNKS = [1 << 17, trajectory._CHUNK_BYTES] + SMALL_CHUNKS

#: Hypothesis settings of the parity properties.
PARITY_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _odd_cell_log(tmp_path, cell, col):
    rows = [["0.0", "0.1", "1.0"], ["0.01", "0.2", "1.1"], ["0.02", "0.3", "1.2"]]
    rows[1][col] = cell
    text = CSV_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows)
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


#: Bytes of each line of :func:`_minus_zero_log`: its chunks end on the
#: same lines wherever its ``-0`` is.
_ZERO_LOG_WIDTH = 32


def _minus_zero_log(path, n, row, col):
    """A well-formed log of ``n`` lines of :data:`_ZERO_LOG_WIDTH` bytes
    whose one zero is the integer ``-0``, at line ``row`` (from 0) of
    column ``col``; the timestamps run through it when ``col`` is 0."""
    lines = []
    for i in range(n):
        t = (i - row if col == 0 else i + 1) * 0.25
        cells = [repr(t), repr(1.5 + (i % 7) * 0.125), repr(-2.5 + (i % 5) * 0.5)]
        if i == row:
            cells[col] = "-0"
        # trailing zeros, which leave the number as it is, fill the line
        pad = 2 if col == 1 else 1
        cells[pad] += "0" * (_ZERO_LOG_WIDTH - 1 - len(",".join(cells)))
        lines.append(",".join(cells) + "\n")
    path.write_text(CSV_HEADER + "\n" + "".join(lines))
    return path


class TestOrjsonReader:
    """What the bulk parser relies on in orjson's number reader."""

    def test_integer_minus_zero_is_the_integer_zero(self):
        value = orjson.loads(b"-0")
        assert type(value) is int and value == 0

    @pytest.mark.parametrize("cell", [b"-0.0", b"-0e0", b"-0E+0"])
    def test_float_minus_zero_keeps_its_sign(self, cell):
        value = orjson.loads(cell)
        assert value == 0 and math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("cell", [b"1e999", b"-1e999", b"NaN", b"Infinity"])
    def test_non_finite_number_is_an_error(self, cell):
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(b"[1.5,%b]" % cell)

    # Past 2**64 to either side, halfway between two floats (rounded to
    # even) and just past halfway.
    @pytest.mark.parametrize(
        "n", [2**64, 2**64 + 1, 2**64 + 2**11, 2**64 + 2**11 + 1, 2**64 + 3 * 2**11, 10**30 + 1]
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_past_64_bits_is_the_rounded_float(self, n, sign):
        value = orjson.loads(str(sign * n).encode())
        assert type(value) is float
        assert struct.pack("<d", value) == struct.pack("<d", float(sign * n))


class TestBulkParser:
    # In small chunks, chunk boundaries fall on every line, a final line
    # without a newline included.
    @pytest.mark.parametrize("chunk", CHUNKS)
    @PARITY_SETTINGS
    @given(data=mutated_logs())
    def test_same_result_as_per_line_parser(self, tmp_path, monkeypatch, chunk, data):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        _assert_parity(path, fit=False)

    @pytest.mark.parametrize("cell", ODD_CELLS + [f"1.5{c}" for c in ODD_CHARS])
    @pytest.mark.parametrize("col", [0, 2])
    def test_each_odd_cell_same_as_per_line_parser(self, tmp_path, cell, col):
        _assert_parity(_odd_cell_log(tmp_path, cell, col))

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    @pytest.mark.parametrize("cell", ODD_CELLS + [f"1.5{c}" for c in ODD_CHARS])
    @pytest.mark.parametrize("col", [0, 2])
    def test_each_odd_cell_in_small_chunks(self, tmp_path, monkeypatch, cell, col, chunk):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        _assert_parity(_odd_cell_log(tmp_path, cell, col))

    # The integer -0 as the one zero of its chunk, at either end of the
    # chunk's JSON text or between two of its cells.
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("col", [0, 1, 2])
    @pytest.mark.parametrize("where", ["first", "last of a chunk", "first of a chunk", "last"])
    def test_minus_zero_at_chunk_edges(self, tmp_path, monkeypatch, chunk, col, where):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        n = 2 * -(-chunk // _ZERO_LOG_WIDTH) + 2  # three chunks
        ends = _chunk_ends(_minus_zero_log(tmp_path / "log.csv", n, 0, col), chunk)
        edges = {"first": 0, "last of a chunk": ends[0] - 1, "first of a chunk": ends[0]}
        row = edges.get(where, n - 1)
        path = _minus_zero_log(tmp_path / "log.csv", n, row, col)
        assert _chunk_ends(path, chunk) == ends
        _assert_parity(path)
        value = getattr(load_trajectory(path), ("t", "alpha", "tau")[col])[row]
        assert value == 0 and np.signbit(value)

    def test_saved_file_takes_bulk_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        n = 500
        traj = Trajectory(np.arange(n) * 1e-3, rng.standard_normal(n), rng.standard_normal(n))
        path = tmp_path / "bulk.csv"
        save_trajectory(traj, path)
        per_line = _spy_per_line(monkeypatch)
        assert load_trajectory(path) == traj
        assert per_line == [CSV_HEADER.encode() + b"\n"]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_chunks_fill_the_columns_bit_for_bit(self, tmp_path, monkeypatch, chunk):
        rng = np.random.default_rng(5)
        n = 300
        traj = Trajectory(np.arange(n) * 1e-3, rng.standard_normal(n), rng.standard_normal(n))
        path = tmp_path / "bulk.csv"
        save_trajectory(traj, path)
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        per_line = _spy_per_line(monkeypatch)
        loaded = load_trajectory(path)
        assert per_line == [CSV_HEADER.encode() + b"\n"]  # every other chunk is bulk
        for name in ("t", "alpha", "tau"):
            col = getattr(loaded, name)
            assert col.flags.c_contiguous and col.base is None  # trimmed in place
            assert col.tobytes() == getattr(traj, name).tobytes()

    # Peak traced memory of a load, and of a fit: 24 B per sample of
    # columns for a load, and O(_CHUNK_BYTES) of chunk buffers. A fit
    # keeps no column: one block pair of 16 B per sample of a block.
    # Nothing grows with the file: neither its bytes nor a full-size
    # temporary are held.
    def test_bulk_load_holds_its_columns_and_a_few_chunks_only(self, tmp_path):
        path, traj = _big_log(tmp_path)
        loaded, peak = _traced_peak(load_trajectory, path)
        assert loaded == traj
        assert peak <= 24 * len(traj) + 4 * trajectory._CHUNK_BYTES + 65536, peak

    def test_fit_holds_the_columns_and_a_few_chunks_only(self, tmp_path):
        path, traj = _big_log(tmp_path)
        bound = 16 * fitting._DOT_BLOCK + 4 * trajectory._CHUNK_BYTES + 65536
        assert 16 * len(traj) > bound  # the log's two columns would not fit
        info, peak = _traced_peak(fit_external, path)
        assert info["n_samples"] == len(traj)
        assert peak <= bound, peak

    # A CRLF log takes the bulk path too: a chunk more of memory at most.
    def test_crlf_fit_holds_the_columns_and_a_few_chunks_only(self, tmp_path):
        path, traj = _big_log(tmp_path)
        expected = fit_external(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        bound = 16 * fitting._DOT_BLOCK + 4 * trajectory._CHUNK_BYTES + 65536
        info, peak = _traced_peak(fit_external, path)
        assert info == expected
        assert peak <= bound, peak

    # A log that is not well-formed in a few lines sends only the chunks
    # holding them to the per-line rules: the bounds above hold, and the
    # fit reads each byte of the log once.
    @pytest.mark.parametrize("edit", ["blank_line", "spaces"])
    def test_lenient_load_holds_its_columns_and_a_few_chunks_only(self, tmp_path, edit):
        path, traj = _big_log(tmp_path)
        _spoil(path, edit)
        loaded, peak = _traced_peak(load_trajectory, path)
        assert loaded == traj
        assert peak <= 24 * len(traj) + 4 * trajectory._CHUNK_BYTES + 65536, peak

    @pytest.mark.parametrize("edit", ["blank_line", "spaces"])
    def test_lenient_fit_holds_a_block_and_a_few_chunks_only(self, tmp_path, edit):
        path, traj = _big_log(tmp_path)
        expected = fit_external(path)
        _spoil(path, edit)
        bound = 16 * fitting._DOT_BLOCK + 4 * trajectory._CHUNK_BYTES + 65536
        info, peak = _traced_peak(fit_external, path)
        assert info == expected
        assert peak <= bound, peak

    @pytest.mark.parametrize("edit", ["blank_line", "spaces"])
    def test_lenient_fit_reads_the_log_once(self, tmp_path, monkeypatch, edit):
        path, traj = _big_log(tmp_path)
        _spoil(path, edit)
        fh = SpyReader(path)
        spy_on_open(monkeypatch, path, reader=lambda p: fh)
        assert fit_external(path)["n_samples"] == len(traj)
        assert fh.seeks == 0 and fh.nbytes == path.stat().st_size

    # orjson's reader rounds correctly, as float() does.
    @settings(max_examples=200, deadline=None, database=None)
    @given(cells=st.lists(st.tuples(JSON_NUMBERS, JSON_NUMBERS), min_size=2, max_size=30))
    def test_columns_are_float_bit_for_bit(self, cells):
        lines = [f"{i * 0.25!r},{a},{b}\n" for i, (a, b) in enumerate(cells)]
        cols = trajectory._parse_bulk("".join(lines).encode())
        assert cols is not None
        expected = [[i * 0.25 for i in range(len(cells))]] + [
            [float(row[j]) for row in cells] for j in (0, 1)
        ]
        assert cols.tobytes() == np.array(expected).tobytes()

    def test_lenient_log_is_read_once(self, tmp_path, monkeypatch):
        path = _write(tmp_path / "blank.csv", CSV_HEADER + "\n\n0.0,0.1,1.0\n0.01,0.2,1.1\n")
        opened = spy_on_open(monkeypatch, path)
        assert len(load_trajectory(path)) == 2
        assert len(opened) == 1

    # Between the load's count and its parse, the file is rewritten. The
    # parse reads the file as it now is: the columns grow when it has
    # more rows than the count, and are trimmed when it has fewer.
    @pytest.mark.parametrize(
        "change",
        ["grow", "grow_malformed", "shrink", "shrink_mid_line", "no_final_newline", "header"],
    )
    def test_log_changed_between_reads_goes_to_per_line_parser(
        self, tmp_path, monkeypatch, change
    ):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 4096)
        path, _ = _small_log(tmp_path)
        data = path.read_bytes()
        body = data.splitlines(keepends=True)
        new = {
            "grow": data + repr(len(body) - 1 + 0.0).encode() + b",0.5,0.5\n",  # one more sample
            "grow_malformed": data + b"7.0,0.5\n",
            "shrink": b"".join(body[:-5]),
            "shrink_mid_line": data[: len(data) // 2],
            "no_final_newline": data[:-1],
            "header": data.replace(b"alpha_rad", b"alpha_deg", 1),  # same length
        }[change]
        fresh = tmp_path / "fresh.csv"
        fresh.write_bytes(new)
        expected = _outcome(load_trajectory, fresh)

        fh = SpyReader(path, on_seek=lambda: _rewrite(path, new))
        opened = spy_on_open(monkeypatch, path, reader=lambda p: fh)
        assert _outcome(load_trajectory, path) == expected
        assert len(opened) == 1 and fh.seeks == 1

    # A read of the fit that fails: the first, one while parsing, the one
    # that finds the end, and one past a per-line chunk of a lenient log.
    # In 4096-byte chunks the fit reads the 45 KB log once: its header
    # line through readline, then reads 1-11 to parse and 12 to find its
    # end. The lenient log has a blank line after its header, so the
    # chunk of read 1 goes to the per-line rules, and read 3 is the
    # second of the bulk chunks after it.
    @pytest.mark.parametrize("lenient, fail_read", [(False, 1), (False, 3), (False, 12), (True, 3)])
    def test_read_error_is_one_line_exit_one(
        self, tmp_path, monkeypatch, capsys, lenient, fail_read
    ):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 4096)
        path, _ = _small_log(tmp_path)
        if lenient:
            path.write_bytes(path.read_bytes().replace(b"\n", b"\n\n", 1))
        fh = SpyReader(path, fail_read=fail_read)
        spy_on_open(monkeypatch, path, reader=lambda p: fh)
        assert cli_main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1, captured
        assert str(path) in err[0] and "Input/output error" in err[0]
        assert fh.reads == fail_read and fh.closed

    # A read of the load that fails. The load reads the log twice, to
    # preallocate its columns: in 4096-byte chunks reads 1-13 count its
    # lines, then, past its header line, reads 14-24 parse it and 25
    # finds its end. So read 3 fails while counting, 15 and 16 while
    # parsing.
    @pytest.mark.parametrize("fail_read", [3, 15, 16])
    def test_load_read_error_names_the_log(self, tmp_path, monkeypatch, fail_read):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 4096)
        path, _ = _small_log(tmp_path)
        fh = SpyReader(path, fail_read=fail_read)
        spy_on_open(monkeypatch, path, reader=lambda p: fh)
        with pytest.raises(IoFailure) as info:
            load_trajectory(path)
        assert str(path) in str(info.value) and "Input/output error" in str(info.value)
        assert fh.reads == fail_read and fh.closed

    @pytest.mark.parametrize(
        "body",
        [
            "0.0,0.1,1.0\r\n0.01,0.2,1.1\r\n",  # CRLF
            "0.0,0.1,1.0\n\n0.01,0.2,1.1\n",  # blank line
            "0.0, 0.1,1.0\n0.01,0.2 ,1.1\n",  # spaces around fields
            "0.0,0.1,1.0\n0.01,0.2,1_1\n",  # underscore digit grouping
            "0.0,0.1,1.0\n0.01,0.2,1.1",  # no final newline
        ],
    )
    def test_lenient_inputs_still_load(self, tmp_path, body):
        traj = load_trajectory(_write(tmp_path / "l.csv", CSV_HEADER + "\n" + body))
        assert len(traj) == 2 and traj.dt == 0.01


# --- the fit's read: timestamps checked a chunk at a time, not kept ----------------


def _failure(read, path):
    """The error class of ``read(path)``, its line or sample index, and its text."""
    try:
        read(path)
    except Exception as exc:
        return type(exc), getattr(exc, "line_no", getattr(exc, "index", None)), str(exc)
    raise AssertionError(f"{path} was read without an error")


def _chunk_ends(path, chunk):
    """Data lines of the log at ``path`` read up to the end of each chunk."""
    ends = [0]
    fh = io.BytesIO(path.read_bytes()[len(CSV_HEADER) + 1 :])
    for block in iter(lambda: trajectory._line_chunk(fh, chunk), b""):
        ends.append(ends[-1] + block.count(b"\n"))
    return ends[1:]


def _grid_log(path, t, bad=None):
    """A log of timestamps ``t``, its row ``bad`` (from 0) holding an infinite torque."""
    rows = [f"{x!r},0.5,{0.25 * (i % 7)!r}" for i, x in enumerate(t)]
    if bad is not None:
        rows[bad] = rows[bad].rsplit(",", 1)[0] + ",inf"
    path.write_text(CSV_HEADER + "\n" + "".join(r + "\n" for r in rows))
    return path


def _rows_for(chunk):
    """Rows enough for the log of :func:`_grid_log` to span several chunks."""
    return 12_000 if chunk > 64 else 40


class TestFitRead:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @PARITY_SETTINGS
    @given(data=mutated_logs())
    def test_same_result_as_per_line_parser(self, tmp_path, monkeypatch, chunk, data):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        _assert_parity(path, load=False)

    def test_saved_file_takes_bulk_path(self, tmp_path, monkeypatch):
        path, traj = _small_log(tmp_path)
        per_line = _spy_per_line(monkeypatch)
        assert fit_external(path)["n_samples"] == len(traj)
        assert per_line == [CSV_HEADER.encode() + b"\n"]

    # The load and the fit raise the same error, with the same line or
    # index and text, wherever the chunk boundaries fall.

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_malformed_row_after_an_off_grid_step_wins(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        n = _rows_for(chunk)
        t = [0.25 * i for i in range(n)]
        t[4] += 2.0**-10
        path = _grid_log(tmp_path / "x.csv", t, bad=n - 1)
        assert next(e for e in _chunk_ends(path, chunk) if e > 4) < n  # row 4's is not the last
        expected = (MalformedRow, n + 1, f"{path}:{n + 1}: non-finite value")
        assert _failure(load_trajectory, path) == expected
        assert _failure(fit_external, path) == expected

    # The same across chunk kinds: a blank line after the header sends the
    # first chunk to the per-line rules, a later chunk that the bulk
    # parser takes holds the off-grid step, and the last chunk, per-line
    # again, the malformed row.
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_malformed_row_after_an_off_grid_step_in_a_bulk_chunk_wins(
        self, tmp_path, monkeypatch, chunk
    ):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        n = chunk // 4 + 40  # rows of at most 17 bytes: four chunks or more
        t = [0.25 * i for i in range(n)]
        t[n // 2] += 2.0**-10
        path = _grid_log(tmp_path / "x.csv", t, bad=n - 1)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\n", 1))
        expected = _failure(_reference_load, path)
        assert expected == (MalformedRow, n + 2, f"{path}:{n + 2}: non-finite value")
        per_line = _spy_per_line(monkeypatch)
        assert _failure(load_trajectory, path) == expected
        assert _failure(fit_external, path) == expected
        # for the load, then the fit: the header line and two chunks
        assert len(per_line) == 6 and per_line[:3] == per_line[3:]
        header, first, last = per_line[:3]
        assert header == CSV_HEADER.encode() + b"\n" and first.startswith(b"\n")
        assert last.endswith(b",inf\n") and repr(t[n // 2]).encode() not in first + last

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_off_grid_step_across_a_chunk_boundary(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        n = _rows_for(chunk)
        path = _grid_log(tmp_path / "x.csv", [0.25 * i for i in range(n)])
        # the first chunk boundary past the step that sets dt
        bad = next(e for e in _chunk_ends(path, chunk) if e > 1)
        t = [0.25 * i + (2.0**-10 if i >= bad else 0.0) for i in range(n)]
        _grid_log(path, t)
        detail = f"t[{bad}]-t[{bad - 1}]=0.2509765625 vs dt=0.25"
        expected = (
            NonUniformTimestep, bad, f"{path}: non-uniform timestep at sample index {bad}: {detail}"
        )
        assert _failure(load_trajectory, path) == expected
        assert _failure(fit_external, path) == expected

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_decreasing_first_step_after_a_one_row_chunk(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        # The first row is longer than 64 bytes: a chunk of its own in
        # small chunks, so dt is inferred across a chunk boundary.
        big, tiny = "1.2345678901234567e+300", "-1.2345678901234567e-300"
        path = _write(
            tmp_path / "x.csv",
            f"{CSV_HEADER}\n{big},{tiny},{tiny}\n0.5,0.5,0.25\n1.0,0.75,0.5\n",
        )
        first = _chunk_ends(path, chunk)[0]
        assert first == (1 if chunk in SMALL_CHUNKS else 3)
        detail = f"t[1]-t[0]=-{big} is not positive"
        expected = (
            NonUniformTimestep, 1, f"{path}: non-uniform timestep at sample index 1: {detail}"
        )
        assert _failure(load_trajectory, path) == expected
        assert _failure(fit_external, path) == expected

    # A step past the float range is off the grid like any other, and
    # warns of no overflow, in one chunk or across two.
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_step_past_the_float_range(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        path = _grid_log(tmp_path / "x.csv", [0.0, 1e308, -1e308])
        detail = "t[2]-t[1]=-inf vs dt=1e+308"
        expected = (
            NonUniformTimestep, 2, f"{path}: non-uniform timestep at sample index 2: {detail}"
        )
        assert _failure(load_trajectory, path) == expected
        assert _failure(fit_external, path) == expected

    # A first step past the float range infers no dt: it is off the grid at
    # index 1, for the bulk parser (LF and CRLF) and the per-line parser
    # (a blank line after each line).
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\n\n"], ids=["lf", "crlf", "blank"])
    def test_first_step_past_the_float_range_exit_one(
        self, tmp_path, monkeypatch, capsys, chunk, end
    ):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
        lines = [CSV_HEADER, "-1.5e+308,0.5,0.25", "1.5e+308,0.75,0.5"]
        path = _write(tmp_path / "x.csv", end.join(lines) + end)
        detail = "t[1]-t[0]=inf is past the float range"
        message = f"{path}: non-uniform timestep at sample index 1: {detail}"
        assert _failure(load_trajectory, path) == (NonUniformTimestep, 1, message)
        assert cli_main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"springsim fit: error: {message}\n"


# --- the fit of a log longer than a block: one pass over merged moments -------


#: Samples in a log of three fit blocks, the last one partial.
LONG = 2 * fitting._DOT_BLOCK + 1617


def _long_log(path, alpha, tau, parser):
    """A log of ``alpha`` and ``tau`` at dt 1e-3. For the ``strict`` parser
    a blank last line sends the last chunk to the per-line rules, after
    the bulk parser has fed the fit the samples of every other chunk."""
    save_trajectory(Trajectory(np.arange(alpha.size) * 1e-3, alpha, tau, dt=1e-3), path)
    if parser == "strict":
        with _REAL_OPEN(path, "ab") as fh:
            fh.write(b"\n")
    return path


class TestLongLogFit:
    # Each case runs for every chunk size and both parsers: the result
    # depends on neither, as the fit cuts its blocks by sample count.
    pytestmark = [
        pytest.mark.parametrize("chunk", CHUNKS),
        pytest.mark.parametrize("parser", ["bulk", "strict"]),
    ]

    @pytest.fixture(autouse=True)
    def _chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)

    def test_constant_angle_is_one_line_exit_one(self, tmp_path, capsys, chunk, parser):
        tau = np.sin(np.arange(LONG) * 1e-2)
        path = _long_log(tmp_path / "c.csv", np.full(LONG, 0.7), tau, parser)
        assert cli_main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"springsim fit: error: {path}: angle variance ")
        assert len(captured.err.splitlines()) == 1

    def test_zero_covariance_leaves_alpha0_undefined(self, tmp_path, chunk, parser):
        # tau is even about the mean angle: no covariance
        alpha = np.tile([0.0, 1.0, 2.0], LONG // 3)
        tau = np.tile([1.0, 5.0, 1.0], LONG // 3)
        info = fit_external(_long_log(tmp_path / "z.csv", alpha, tau, parser))
        assert info["n_samples"] == alpha.size > fitting._DOT_BLOCK
        assert info["mu_star"] == 0.0 and not info["alpha0_defined"]
        assert info["alpha0_star"] is None
        assert info["ea"] == info["e0"] and info["ratio"] == 1.0

    def test_exact_linear_law_leaves_no_energy(self, tmp_path, chunk, parser):
        alpha = 2.0 + 1e-3 * np.random.default_rng(6).standard_normal(LONG)
        info = fit_external(_long_log(tmp_path / "l.csv", alpha, 3.0 * (alpha - 0.5), parser))
        assert info["mu_star"] == pytest.approx(3.0, rel=1e-12)
        assert info["alpha0_star"] == pytest.approx(0.5, rel=1e-12)
        assert 0.0 <= info["ratio"] <= 1e-15

    def test_e0_is_the_energy_of_the_loaded_log(self, tmp_path, chunk, parser):
        rng = np.random.default_rng(8)
        path = _long_log(
            tmp_path / "e.csv", rng.standard_normal(LONG), rng.standard_normal(LONG), parser
        )
        info = fit_external(path)
        assert info["e0"] == energy(load_trajectory(path))
        assert info["n_samples"] == LONG


# A log of at most one block is fitted by the code of fit_optimal, bit for
# bit; one sample more is fitted from the merged moments. The angles spread
# 1e-3 rad around 2 rad, where the two differ in their last digits.
@pytest.mark.parametrize("n", [3, fitting._DOT_BLOCK, fitting._DOT_BLOCK + 1])
def test_one_block_log_fits_as_fit_optimal(tmp_path, n):
    rng = np.random.default_rng(12)
    alpha = 2.0 + 1e-3 * rng.standard_normal(n)
    path = _long_log(tmp_path / "b.csv", alpha, 12.0 * (alpha - 2.3) + rng.random(n), "bulk")
    traj = load_trajectory(path)
    diag = fitting.fit_optimal(traj)
    info = fit_external(path)
    assert info["e0"] == energy(traj)
    same = (info["mu_star"], info["alpha0_star"], info["ea"]) == (
        diag.mu_star, diag.alpha0_star, diag.residual_energy
    )
    assert same == (n <= fitting._DOT_BLOCK)


def _grid_outcome(read_dt):
    """``read_dt()``, or the grid error class and text it raises."""
    try:
        return read_dt()
    except NonUniformTimestep as exc:
        return type(exc), str(exc)


class TestGridInPieces:
    # Fed a series in pieces, the grid check infers dt and raises as the
    # check of the whole series does: the first steps are shifted into
    # zero or negative ones, later ones off the grid or within tolerance.
    @pytest.mark.parametrize("block", [8, trajectory._CHECK_BLOCK])
    @PARITY_SETTINGS
    @given(
        n=st.integers(2, 30),
        moves=st.lists(
            st.tuples(st.integers(0, 29), st.sampled_from([-0.5, -0.25, 1e-3, 1e-10])),
            max_size=2,
        ),
        cuts=st.sets(st.integers(1, 29), max_size=6),
    )
    def test_same_result_as_the_whole_series(self, monkeypatch, block, n, moves, cuts):
        monkeypatch.setattr(trajectory, "_CHECK_BLOCK", block)
        t = np.arange(n) * 0.25
        for i, shift in moves:
            t[i % n] += shift

        def in_pieces():
            grid = trajectory._Grid()
            for piece in np.split(t, sorted(c for c in cuts if c < n)):
                grid.feed(piece)
            return grid.dt

        whole = _grid_outcome(lambda: Trajectory(t, np.zeros(n), np.zeros(n)).dt)
        assert _grid_outcome(in_pieces) == whole


# --- the CSV writer against repr ----------------------------------------------


def _repr_rows(header, a, b, c):
    """What ``float_rows`` must write, by definition: a ``repr`` per field."""
    a, b, c = a.tolist(), b.tolist(), c.tolist()
    return (header + "\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in zip(a, b, c))).encode()


BLOCK = _fileio._BLOCK_ROWS

#: Values that orjson writes as ``repr`` does: 0.0 and |x| in [1e-4, 1e16).
ORDINARY = st.one_of(
    st.just(0.0),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
)

#: Values that orjson writes otherwise, or close to where it starts to:
#: |x| in [1e-5, 1e-4) and >= 1e16, subnormals, -0.0, NaN and inf, and
#: the floats on either side of 1e-4 and 1e16.
ODD = st.one_of(
    st.floats(1e-5, 1e-4, exclude_max=True),
    st.floats(-1e-4, -1e-5, exclude_min=True),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(max_value=-1e16, allow_infinity=False),
    st.integers(1 - 2**52, 2**52 - 1).map(lambda m: m * 5e-324),
    st.sampled_from(
        [-0.0, math.nan, math.inf, -math.inf]
        + [math.nextafter(x, 0.0) for x in (1e-4, -1e-4, 1e16, -1e16)]
        + [1e-4, -1e-4]
    ),
)

WRITER_SETTINGS = settings(max_examples=150, deadline=None, database=None)


def _columns(n, pool, seed):
    """Three columns of ``n`` values, each drawn from ``pool``."""
    rng = np.random.default_rng(seed)
    return np.asarray(pool, dtype=np.float64)[rng.integers(len(pool), size=(3, n))]


def _written(cols):
    return b"".join(_fileio.float_rows("h", *cols))


class TestWriter:
    @WRITER_SETTINGS
    @given(
        n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7]),
        pool=st.lists(st.one_of(FLOAT64, ORDINARY), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_are_repr_bytes(self, n, pool, seed):
        cols = _columns(n, pool, seed)
        assert _written(cols) == _repr_rows("h", *cols)

    # An ordinary block takes orjson's bytes whole; one odd value in it
    # must be found, wherever it sits, and its line alone written by repr.
    @WRITER_SETTINGS
    @given(
        n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]),
        pool=st.lists(ORDINARY, min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
        odd=ODD,
        where=st.tuples(st.integers(0, 2), st.integers(0, BLOCK)),
    )
    def test_one_odd_value_in_an_ordinary_block(self, n, pool, seed, odd, where):
        cols = _columns(n, pool, seed)
        cols[where[0], where[1] % n] = odd
        assert _written(cols) == _repr_rows("h", *cols)

    def test_no_rows_is_the_header_line(self):
        assert _written(np.zeros((3, 0))) == b"h\n"

    # Every trace and period overlay that `grid --table paper` and `traces`
    # write is, byte for byte, repr applied to the columns it holds.
    def test_paper_grid_files_are_repr_bytes(self, grid_dir, tmp_path):
        out, report = grid_dir
        export_traces_from_dir(out, tmp_path)
        paths = sorted((out / "traces").glob("*.csv")) + sorted(tmp_path.glob("*_torques.csv"))
        assert len(paths) == 3 * len(report.results)  # two traces and an overlay a row
        for path in paths:
            data = path.read_bytes()
            header, *rows = data.decode().splitlines()
            cols = np.array([[float(v) for v in row.split(",")] for row in rows]).T
            assert data == _repr_rows(header, *cols), path.name

    # Saving holds one block at a time, never a copy of the trajectory.
    def test_save_holds_a_block_only(self, tmp_path):
        n = 100_000
        rng = np.random.default_rng(5)
        traj = Trajectory(
            np.arange(n) * 1e-3, 2.0 + 0.1 * rng.standard_normal(n), rng.standard_normal(n)
        )
        path = tmp_path / "long.csv"
        _, peak = _traced_peak(save_trajectory, traj, path)
        assert peak <= 1_000_000, peak
        assert path.read_bytes() == _repr_rows(CSV_HEADER, traj.t, traj.alpha, traj.tau)
