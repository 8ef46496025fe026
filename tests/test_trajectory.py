"""Trajectory construction invariants and CSV round-trips."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from springsim import (
    EmptyFile,
    MalformedRow,
    MissingFile,
    NonUniformTimestep,
    Sample,
    SpringParams,
    Trajectory,
    load_trajectory,
    save_trajectory,
)
from springsim import trajectory
from springsim.trajectory import CSV_HEADER

from conftest import spy_on_open


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
    "\u0661", "\u00e9", "\udcff",
]

#: Bytes inside a line: lone CR and other str.splitlines() line boundaries,
#: NUL, and a byte that is not UTF-8 ("\udcff" encodes to 0xff).
ODD_CHARS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\x00", "\udcff"]

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
    ends = ["\n"] * n
    inserted = {}
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        kind = draw(st.sampled_from(["cell", "cell", "cell", "drop", "crlf", "blank"]))
        if kind == "cell":
            rows[i][j] = draw(CELLS)
        elif kind == "drop" and len(rows[i]) > 1:
            del rows[i][j]
        elif kind == "crlf":
            ends[i] = "\r\n"
        elif kind == "blank":
            inserted[i] = draw(st.sampled_from(["\n", "  \n", "\t\n", "\r\n"]))
    header = draw(st.sampled_from([CSV_HEADER, CSV_HEADER, CSV_HEADER + " ", "t,a,b"]))
    text = header + "\n"
    for i, (row, end) in enumerate(zip(rows, ends)):
        text += inserted.get(i, "") + ",".join(row) + end
    if n and draw(st.integers(0, 3)) == 0:
        text = text[:-1]  # no final newline
    return text.encode("utf-8", "surrogateescape")


def _outcome(load, path):
    """Bit-exact arrays and dt, or the error class with its line or index."""
    try:
        traj = load(path)
    except Exception as exc:
        return type(exc), getattr(exc, "line_no", None), getattr(exc, "index", None)
    return traj.dt, traj.t.tobytes(), traj.alpha.tobytes(), traj.tau.tobytes()


def _assert_parity(path):
    strict = _outcome(lambda p: trajectory._load_strict(p, p.read_bytes()), path)
    assert _outcome(load_trajectory, path) == strict


class TestBulkParser:
    @settings(
        max_examples=300,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=mutated_logs())
    def test_same_result_as_per_line_parser(self, tmp_path, data):
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        _assert_parity(path)

    @pytest.mark.parametrize("cell", ODD_CELLS + [f"1.5{c}" for c in ODD_CHARS])
    @pytest.mark.parametrize("col", [0, 2])
    def test_each_odd_cell_same_as_per_line_parser(self, tmp_path, cell, col):
        rows = [["0.0", "0.1", "1.0"], ["0.01", "0.2", "1.1"], ["0.02", "0.3", "1.2"]]
        rows[1][col] = cell
        text = CSV_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows)
        path = tmp_path / "odd.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        _assert_parity(path)

    def test_saved_file_takes_bulk_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        n = 500
        traj = Trajectory(np.arange(n) * 1e-3, rng.standard_normal(n), rng.standard_normal(n))
        path = tmp_path / "bulk.csv"
        save_trajectory(traj, path)

        def refuse(path, data):
            raise AssertionError("well-formed log went through the per-line parser")

        monkeypatch.setattr(trajectory, "_load_strict", refuse)
        assert load_trajectory(path) == traj

    def test_lenient_log_is_read_once(self, tmp_path, monkeypatch):
        path = _write(tmp_path / "crlf.csv", CSV_HEADER + "\r\n0.0,0.1,1.0\r\n0.01,0.2,1.1\r\n")
        opened = spy_on_open(monkeypatch, path)
        assert len(load_trajectory(path)) == 2
        assert len(opened) == 1

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
