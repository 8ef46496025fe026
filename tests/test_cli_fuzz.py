"""Property test: no input reaching the command line ends in a traceback.

Mutated specs and run-config INI text, ``report.csv`` contents,
trajectory logs and flag lists go through ``cli.main``. Every outcome
must be an exit code in {0, 1, 2}, argparse's ``SystemExit`` included;
any other exception, or any warning (a second line on stderr), fails
the test. The base inputs simulate 0.05 s, so one example costs
milliseconds.
"""

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from springsim import EnergyModel, ExperimentSpec, run_grid
from springsim.cli import main as cli_main

SPECS_INI = b"""[springsim]
schema = 1

[a]
mass = 4.1
t_period = 0.02
amplitude = 0.05
h0 = 0.2
duration = 0.05

[b]
mass = 8.1
t_period = 0.03
amplitude = 0.03
h0 = 0.2
duration = 0.05
kp = 400
kd = 2
torque_limit = 30
sine_convention = paper-literal
physics_dt = 5e-4
"""

RUN_INI = b"""[springsim]
schema = 1

[run]
mass = 4.1
t_period = 0.02
amplitude = 0.05
h0 = 0.2
duration = 0.05
spring_mu = 5
spring_alpha0 = 2.8
"""

# Odd values for an INI key, a report cell or a log cell. 1e300 and
# 1e-300 as duration, physics_dt or control_rate ask for far more
# substeps than SimConfig's work budget allows, so they fail at config
# time; apart from them "1_0" (10.0) is the largest number here.
VALUES = [
    b"", b"abc", b"nan", b"inf", b"-inf", b"-1", b"0", b"1e999", b"0x10", b"1_0",
    b"0.5", b"2", b"1e300", b"1e-300", b"%", b"%(x)s", b"period", b"paper-literal",
    "café".encode(), b"\xff", b" ", b"a,b", b'"', b"5e-324",
]
INI_LINES = [
    b"[springsim]", b"[a]", b"[b]", b"[run]", b"[DEFAULT]", b"[", b"=", b"schema = 2",
    b"kp = 5", b"colour = red", b"no separator", b"  continued", b"spring_mu = 1",
    b"torque_limit = 2", b"# comment", b"duration = 0.5", b"mass = 4.1",
    b"duration = 1e300", b"duration = 1e-300", b"physics_dt = 1e300",
    b"physics_dt = 1e-300", b"control_rate = 1e300", b"control_rate = 1e-300",
]
REPORT_LINES = [
    b"label,m,T,A,h0,E0,Ea,mu_star,alpha0_star,ratio", b"a", b"b,1", b"zzz,1,2,3",
    b",,,,,,,,,", b"a,4.1,0.02,0.05,0.2,1,1,1,1,1,extra",
]
LOG_LINES = [
    b"t,alpha_rad,tau_Nm", b"0.0,0.1,1.0", b"0.01,0.2", b"0.02,0.3,2.0,9", b"",
    b"1e300,1e300,1e300", b"-0.01,0.1,1.0", b"\r", b"-1e308,0.1,1.0", b"1e308,0.2,1.1",
]
FLAGS = [
    "run", "grid", "fit", "traces", "--config", "--specs", "--out", "--table", "paper",
    "--json", "--k-motor", "0", "-1", "nan", "2.5", "abc", "", "--", "-h",
    "{ini}", "{log}", "{res}", "{out}", "{traj}", "{file}", "{missing}",
]
# (flags, INI text behind {ini}) before mutation.
TEMPLATES = [
    (["grid", "--specs", "{ini}", "--out", "{out}"], SPECS_INI),
    (["run", "--config", "{ini}", "--out", "{traj}"], RUN_INI),
    (["fit", "{log}", "--json"], RUN_INI),
    (["traces", "{res}", "--out", "{out}"], SPECS_INI),
]


def edits(tokens):
    """(operation, line, field, token) tuples for :func:`mutate`."""
    ops = st.sampled_from(["drop", "insert", "field", "cut"])
    index = st.integers(0, 40)
    return st.lists(st.tuples(ops, index, index, st.sampled_from(tokens)), max_size=4)


def mutate(text: bytes, sep: bytes, line_edits, lines) -> bytes:
    """Apply line edits: drop a line, insert one of ``lines``, replace a
    ``sep``-separated field with a token, or cut a line short."""
    out = text.split(b"\n")
    for op, i, j, token in line_edits:
        if op == "insert":
            out.insert(i % (len(out) + 1), lines[j % len(lines)])
            continue
        if not out:
            continue
        i %= len(out)
        if op == "drop":
            del out[i]
        elif op == "field":
            fields = out[i].split(sep)
            fields[j % len(fields)] = token
            out[i] = sep.join(fields)
        else:
            out[i] = out[i][: j % (len(out[i]) + 1)]
    return b"\n".join(out)


def exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def base_result(tmp_path_factory):
    """A finished two-row grid directory, short runs."""
    out = tmp_path_factory.mktemp("fuzz_grid")
    specs = [
        ExperimentSpec("a", mass=4.1, t_period=0.02, amplitude=0.05, h0=0.2,
                       overrides={"duration": 0.05}),
        ExperimentSpec("b", mass=8.1, t_period=0.03, amplitude=0.03, h0=0.2,
                       overrides={"duration": 0.05, "sine_convention": "paper-literal"}),
    ]
    assert run_grid(specs, out, EnergyModel()).ok
    return out


# Crashes this test found, each ending in a traceback before its fix:
# configparser interpolation of "%" in a specs or run-config value, a
# report.csv byte that is not UTF-8, and an empty --out file name. Two
# more once 1e300 was in the vocabulary: duration*control_rate overflowing
# to inf (round() raised OverflowError; now SimConfig's work budget
# rejects it) and a logged angle of 1e300, whose square overflowed in the
# fit. A logged torque of 1e200 printed numpy overflow warnings before
# the fit's output. A mass of 5e-324 kg made the kernel divide by zero.
# A first step from -1e308 to 1e308 infers a dt past the float range,
# which ended in a ValueError.
@example(template=TEMPLATES[0], flag_edits=[], ini_edits=[("field", 1, 1, b"%(x)s")],
         report_edits=[], log_edits=[])
@example(template=TEMPLATES[1], flag_edits=[], ini_edits=[("field", 4, 1, b"%")],
         report_edits=[], log_edits=[])
@example(template=TEMPLATES[3], flag_edits=[], ini_edits=[],
         report_edits=[("field", 0, 0, b"\xff")], log_edits=[])
@example(template=TEMPLATES[1], flag_edits=[("replace", 4, "")], ini_edits=[],
         report_edits=[], log_edits=[])
@example(template=TEMPLATES[0], flag_edits=[],
         ini_edits=[("field", 8, 1, b"1e300"), ("insert", 9, 21, b""),
                    ("insert", 9, 20, b"")],
         report_edits=[], log_edits=[])
@example(template=TEMPLATES[2], flag_edits=[], ini_edits=[], report_edits=[],
         log_edits=[("field", 2, 1, b"1e300")])
@example(template=TEMPLATES[2], flag_edits=[], ini_edits=[], report_edits=[],
         log_edits=[("field", 2, 2, b"1e200")])
@example(template=TEMPLATES[0], flag_edits=[], ini_edits=[("field", 4, 1, b"5e-324")],
         report_edits=[], log_edits=[])
@example(template=TEMPLATES[1], flag_edits=[], ini_edits=[("field", 4, 1, b"5e-324")],
         report_edits=[], log_edits=[])
@example(template=TEMPLATES[2], flag_edits=[], ini_edits=[], report_edits=[],
         log_edits=[("insert", 1, 9, b""), ("insert", 1, 8, b"")])
@pytest.mark.filterwarnings("error")  # a warning is stderr noise: fail on it
@settings(max_examples=150, deadline=None, database=None)
@given(
    template=st.sampled_from(TEMPLATES),
    flag_edits=st.lists(
        st.tuples(st.sampled_from(["drop", "insert", "replace"]), st.integers(0, 9),
                  st.sampled_from(FLAGS)),
        max_size=2,
    ),
    ini_edits=edits(VALUES),
    report_edits=edits(VALUES),
    log_edits=edits(VALUES),
)
def test_cli_never_raises(base_result, template, flag_edits, ini_edits, report_edits,
                          log_edits):
    argv, ini = list(template[0]), template[1]
    for op, i, flag in flag_edits:
        i %= len(argv) + 1
        if op == "insert":
            argv.insert(i, flag)
        elif i < len(argv):
            if op == "drop":
                del argv[i]
            else:
                argv[i] = flag
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        res = tmp / "res"
        shutil.copytree(base_result, res)
        report = (res / "report.csv").read_bytes()
        (res / "report.csv").write_bytes(mutate(report, b",", report_edits, REPORT_LINES))
        (tmp / "in.ini").write_bytes(mutate(ini, b"=", ini_edits, INI_LINES))
        log = (base_result / "traces" / "a_no_spring.csv").read_bytes()
        (tmp / "log.csv").write_bytes(mutate(log, b",", log_edits, LOG_LINES))
        (tmp / "afile").write_text("x")
        paths = {
            "{ini}": tmp / "in.ini",
            "{log}": tmp / "log.csv",
            "{res}": res,
            "{out}": tmp / "out",
            "{traj}": tmp / "traj.csv",
            "{file}": tmp / "afile",
            "{missing}": tmp / "missing" / "none",
        }
        argv = [str(paths.get(arg, arg)) for arg in argv]
        cwd = os.getcwd()
        os.chdir(tmp)  # a mutated --out may name a relative path, or ""
        try:
            assert exit_code(argv) in (0, 1, 2)
        finally:
            os.chdir(cwd)
