"""Correctness gate run on the output of every benchmark pass.

Each check is one operation. An operation fails when it returns a wrong
value, raises an unexpected error, or is a designed-to-fail row that
does not fail with its expected error class. The tally feeds the
``error_frac`` and ``result_max_rel_err`` metrics.

The gate reads the program's files with its own parsers, so a change to
springsim's readers cannot make a wrong output look right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import REPORT_VALUES

REPORT_HEADER = "label,m,T,A,h0,E0,Ea,mu_star,alpha0_star,ratio"

#: Grid rows are compared with values the same program recorded, so any
#: drift above rounding noise of a reordered kernel is a wrong value.
GRID_RTOL = 1e-9
#: Fits are compared with an exact oracle. 1e-6 is the last digit the
#: CLI prints (six significant digits); today's raw-sum cancellation error
#: stays below it and is reported through result_max_rel_err instead.
ORACLE_RTOL = 1e-6


@dataclass
class Tally:
    """Operations attempted and failed, and the worst relative deviation."""

    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def compare(self, value, ref: float, rtol: float, what: str) -> None:
        """One operation: ``value`` must match ``ref`` to ``rtol``."""
        err = rel_err(value, ref)
        self.max_rel_err = max(self.max_rel_err, err)
        self.check(err <= rtol, f"{what}: {value!r} vs reference {ref!r}")


def rel_err(value, ref: float) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return math.inf
    return abs(value - ref) / abs(ref) if ref else abs(value)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_files(paths) -> str:
    """One digest over the names and bytes of several files."""
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda p: Path(p).name):
        h.update(Path(p).name.encode() + b"\0" + Path(p).read_bytes())
    return h.hexdigest()


def read_report(path) -> dict[str, dict]:
    """report.csv as label -> {E0, Ea, mu_star, alpha0_star, ratio}.

    Raises:
        ValueError: Wrong header or a row that does not parse.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError(f"{path}: bad report header")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 10:
            raise ValueError(f"{path}: bad report row {line!r}")
        rows[cells[0]] = dict(zip(REPORT_VALUES, map(float, cells[5:])))
    return rows


def read_failures(path) -> dict[str, str]:
    """failures.csv as label -> error class name ({} when absent).

    Accepts both a quoted CSV message and the unquoted ``label,Class: msg``.
    """
    path = Path(path)
    if not path.is_file():
        return {}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {r[0]: ",".join(r[1:]).split(":", 1)[0].strip() for r in rows[1:] if r}


def _check_row(tally: Tally, label: str, got, ref: dict, missing: str) -> None:
    """One report row is one operation: all its values within GRID_RTOL."""
    if got is None:
        tally.check(False, f"{label}: {missing}")
        return
    worst = max(rel_err(got[k], ref[k]) for k in REPORT_VALUES)
    tally.max_rel_err = max(tally.max_rel_err, worst)
    tally.check(worst <= GRID_RTOL, f"{label}: values off by {worst:.3g} relative")


# --- per-workload gates -----------------------------------------------------------


def check_paper(tally: Tally, out_dir, plots_dir, codes, ref: dict) -> None:
    """``grid --table paper`` then ``traces``: bytes, values and README claims."""
    out_dir, plots_dir = Path(out_dir), Path(plots_dir)
    tally.check(tuple(codes) == (0, 0), f"paper grid exit codes {codes}")
    report_path = out_dir / "report.csv"
    try:
        rows = read_report(report_path)
    except (OSError, ValueError) as exc:
        rows = {}
        tally.check(False, f"report.csv unreadable: {exc}")
    else:
        tally.check(sha256(report_path) == ref["report_sha256"], "report.csv SHA-256 differs")
    for label, ref_row in ref["rows"].items():
        _check_row(tally, label, rows.get(label), ref_row, "missing from report.csv")
    try:
        mu = {
            label: rows[label]["mu_star"]
            for label in ("period_0.94", "baseline", "period_3.77", "mass_8.1")
        }
        ratios = [r["ratio"] for r in rows.values()]
    except KeyError as exc:
        tally.check(False, f"README claims: row {exc} missing")
    else:
        tally.check(bool(ratios) and max(ratios) < 0.10, f"ratio < 0.10 fails: {ratios}")
        falling = mu["period_0.94"] > mu["baseline"] > mu["period_3.77"]
        tally.check(falling, f"mu* not falling with period: {mu}")
        scale = mu["mass_8.1"] / mu["baseline"]
        tally.check(1.7 <= scale <= 2.3, f"mass_8.1/baseline mu* = {scale!r} outside [1.7, 2.3]")
    traces = sorted(plots_dir.glob("*_torques.csv"))
    svgs = sorted(plots_dir.glob("*_torques.svg"))
    tally.check(
        len(traces) == len(svgs) == len(ref["rows"])
        and sha256_files(traces) == ref["traces_sha256"]
        and all(p.stat().st_size > 0 for p in svgs),
        "torque traces differ from the reference",
    )


def check_sweep(tally: Tally, out_dir, code: int, rows: list[dict]) -> None:
    """``grid --specs``: each row's values, and each designed failure's class."""
    out_dir = Path(out_dir)
    try:
        report = read_report(out_dir / "report.csv")
    except (OSError, ValueError) as exc:
        report = {}
        tally.check(False, f"report.csv unreadable: {exc}")
    failures = read_failures(out_dir / "failures.csv")
    expect_fail = any(r["expect"] != "ok" for r in rows)
    tally.check(code == (1 if expect_fail else 0), f"sweep exit code {code}")
    for row in rows:
        label = row["label"]
        if row["expect"] != "ok":
            got = failures.get(label)
            tally.check(
                got == row["expect"] and label not in report,
                f"{label}: expected {row['expect']}, got {got or 'success'}",
            )
            continue
        _check_row(tally, label, report.get(label), row, f"failed with {failures.get(label)}")


def check_fit(tally: Tally, stdout: str, code: int, n_rows: int, oracle) -> None:
    """``fit --json`` on the synthetic log against the exact oracle."""
    try:
        info = json.loads(stdout)
    except ValueError:
        tally.check(False, f"fit --json exit {code}, output not JSON: {stdout[:80]!r}")
        return
    mu, alpha0 = oracle
    ok = code == 0 and info.get("n_samples") == n_rows
    tally.check(ok, f"fit exit {code}, n_samples {info.get('n_samples')} (expected {n_rows})")
    if ok:
        tally.compare(info.get("mu_star"), mu, ORACLE_RTOL, "fit mu*")
        tally.compare(info.get("alpha0_star"), alpha0, ORACLE_RTOL, "fit alpha0*")


def check_stream(tally: Tally, fits: list, oracle: list) -> None:
    """Each window fit of a stream pass against its exact oracle."""
    tally.check(len(fits) == len(oracle), f"{len(fits)} window fits, expected {len(oracle)}")
    for i, (fit, (n, mu, alpha0)) in enumerate(zip(fits, oracle)):
        if fit.n != n:
            tally.check(False, f"fit {i}: window holds {fit.n} samples, expected {n}")
            continue
        err = max(rel_err(fit.mu_star, mu), rel_err(fit.alpha0_star, alpha0))
        tally.max_rel_err = max(tally.max_rel_err, err)
        tally.check(err <= ORACLE_RTOL, f"fit {i}: off by {err:.3g} relative")
