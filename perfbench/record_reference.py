"""Record the benchmark's reference outputs with the pure-Python kernel.

Writes ``reference/paper_grid.json`` (report.csv and torque-trace
digests plus row values of ``grid --table paper``) and
``reference/sweep_pool.csv`` (the sweep's row pool with each row's
expected outcome and values). Run from the repository root:

    python3 perfbench/record_reference.py

Re-record only when springsim's numbers are meant to change.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from gate import read_failures, read_report, sha256, sha256_files
from workloads import PAPER_REFERENCE, POOL_PARAMS, REPORT_VALUES, SWEEP_POOL, write_specs

POOL_SEED = 20241127
#: (duration [s], physics_dt [s]) groups: 50 or 100 ticks of 20 or 40
#: substeps, so rows fall into four kernel shapes and the integration,
#: not the per-row file writes, takes most of a row's time.
GROUPS = ((0.5, 5e-4), (0.5, 2.5e-4), (1.0, 5e-4), (1.0, 2.5e-4))
POOL_ROWS_PER_GROUP = 50
BASE = {"mass": 4.1, "t_period": 1.88, "amplitude": 0.05, "h0": 0.2, "duration": 1.0}
#: Designed to fail: a torque limit below the gravity load folds the leg
#: through the singularity; zero amplitude leaves nothing to fit.
SINGULAR, DEGENERATE = "SingularConfiguration", "DegenerateTrajectory"
FAILING = (
    ("fail_torque_1", {"duration": 0.5, "physics_dt": 5e-4, "torque_limit": 2.0}, SINGULAR),
    ("fail_torque_2", {"mass": 8.1, "physics_dt": 2.5e-4, "torque_limit": 5.0}, SINGULAR),
    ("fail_static_1", {"amplitude": 0.0, "duration": 0.5, "physics_dt": 5e-4}, DEGENERATE),
    ("fail_static_2", {"amplitude": 0.0, "h0": 0.15, "physics_dt": 2.5e-4}, DEGENERATE),
)


def pool_rows() -> list[dict]:
    """Rows over the paper's ranges of mass, period, amplitude and h0."""
    rng = np.random.default_rng(POOL_SEED)
    rows = []
    for g, (duration, physics_dt) in enumerate(GROUPS):
        for j in range(POOL_ROWS_PER_GROUP):
            rows.append(
                {
                    "label": f"g{g}_r{j:03d}",
                    "expect": "ok",
                    "mass": round(float(rng.uniform(4.1, 8.1)), 3),
                    "t_period": round(float(rng.uniform(0.94, 3.77)), 3),
                    "amplitude": round(float(rng.uniform(0.03, 0.08)), 4),
                    "h0": round(float(rng.uniform(0.15, 0.25)), 4),
                    "duration": duration,
                    "physics_dt": physics_dt,
                    "torque_limit": None,
                }
            )
    for label, overrides, expect in FAILING:
        rows.append({"label": label, "expect": expect, **BASE, "torque_limit": None, **overrides})
    return rows


def springsim_pure(*argv: str) -> int:
    """Run the springsim CLI in a fresh interpreter on the pure kernel."""
    env = dict(os.environ, SPRINGSIM_PURE="1", PYTHONPATH=str(Path("src").resolve()))
    script = "import sys; from springsim.cli import main; sys.exit(main(sys.argv[1:]))"
    cmd = [sys.executable, "-c", script, *argv]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode


def record_sweep(work: Path) -> None:
    rows = pool_rows()
    write_specs(rows, work / "pool.ini")
    springsim_pure("grid", "--specs", str(work / "pool.ini"), "--out", str(work / "pool"))
    report = read_report(work / "pool" / "report.csv")
    failures = read_failures(work / "pool" / "failures.csv")
    for row in rows:
        if row["expect"] == "ok":
            row.update(report[row["label"]])
        elif failures.get(row["label"]) != row["expect"]:
            sys.exit(f"{row['label']}: expected {row['expect']}, got {failures.get(row['label'])}")
    columns = ["label", "expect", *POOL_PARAMS, *REPORT_VALUES]
    with open(SWEEP_POOL, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else row[c] for c in columns])


def record_paper(work: Path) -> None:
    out = work / "paper"
    if springsim_pure("grid", "--table", "paper", "--out", str(out)) != 0:
        sys.exit("grid --table paper failed")
    if springsim_pure("traces", str(out), "--out", str(out / "plots")) != 0:
        sys.exit("traces failed")
    ref = {
        "report_sha256": sha256(out / "report.csv"),
        "traces_sha256": sha256_files(sorted((out / "plots").glob("*_torques.csv"))),
        "rows": read_report(out / "report.csv"),
    }
    PAPER_REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def main() -> None:
    work = Path(".perfbench_work") / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record_paper(work)
        record_sweep(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
