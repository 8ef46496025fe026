"""Seeded input generators and the exact fit oracle for the benchmark.

Every generator is a pure function of its seed: the same seed writes
byte-identical files. Nothing here imports springsim, so the inputs and
the oracle do not depend on the code under test.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SWEEP_POOL = REFERENCE_DIR / "sweep_pool.csv"
PAPER_REFERENCE = REFERENCE_DIR / "paper_grid.json"

#: Control rate every generated row uses (the CLI default) [Hz].
CONTROL_RATE = 100.0
#: Rows the sweep draws from each (duration, physics_dt) group of the pool.
SWEEP_ROWS_PER_GROUP = 25

#: fit_log: rows in the synthetic log and its sampling interval [s].
LOG_ROWS = 150_000
LOG_DT = 0.01
#: Angle spread around the mean angle [rad]: the badly conditioned regime
#: where raw-sum fits lose digits to cancellation.
ANGLE_MEAN = 2.0
ANGLE_SPREAD = 1e-3

#: stream_fit: distinct samples, times each pass replays them, window
#: capacity and pushes between fits. Few distinct samples keep the
#: harness's inputs in cache, as a live stream's fresh samples would be.
STREAM_SAMPLES = 10_000
STREAM_ROUNDS = 30
STREAM_CAPACITY = 4096
STREAM_FIT_EVERY = 200

TRAJECTORY_HEADER = "t,alpha_rad,tau_Nm"
POOL_PARAMS = ("mass", "t_period", "amplitude", "h0", "duration", "physics_dt", "torque_limit")
REPORT_VALUES = ("E0", "Ea", "mu_star", "alpha0_star", "ratio")


# --- sweep -------------------------------------------------------------------


def load_pool(path=SWEEP_POOL) -> list[dict]:
    """The recorded sweep pool: row inputs, expected outcome, reference values.

    ``expect`` is ``ok`` or the error class the row must fail with.
    """
    rows = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            row = {"label": raw["label"], "expect": raw["expect"]}
            for key in POOL_PARAMS + REPORT_VALUES:
                row[key] = float(raw[key]) if raw[key] else None
            rows.append(row)
    return rows


def row_steps(row: dict) -> int:
    """Integration steps of one successful row: both phases, all substeps."""
    n_ticks = max(1, round(row["duration"] * CONTROL_RATE))
    n_sub = max(1, round(1.0 / CONTROL_RATE / row["physics_dt"]))
    return 2 * n_ticks * n_sub


def select_sweep(pool: list[dict], seed: int) -> list[dict]:
    """Seeded sweep: the same number of rows from every group, shuffled.

    Every designed-to-fail row is always included. Drawing a fixed count
    per group keeps the integration work equal across seeds.
    """
    rng = np.random.default_rng(seed)
    groups: dict[tuple, list[dict]] = {}
    failing = []
    for row in pool:
        if row["expect"] != "ok":
            failing.append(row)
        else:
            groups.setdefault((row["duration"], row["physics_dt"]), []).append(row)
    chosen = list(failing)
    for key in sorted(groups):
        members = groups[key]
        idx = rng.choice(len(members), size=SWEEP_ROWS_PER_GROUP, replace=False)
        chosen.extend(members[i] for i in sorted(idx))
    return [chosen[i] for i in rng.permutation(len(chosen))]


def write_specs(rows: list[dict], path) -> None:
    """Write rows in the ``springsim grid --specs`` INI format."""
    lines = ["[springsim]", "schema = 1", ""]
    for row in rows:
        lines.append(f"[{row['label']}]")
        for key in POOL_PARAMS:
            if row[key] is not None:
                lines.append(f"{key} = {row[key]!r}")
        lines.append("")
    Path(path).write_text("\n".join(lines))


# --- fit_log and stream_fit ----------------------------------------------------


def log_samples(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, tau) of a periodic knee motion with a small angle spread.

    tau follows a linear spring law plus sensor noise, so the fitted
    stiffness is well defined while the angle moments are badly
    conditioned (spread 1e-3 rad around 2 rad).
    """
    rng = np.random.default_rng(seed)
    period = rng.uniform(0.94, 3.77)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    mu = rng.uniform(5.0, 20.0)
    alpha0 = ANGLE_MEAN + rng.uniform(0.2, 0.5)
    t = np.arange(n) * LOG_DT
    motion = 0.8 * np.sin(2.0 * math.pi * t / period + phase) + 0.2 * rng.uniform(-1.0, 1.0, n)
    alpha = ANGLE_MEAN + ANGLE_SPREAD * motion
    tau = mu * (alpha - alpha0) + 1e-3 * rng.standard_normal(n)
    return alpha, tau


def write_log(alpha: np.ndarray, tau: np.ndarray, path) -> int:
    """Write a trajectory CSV (repr floats, exact round trip); returns bytes."""
    t = (np.arange(alpha.size) * LOG_DT).tolist()
    body = "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(t, alpha.tolist(), tau.tolist()))
    payload = TRAJECTORY_HEADER + "\n" + body
    Path(path).write_text(payload)
    return len(payload)


def oracle_fit(alpha: np.ndarray, tau: np.ndarray) -> tuple[float, float]:
    """(mu*, alpha0*) by a centred two-pass fit with exactly rounded sums.

    mu* is the least-squares slope of tau on alpha, and alpha0* solves
    mean(tau) = mu* (mean(alpha) - alpha0*).
    """
    n = alpha.size
    mean_a = math.fsum(alpha) / n
    mean_t = math.fsum(tau) / n
    da = alpha - mean_a
    dt = tau - mean_t
    mu = math.fsum(da * dt) / math.fsum(da * da)
    return mu, mean_a - mean_t / mu


def stream_oracle(alpha: np.ndarray, tau: np.ndarray) -> list[tuple[int, float, float]]:
    """Oracle (window size, mu*, alpha0*) for every fit a stream pass makes."""
    alpha, tau = np.tile(alpha, STREAM_ROUNDS), np.tile(tau, STREAM_ROUNDS)
    out = []
    for end in range(STREAM_FIT_EVERY, alpha.size + 1, STREAM_FIT_EVERY):
        start = max(0, end - STREAM_CAPACITY)
        out.append((end - start, *oracle_fit(alpha[start:end], tau[start:end])))
    return out


# --- job files ------------------------------------------------------------------


def make_job(workload: str, seed: int, work: Path) -> dict:
    """Generate the workload's inputs into ``work``; returns the worker's job."""
    job: dict = {"workload": workload, "workdir": str(work)}
    if workload == "paper_grid":
        ref = json.loads(PAPER_REFERENCE.read_text())
        rows = len(ref["rows"])
        # --table paper rows run the defaults: 10 s at a 1 ms physics step.
        steps = rows * row_steps({"duration": 10.0, "physics_dt": 1e-3})
        job.update(reference=ref, input={"rows": rows, "steps": steps, "bytes": 0})
    elif workload == "sweep":
        rows = select_sweep(load_pool(), seed)
        specs = work / "specs.ini"
        write_specs(rows, specs)
        steps = sum(row_steps(r) for r in rows if r["expect"] == "ok")
        job.update(
            specs=str(specs),
            rows=rows,
            input={"rows": len(rows), "steps": steps, "bytes": specs.stat().st_size},
        )
    elif workload == "fit_log":
        alpha, tau = log_samples(seed, LOG_ROWS)
        log = work / "log.csv"
        size = write_log(alpha, tau, log)
        job.update(
            log=str(log),
            oracle=oracle_fit(alpha, tau),
            input={"rows": LOG_ROWS, "steps": 0, "bytes": size},
        )
    else:
        alpha, tau = log_samples(seed, STREAM_SAMPLES)
        stream = work / "stream.npy"
        np.save(stream, np.stack([alpha, tau]))
        job.update(
            stream=str(stream),
            dt=LOG_DT,
            oracle=stream_oracle(alpha, tau),
            input={
                "rows": STREAM_SAMPLES * STREAM_ROUNDS,
                "steps": 0,
                "bytes": stream.stat().st_size,
            },
        )
    return job


def main(argv: list[str]) -> None:
    """Usage: python workloads.py WORKLOAD SEED WORKDIR -- writes WORKDIR/job.json."""
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    (work / "job.json").write_text(json.dumps(make_job(workload, seed, work)))


if __name__ == "__main__":
    main(sys.argv[1:])
