"""springsim benchmark: one seeded workload, end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each is there):

    paper_grid  springsim grid --table paper, then springsim traces
    sweep       springsim grid --specs over about a hundred seeded rows
    fit_log     springsim fit --json on a seeded synthetic log
    stream_fit  seeded samples pushed through a WindowState, fitted every few pushes

Inputs are generated from --seed before timing starts; the program sees
only the generated files. A worker process (one thread) then runs passes
in a closed loop for --seconds and checks every pass against the
recorded reference or an exact oracle.

With --trace 0 the end-to-end metrics are printed. setup_s, pass_s and
pass_s.tail are at a reference machine speed, so that a shared host
whose speed drifts within and between runs still gives comparable
numbers: a fixed probe is timed every 10 ms during each timed call, and
the call's CPU time is scaled by the probes' mean speed; time off the
CPU, which here is mostly other tenants' (see worker.timed), is left
out. The wall-clock medians are printed as setup_s.wall and
pass_s.wall. With --trace 1 the per-layer metrics of a separate traced
run are printed, in wall-clock seconds per traced pass; that run
alternates untraced and traced passes, and trace.overhead_s is the
difference of their wall-clock medians.

The last line is a JSON object: correct, attempted, failed, metrics. The
exit code is 1 when a check failed and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper_grid", "sweep", "fit_log", "stream_fit")
#: The whole command must end within this many seconds.
DEADLINE_S = 175.0


def tail(times: list[float]) -> tuple[float, float]:
    """(p, value): the highest percentile with at least ten samples beyond it.

    That is the sample with exactly ten larger ones, at p = (n - 10) / n;
    with ten samples or fewer, the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return 100.0 * rank / n, ordered[rank - 1]


def end_to_end(result: dict, job: dict) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) for every end-to-end metric."""
    setup_wall, setup = zip(*result["setup"])
    wall, times = zip(*result["passes"])
    p, tail_s = tail(times)
    n = len(times)
    pass_s = statistics.median(times)
    per_pass = job["input"]["rows"]
    rate_name = "rows_per_s" if job["workload"] in ("paper_grid", "sweep") else "samples_per_s"
    return [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh imports"),
        ("setup_s.wall", statistics.median(setup_wall), "s", "wall clock"),
        ("pass_s", pass_s, "s", f"median of {n} passes"),
        ("pass_s.wall", statistics.median(wall), "s", "wall clock"),
        ("pass_s.tail", tail_s, "s", f"p{p:.4g} of {n} passes"),
        (rate_name, per_pass / pass_s, "1/s", f"{per_pass} per pass"),
        ("peak_rss_mb", result["peak_rss_mb"], "MiB",
         f"first {result['peak_rss_passes']} passes, above the inputs' RSS"),
        ("result_max_rel_err", result["max_rel_err"], "1", "vs reference or exact oracle"),
        ("error_frac", result["failed"] / result["attempted"], "1",
         f"{result['failed']} of {result['attempted']} operations"),
    ]


def per_layer(result: dict) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) for every per-layer metric, per traced pass."""
    traced = [wall for wall, _ in result["traced_passes"]]
    n = len(traced)
    out = {k: v / n for k, v in result["layers"].items()}
    for io_layer in ("trajectory.save", "trajectory.load"):
        self_s = out[f"{io_layer}.self_s"]
        out[f"{io_layer}.mb_per_s"] = out[f"{io_layer}.bytes"] / self_s / 1e6 if self_s else 0.0
    run_s = out["simulator.run.self_s"]
    out["simulator.steps_per_s"] = out["simulator.steps"] / run_s if run_s else 0.0
    out["simulator.parity_max_abs"] = result["parity_max_abs"]
    out["harness.rows_attempted"] = out["harness.run_experiment.calls"]
    out["harness.rows_failed"] = out["harness.run_experiment.failed"]
    self_total = sum(v for k, v in out.items() if k.endswith(".self_s"))
    out["trace.pass_s"] = statistics.fmean(traced)
    out["trace.remainder_s"] = out["trace.pass_s"] - self_total
    # Untraced and traced passes alternate, so host drift cancels here.
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(
        wall for wall, _ in result["passes"]
    )
    out["trace.untraced"] = len(result["untraced"])
    notes = {}
    if out["trace.overhead_s"] < 0:
        notes["trace.overhead_s"] = "unresolved: below the pass-to-pass noise"
    return [
        (k, v, "", notes.get(k, f"per pass, {n} traced passes")) for k, v in sorted(out.items())
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "springsim" / "__init__.py").is_file():
        print(f"run.py: no springsim source tree under {root}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    # One thread: numpy's BLAS would otherwise start a thread pool in every
    # interpreter, whose spin-up makes setup_s depend on the other cores.
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1")

    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench_work", prefix=f"{args.workload}-"))
    try:
        gen = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), args.workload, str(args.seed), str(work)],
            timeout=DEADLINE_S / 2,
        )
        if gen.returncode != 0:
            print("run.py: generating the inputs failed", file=sys.stderr)
            return 1
        job = json.loads((work / "job.json").read_text())
        job.update(
            seconds=args.seconds,
            trace=args.trace,
            result=str(work / "result.json"),
            spans=str(root / ".perfbench_work" / f"spans-{args.workload}.csv"),
        )
        (work / "job.json").write_text(json.dumps(job))
        # The worker leads its own process group, so a timeout also stops
        # the interpreters it starts.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
            env=env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=DEADLINE_S - (time.perf_counter() - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print("run.py: worker did not finish in time", file=sys.stderr)
            return 1
        if code != 0:
            print(f"run.py: worker exited with {code}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = per_layer(result) if args.trace else end_to_end(result, job)
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"backend {result['backend']}  "
        f"python {result['python']}  numpy {result['numpy']}  nproc {os.cpu_count()}"
    )
    size = job["input"]
    print(f"input    rows {size['rows']}  steps {size['steps']}  bytes {size['bytes']}")
    if args.trace and (result["untraced"] or result["count_errors"]):
        print(f"untraced targets: {', '.join(result['untraced']) or 'none'}; "
              f"failed work counts: {result['count_errors']}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, value, unit, note in lines:
        print(f"{name:34s} {value:16.6g} {units.get(name, unit):6s} {note}")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    values = dict((name, value) for name, value, _, _ in lines)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
