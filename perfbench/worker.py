"""Benchmark worker: runs one workload's passes in a closed loop.

One process, one thread: each pass starts after the previous one ends
and its output has passed the correctness gate. Started by ``run.py``
with a job file; writes its measurements to the result file the job
names. Usage: python worker.py JOB.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import springsim
import springsim.cli
from gate import Tally, check_fit, check_paper, check_stream, check_sweep
from tracer import Tracer
from workloads import STREAM_CAPACITY, STREAM_FIT_EVERY, STREAM_ROUNDS

#: A traced run makes at most this many traced passes, and keeps the
#: spans of passes in memory (to write them out) up to SPAN_BUDGET spans;
#: one stream_fit pass makes about 301,500.
TRACED_PASSES = 10
SPAN_BUDGET = 400_000
#: Fresh interpreters timed for setup_s.
SETUP_RUNS = 15
#: peak_rss_mb is the peak over the warm-up and this many passes. A fixed
#: count, because sweep's heap keeps growing by about 0.1 MiB a pass for
#: some 40 passes (allocator fragmentation): a peak over every pass of a
#: run would depend on how many passes the host's speed allowed.
RSS_PASSES = 10
#: Speed probe: iterations, interval between probes during a timed call,
#: and its wall time on an idle 2-vCPU x86-64 VM with Python 3.11 (the
#: speed that reference-speed times are scaled to).
PROBE_ITERS = 100
PROBE_INTERVAL_S = 0.01
REFERENCE_PROBE_S = 1.9e-4


def cli(*argv: str) -> tuple[int, str]:
    """Call the springsim entry point as the console script does."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = springsim.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class FreshOutput:
    """Gives every pass a new, empty output directory.

    Old outputs are deleted only when the run ends, so that no pass
    waits for the file system to finish deleting the previous one.
    """

    def __init__(self, job, name: str):
        self.base = Path(job["workdir"]) / name
        self.passes = 0

    def prepare(self):
        self.passes += 1
        self.out = self.base / f"pass{self.passes}"


class PaperGrid(FreshOutput):
    """``grid --table paper`` then ``traces`` on the result."""

    def __init__(self, job):
        super().__init__(job, "paper")
        self.ref = job["reference"]

    def run(self):
        code_grid, _ = cli("grid", "--table", "paper", "--out", str(self.out))
        code_traces, _ = cli("traces", str(self.out), "--out", str(self.out / "plots"))
        return code_grid, code_traces

    def check(self, tally, codes):
        check_paper(tally, self.out, self.out / "plots", codes, self.ref)


class Sweep(FreshOutput):
    """``grid --specs`` over the seeded spec list."""

    def __init__(self, job):
        super().__init__(job, "sweep")
        self.specs = job["specs"]
        self.rows = job["rows"]

    def run(self):
        return cli("grid", "--specs", self.specs, "--out", str(self.out))[0]

    def check(self, tally, code):
        check_sweep(tally, self.out, code, self.rows)


class FitLog:
    """``fit --json`` on the synthetic log."""

    def __init__(self, job):
        self.log = job["log"]
        self.rows = job["input"]["rows"]
        self.oracle = job["oracle"]

    def prepare(self):
        pass

    def run(self):
        return cli("fit", self.log, "--json")

    def check(self, tally, output):
        code, stdout = output
        check_fit(tally, stdout, code, self.rows, self.oracle)


class StreamFit:
    """The samples, replayed STREAM_ROUNDS times, through one ``WindowState``.

    A fit every STREAM_FIT_EVERY pushes.
    """

    def __init__(self, job):
        alpha, tau = np.load(job["stream"])
        dt = job["dt"]
        self.samples = [
            springsim.Sample(i * dt, a, t)
            for i, (a, t) in enumerate(zip(alpha.tolist(), tau.tolist()))
        ]
        self.dt = dt
        self.oracle = job["oracle"]

    def prepare(self):
        pass

    def run(self):
        window = springsim.WindowState(STREAM_CAPACITY, self.dt)
        fits = []
        every = STREAM_FIT_EVERY
        replay = itertools.chain.from_iterable(itertools.repeat(self.samples, STREAM_ROUNDS))
        for i, sample in enumerate(replay, start=1):
            window.push(sample)
            if i % every == 0:
                fits.append(window.fit())
        return fits

    def check(self, tally, fits):
        check_stream(tally, fits, self.oracle)


WORKLOADS = {"paper_grid": PaperGrid, "sweep": Sweep, "fit_log": FitLog, "stream_fit": StreamFit}


def probe() -> float:
    """Wall time of a fixed snippet of interpreter work: the machine's speed now.

    The work springsim's passes are made of, in small: float arithmetic
    and ``math`` calls (the kernel), ``repr`` and joins (saving a
    trajectory), splits and ``float`` parses (loading one).
    """
    t0 = time.perf_counter()
    x, rows = 0.0, []
    for i in range(PROBE_ITERS):
        x = x * 0.999 + math.sin(i * 1e-3) * math.cos(x)
        rows.append(f"{i * 0.01!r},{x!r}")
    for row in "\n".join(rows).splitlines():
        x += float(row.split(",")[1])
    return time.perf_counter() - t0


def rss_mib(key: str) -> float:
    """This process's ``VmRSS`` (now) or ``VmHWM`` (peak) in MiB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(rf"^{key}:\s+(\d+) kB", status, re.M).group(1)) / 1024


def reset_peak_rss() -> float:
    """Lower this process's peak RSS to its RSS now; returns that level in MiB."""
    Path("/proc/self/clear_refs").write_text("5")
    return rss_mib("VmRSS")


def cpu_time() -> float:
    """CPU seconds used by this process and its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def timed(fn, sample: bool = True) -> tuple[object, float, float]:
    """(result or exception, wall time, CPU time at reference speed).

    The host's speed swings by up to 2x within a second, as other
    tenants share its cores. With ``sample``, a timer interrupts the call
    every PROBE_INTERVAL_S to time the probe, and the probes' own time is
    taken out. The reference-speed time scales the call's CPU time by the
    probes' mean speed relative to one that runs the probe in
    REFERENCE_PROBE_S. Time off the CPU is left out: on a shared VM it is
    almost all time the hypervisor gives this core to other tenants (the
    steal time in /proc/stat), and it swung from 1% to 40% of a pass
    between runs a minute apart. The wall time keeps it.
    """
    probes = [(0.0, probe())]

    def on_timer(signum, frame):
        start = time.perf_counter()
        probes.append((start, probe()))

    if sample:
        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    c0 = cpu_time()
    t0 = time.perf_counter()
    try:
        output = fn()
    except Exception as exc:  # an unexpected error is a failed operation
        output = exc
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        t1 = time.perf_counter()
        c1 = cpu_time()
    in_call = sum(d for start, d in probes if t0 <= start < t1)
    elapsed = t1 - t0 - in_call
    on_cpu = min(max(c1 - c0 - in_call, 0.0), elapsed)
    probes.append((0.0, probe()))
    # Probes are spread evenly in time, so their mean speed is the call's.
    speed = statistics.fmean(REFERENCE_PROBE_S / d for _, d in probes)
    return output, elapsed, on_cpu * speed


def one_pass(workload, tally: Tally, sample: bool) -> tuple[float, float]:
    """Run and gate one pass: (wall time, CPU time at reference speed)."""
    workload.prepare()
    # Flush the previous pass's writes, so that their writeback does not
    # land in this pass's time.
    os.sync()
    output, elapsed, normalized = timed(workload.run, sample)
    if isinstance(output, Exception):
        tally.check(False, f"pass raised {type(output).__name__}: {output}")
    else:
        workload.check(tally, output)
    return elapsed, normalized


def setup_times() -> list[tuple[float, float]]:
    """(wall, reference-speed) times of fresh interpreters importing springsim.cli."""
    cmd = [sys.executable, "-c", "import springsim.cli"]
    subprocess.run(cmd, check=True)  # writes the bytecode caches
    times = []
    for _ in range(SETUP_RUNS):
        # No timeout: waiting with one polls in steps of up to 50 ms.
        # run.py bounds the whole process group instead.
        proc, elapsed, normalized = timed(lambda: subprocess.run(cmd))
        if isinstance(proc, Exception) or proc.returncode != 0:
            raise RuntimeError(f"importing springsim.cli failed: {proc}")
        times.append((elapsed, normalized))
    return times


def closed_loop(workload, tally: Tally, seconds: float):
    """(wall, reference-speed) times of passes run back to back.

    Runs for ``seconds`` of wall time, and at least one pass.
    """
    times = []
    start = time.perf_counter()
    while True:
        times.append(one_pass(workload, tally, sample=True))
        if time.perf_counter() - start >= seconds:
            return times


def parity(workdir: Path, tally: Tally) -> float:
    """max |dtheta|, |dtau| between this kernel's and the pure kernel's paper-grid traces."""
    installed, pure = workdir / "parity_installed", workdir / "parity_pure"
    code, _ = cli("grid", "--table", "paper", "--out", str(installed))
    script = "import sys; from springsim.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, "grid", "--table", "paper", "--out", str(pure)],
        env=dict(os.environ, SPRINGSIM_PURE="1"),
        capture_output=True,
        timeout=120,
    )
    names = sorted(p.name for p in (installed / "traces").glob("*.csv"))
    same = names == sorted(p.name for p in (pure / "traces").glob("*.csv"))
    tally.check(code == 0 and proc.returncode == 0 and same and bool(names), "parity runs differ")
    if not (same and names):
        return -1.0
    worst = 0.0
    for name in names:
        a = np.loadtxt(installed / "traces" / name, delimiter=",", skiprows=1, ndmin=2)
        b = np.loadtxt(pure / "traces" / name, delimiter=",", skiprows=1, ndmin=2)
        if a.shape != b.shape:
            return -1.0
        worst = max(worst, float(np.abs(a[:, 1:] - b[:, 1:]).max()))
    return worst


def traced_run(workload, tally: Tally, seconds: float, spans_path: str) -> dict:
    """Untraced and traced passes in turn, so that host drift cancels in their difference.

    Neither kind is interrupted by speed probes, which would land in the
    layers' self times. Runs for ``seconds`` or TRACED_PASSES pairs.
    """
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < TRACED_PASSES and (
        not traced or time.perf_counter() - start < seconds
    ):
        untraced.append(one_pass(workload, tally, sample=False))
        tracer.install()
        try:
            traced.append(one_pass(workload, tally, sample=False))
        finally:
            tracer.uninstall()
        tracer.end_pass(keep_spans=SPAN_BUDGET)
    tracer.write(spans_path)
    return {
        "passes": untraced,
        "traced_passes": traced,
        "layers": tracer.summary(),
        "count_errors": tracer.count_errors,
        "untraced": tracer.untraced,
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    # One core for the worker and the interpreters it starts, so that the
    # speed probes run on the core whose speed they correct for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = {
        "backend": getattr(springsim, "BACKEND", "unknown"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if not job["trace"]:
        result["setup"] = setup_times()
    workload = WORKLOADS[job["workload"]](job)
    # The harness's own inputs (the stream's samples, the oracle) would make every
    # full collection slower; a user's process would not hold them.
    gc.freeze()
    tally = Tally()
    if job["trace"]:
        one_pass(workload, tally, sample=False)  # warm-up: lazy imports
        result["parity_max_abs"] = parity(Path(job["workdir"]), tally)
        result.update(traced_run(workload, tally, job["seconds"], job["spans"]))
    else:
        # Peak RSS counts from here: the harness's inputs are loaded and
        # are not the program's memory.
        rss_inputs = reset_peak_rss()
        one_pass(workload, tally, sample=True)  # warm-up: lazy imports and first-touch allocations
        start = time.perf_counter()
        passes = [one_pass(workload, tally, sample=True) for _ in range(RSS_PASSES)]
        result["peak_rss_mb"] = rss_mib("VmHWM") - rss_inputs
        result["peak_rss_passes"] = 1 + RSS_PASSES
        passes += closed_loop(workload, tally, job["seconds"] - (time.perf_counter() - start))
        result["passes"] = passes
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        max_rel_err=tally.max_rel_err,
        problems=tally.problems,
    )
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
