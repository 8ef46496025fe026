"""Two-phase experiment orchestration and file-based reporting.

Protocol per experiment: (A) simulate without a spring, fit the optimal
spring to the log; (B) re-simulate with the fitted spring; compare the
motor energies. A negative (or undefined-equilibrium) fit is clamped to
"no spring" here -- the fitter itself stays faithful to the closed form
and merely flags such results.

A grid of experiments produces, inside ``out_dir``:

    report.csv      label,m,T,A,h0,E0,Ea,mu_star,alpha0_star,ratio
    specs.ini       the resolved experiment list (reusable via --specs)
    failures.csv    label,error   (only when something failed; a clean
                    rerun removes an older one)
    traces/<label>_no_spring.csv / _with_spring.csv   (only for the rows in
                    report.csv; a rerun removes the traces of other labels)

All files are written atomically (temp + rename) and byte-deterministic;
failures.csv is quoted where a message holds a comma or a quote.

``springsim traces`` reads report.csv, specs.ini and the two traces of
every report row back from such a directory. A report row must hold
exactly as many cells as the header; each row needs its spec and both
trace files, and all of them are checked before the first overlay is
written.
"""

from __future__ import annotations

import configparser
import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

from ._fileio import atomic_write, float_rows, make_dir, remove_file
from .errors import (
    ConfigError,
    DegenerateTrajectory,
    EmptySpecList,
    IoFailure,
    MissingTrace,
    SpringSimError,
)
from .fitting import EnergyModel, FitDiagnostics, energy, fit_optimal
from .leg import LegGeometry
from .simulator import ControllerConfig, SimConfig, run
from .svgplot import line_plot
from .trajectory import SpringParams, Trajectory, load_trajectory, save_trajectory

SCHEMA_VERSION = "1"

REPORT_HEADER = "label,m,T,A,h0,E0,Ea,mu_star,alpha0_star,ratio"
TRACES_SUBDIR = "traces"
SPECS_FILENAME = "specs.ini"

_LABEL = r"[A-Za-z0-9._-]+"
_LABEL_RE = re.compile(rf"^{_LABEL}$")
_TRACE_NAME_RE = re.compile(rf"{_LABEL}_(?:no|with)_spring\.csv")

#: The motion parameters every ExperimentSpec sets (required specs-file keys).
MOTION_KEYS = ("mass", "t_period", "amplitude", "h0")

#: SimConfig fields an ExperimentSpec may override (specs-file keys).
OVERRIDE_KEYS = (
    "link_len",
    "g",
    "kp",
    "kd",
    "control_rate",
    "duration",
    "physics_dt",
    "sine_convention",
    "torque_limit",
)


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """One grid row: motion parameters plus optional config overrides."""

    label: str
    mass: float
    t_period: float
    amplitude: float
    h0: float
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _LABEL_RE.match(self.label):
            raise ValueError(f"label must be filesystem-safe, got {self.label!r}")
        unknown = set(self.overrides) - set(OVERRIDE_KEYS)
        if unknown:
            raise ValueError(f"{self.label}: unknown overrides {sorted(unknown)}")
        # The motion and overrides are checked where they are used: by
        # SimConfig and its parts.
        try:
            self.to_sim_config()
        except ValueError as exc:
            raise ValueError(f"{self.label}: {exc}") from exc

    def to_sim_config(self, spring: SpringParams | None = None) -> SimConfig:
        """The run this spec describes; fields it does not override keep
        the defaults of :class:`SimConfig` and its parts."""
        ov = {
            k: str(v) if k == "sine_convention" else float(v)
            for k, v in self.overrides.items()
        }

        def given(*names: str) -> dict:
            return {k: ov[k] for k in names if k in ov}

        return SimConfig(
            geom=LegGeometry(mass=self.mass, **given("link_len", "g")),
            controller=ControllerConfig(**given("kp", "kd", "control_rate")),
            h0=self.h0,
            amplitude=self.amplitude,
            t_period=self.t_period,
            spring=spring,
            **given("sine_convention", "duration", "physics_dt", "torque_limit"),
        )


@dataclass(frozen=True, slots=True)
class ExperimentResult:
    """Outcome of the two-phase protocol for one spec."""

    spec: ExperimentSpec
    e0: float
    ea: float
    trace_no_spring: Path
    trace_with_spring: Path
    fit: FitDiagnostics
    clamped: bool = False

    def __post_init__(self) -> None:
        if not self.e0 > 0:
            raise ValueError(f"{self.spec.label}: e0 must be > 0, got {self.e0!r}")

    @property
    def mu_star(self) -> float:
        return self.fit.mu_star

    @property
    def alpha0_star(self) -> float:
        return self.fit.alpha0_star

    @property
    def ratio(self) -> float:
        return self.ea / self.e0


def paper_table() -> list[ExperimentSpec]:
    """The built-in six-row benchmark grid (``--table paper``)."""
    return [
        ExperimentSpec("baseline", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2),
        ExperimentSpec("amplitude_0.08", mass=4.1, t_period=1.88, amplitude=0.08, h0=0.2),
        ExperimentSpec("h0_0.15", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.15),
        ExperimentSpec("mass_8.1", mass=8.1, t_period=1.88, amplitude=0.05, h0=0.2),
        ExperimentSpec("period_0.94", mass=4.1, t_period=0.94, amplitude=0.05, h0=0.2),
        ExperimentSpec("period_3.77", mass=4.1, t_period=3.77, amplitude=0.05, h0=0.2),
    ]


def run_experiment(
    spec: ExperimentSpec,
    out_dir,
    model: EnergyModel = EnergyModel(),
) -> ExperimentResult:
    """Run the two-phase protocol for one spec, persisting both traces.

    Raises:
        DegenerateTrajectory: Phase A produced a constant-angle log (the
            message carries the experiment label).
    """
    traces_dir = Path(out_dir) / TRACES_SUBDIR
    make_dir(traces_dir)

    traj_a = run(spec.to_sim_config())
    try:
        diag = fit_optimal(traj_a, model)
    except DegenerateTrajectory as exc:
        raise DegenerateTrajectory(f"{spec.label}: {exc}") from exc

    clamped = not (diag.physical and diag.alpha0_defined)
    spring = None if clamped else SpringParams(diag.mu_star, diag.alpha0_star)
    traj_b = run(spec.to_sim_config(spring=spring))

    e0 = energy(traj_a, model)
    ea = energy(traj_b, model)
    path_a, path_b = _trace_paths(traces_dir, spec.label)
    save_trajectory(traj_a, path_a)
    save_trajectory(traj_b, path_b)
    return ExperimentResult(
        spec=spec,
        e0=e0,
        ea=ea,
        trace_no_spring=path_a,
        trace_with_spring=path_b,
        fit=diag,
        clamped=clamped,
    )


def _trace_paths(traces_dir: Path, label: str) -> tuple[Path, Path]:
    """The (no spring, with spring) trajectory files of one grid row."""
    return traces_dir / f"{label}_no_spring.csv", traces_dir / f"{label}_with_spring.csv"


@dataclass(frozen=True, slots=True)
class GridReport:
    results: list[ExperimentResult]
    failures: list[tuple[str, str]]
    report_path: Path

    @property
    def ok(self) -> bool:
        return not self.failures


def _fmt(x: float) -> str:
    return repr(float(x))


def run_grid(
    specs: list[ExperimentSpec],
    out_dir,
    model: EnergyModel = EnergyModel(),
) -> GridReport:
    """Run every spec, then write report.csv (+ specs.ini, failures.csv).

    A spec that fails with a :class:`SpringSimError` or ``ValueError`` is
    recorded (label, error string) and does not stop the remaining rows;
    any other exception is a bug and propagates. Rerunning into the same
    out_dir reproduces identical bytes.

    Raises:
        EmptySpecList: Empty spec list.
        ValueError: Duplicate labels.
        IoFailure: out_dir or its traces/ could not be created, or a stale
            failures.csv or trace could not be removed.
    """
    if not specs:
        raise EmptySpecList("spec list is empty")
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in spec list: {labels}")
    out_dir = Path(out_dir)
    make_dir(out_dir / TRACES_SUBDIR)

    results: list[ExperimentResult] = []
    failures: list[tuple[str, str]] = []
    for spec in specs:
        try:
            results.append(run_experiment(spec, out_dir, model))
        except (SpringSimError, ValueError) as exc:
            failures.append((spec.label, f"{type(exc).__name__}: {exc}"))

    lines = [REPORT_HEADER]
    for r in results:
        s = r.spec
        lines.append(
            ",".join(
                [
                    s.label,
                    _fmt(s.mass),
                    _fmt(s.t_period),
                    _fmt(s.amplitude),
                    _fmt(s.h0),
                    _fmt(r.e0),
                    _fmt(r.ea),
                    _fmt(r.mu_star),
                    _fmt(r.alpha0_star),
                    _fmt(r.ratio),
                ]
            )
        )
    report_path = out_dir / "report.csv"
    atomic_write(report_path, "\n".join(lines) + "\n")
    save_specs_file(specs, out_dir / SPECS_FILENAME)
    failures_path = out_dir / "failures.csv"
    if failures:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([("label", "error"), *failures])
        atomic_write(failures_path, buf.getvalue())
    else:
        remove_file(failures_path)  # left by an earlier, failed run
    _remove_stale_traces(out_dir / TRACES_SUBDIR, results)
    return GridReport(results=results, failures=failures, report_path=report_path)


def _remove_stale_traces(traces_dir: Path, results: list[ExperimentResult]) -> None:
    """Delete every trace file in traces_dir that no row of ``results`` wrote.

    Only files named like a trace are candidates, so traces of labels
    dropped from the spec list, or of rows that failed this time, go and
    everything else stays.

    Raises:
        IoFailure: traces_dir could not be listed or a file removed.
    """
    keep = {p.name for r in results for p in (r.trace_no_spring, r.trace_with_spring)}
    try:
        stale = [
            p
            for p in traces_dir.iterdir()
            if _TRACE_NAME_RE.fullmatch(p.name) and p.name not in keep and p.is_file()
        ]
    except OSError as exc:
        raise IoFailure(traces_dir, exc) from exc
    for p in stale:
        remove_file(p)


def load_report(path) -> list[dict]:
    """Parse report.csv back into one dict per row (floats restored)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"grid report not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0] != REPORT_HEADER:
        raise ConfigError(f"{path}: not a grid report (bad header)")
    cols = REPORT_HEADER.split(",")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        vals = line.split(",")
        if len(vals) != len(cols):
            raise ConfigError(
                f"{path}:{line_no}: {len(vals)} cells, the header has {len(cols)}"
            )
        row: dict = {"label": vals[0]}
        try:
            for name, raw in zip(cols[1:], vals[1:]):
                row[name] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from exc
        rows.append(row)
    return rows


# --- torque traces ------------------------------------------------------------


def _write_period_overlay(
    traj_a: Trajectory, traj_b: Trajectory, spec: ExperimentSpec, out_dir
) -> tuple[Path, Path]:
    """Cut one reference period of both torque logs into a CSV + SVG overlay.

    The window is the last complete period, so its start time is an
    integer multiple of the period (phase-aligned with the reference).

    Returns:
        (csv_path, svg_path).

    Raises:
        ConfigError: The logs are too short for a period, or differ in length.
    """
    label = spec.label
    out_dir = Path(out_dir)
    make_dir(out_dir)
    n = len(traj_a)
    n_period = round(spec.t_period * spec.to_sim_config().controller.control_rate)
    if n_period < 2 or n_period > n or len(traj_b) != n:
        raise ConfigError(
            f"{label}: cannot cut a {n_period}-sample period from {n}/{len(traj_b)} samples"
        )
    k0 = (n // n_period - 1) * n_period
    sl = slice(k0, k0 + n_period)
    t_rel = (traj_a.t[sl] - traj_a.t[k0]).tolist()
    tau_a = traj_a.tau[sl].tolist()
    tau_b = traj_b.tau[sl].tolist()

    csv_path = out_dir / f"{label}_torques.csv"
    header = "t,tau_no_spring_Nm,tau_with_spring_Nm"
    atomic_write(csv_path, float_rows(header, t_rel, tau_a, tau_b))

    svg_path = out_dir / f"{label}_torques.svg"
    line_plot(
        svg_path,
        [("no spring", t_rel, tau_a), ("with spring", t_rel, tau_b)],
        title=f"Knee motor torque over one period: {label}",
        xlabel="time within period [s]",
        ylabel="motor torque [N m]",
    )
    return csv_path, svg_path


def export_traces_from_dir(result_dir, out_dir) -> list[tuple[Path, Path]]:
    """Recreate per-row period overlays from a finished grid directory.

    Every row's spec (else ConfigError) and both trace files (else
    MissingTrace) are checked before the first overlay is written.
    """
    result_dir = Path(result_dir)
    rows = load_report(result_dir / "report.csv")
    specs = {s.label: s for s in load_specs_file(result_dir / SPECS_FILENAME)}
    jobs = []
    for row in rows:
        spec = specs.get(row["label"])
        if spec is None:
            raise ConfigError(f"{result_dir}: spec for report row {row['label']!r} missing")
        paths = _trace_paths(result_dir / TRACES_SUBDIR, spec.label)
        for p in paths:
            if not p.is_file():
                raise MissingTrace(p)
        jobs.append((spec, paths))
    return [
        _write_period_overlay(load_trajectory(path_a), load_trajectory(path_b), spec, out_dir)
        for spec, (path_a, path_b) in jobs
    ]


# --- external-log fitting -----------------------------------------------------


def fit_external(log_path, model: EnergyModel = EnergyModel()) -> dict:
    """Fit a spring to an arbitrary trajectory CSV; summary as a dict.

    Propagates load/fit errors (they carry file/line context).
    """
    traj = load_trajectory(log_path)
    diag = fit_optimal(traj, model)
    e0 = energy(traj, model)
    return {
        "path": str(log_path),
        "n_samples": len(traj),
        "dt": traj.dt,
        "mu_star": diag.mu_star,
        # undefined equilibria stay flagged, not numeric (also keeps the
        # --json output strict: NaN is not valid JSON)
        "alpha0_star": diag.alpha0_star if diag.alpha0_defined else None,
        "e0": e0,
        "ea": diag.residual_energy,
        "ratio": diag.residual_energy / e0 if e0 > 0 else 0.0,
        "physical": diag.physical,
        "alpha0_defined": diag.alpha0_defined,
    }


# --- config files ---------------------------------------------------------------


def _read_ini(path) -> configparser.ConfigParser:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if "springsim" not in parser:
        raise ConfigError(f"{path}: missing [springsim] section")
    schema = parser["springsim"].get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported schema {schema!r} (expected {SCHEMA_VERSION!r})"
        )
    return parser


def _spec_from_section(name: str, sec) -> ExperimentSpec:
    try:
        required = {k: float(sec[k]) for k in MOTION_KEYS}
    except KeyError as exc:
        raise ConfigError(f"[{name}]: missing required key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc
    overrides: dict = {}
    for key in sec:
        if key in MOTION_KEYS:
            continue
        if key not in OVERRIDE_KEYS:
            raise ConfigError(f"[{name}]: unknown key {key!r}")
        try:
            overrides[key] = sec[key] if key == "sine_convention" else float(sec[key])
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {key}: {exc}") from exc
    try:
        return ExperimentSpec(label=name, overrides=overrides, **required)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def load_specs_file(path) -> list[ExperimentSpec]:
    """Read an experiment list (INI, one section per spec)."""
    parser = _read_ini(path)
    specs = [
        _spec_from_section(name, parser[name])
        for name in parser.sections()
        if name != "springsim"
    ]
    if not specs:
        raise EmptySpecList(f"{path}: no experiment sections")
    return specs


def save_specs_file(specs: list[ExperimentSpec], path) -> None:
    """Write the resolved spec list in the --specs input format."""
    lines = ["[springsim]", f"schema = {SCHEMA_VERSION}", ""]
    for s in specs:
        lines.append(f"[{s.label}]")
        lines.extend(f"{key} = {_fmt(getattr(s, key))}" for key in MOTION_KEYS)
        for key in OVERRIDE_KEYS:
            if key in s.overrides:
                v = s.overrides[key]
                lines.append(f"{key} = {v if isinstance(v, str) else _fmt(v)}")
        lines.append("")
    atomic_write(path, "\n".join(lines))


def load_run_config(path) -> SimConfig:
    """Read a single-run config ([run] section; optional spring_mu/alpha0)."""
    parser = _read_ini(path)
    if "run" not in parser:
        raise ConfigError(f"{path}: missing [run] section")
    sec = parser["run"]
    keys = set(sec)
    spring = None
    if "spring_mu" in keys or "spring_alpha0" in keys:
        if not {"spring_mu", "spring_alpha0"} <= keys:
            raise ConfigError(f"{path}: spring_mu and spring_alpha0 must both be set")
        try:
            spring = SpringParams(float(sec["spring_mu"]), float(sec["spring_alpha0"]))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        keys -= {"spring_mu", "spring_alpha0"}
    spec = _spec_from_section("run", {k: sec[k] for k in keys})
    try:
        return spec.to_sim_config(spring=spring)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
