"""Two-phase experiment orchestration and file-based reporting.

Protocol per experiment: (A) simulate without a spring, fit the optimal
spring to the log; (B) re-simulate with the fitted spring; compare the
motor energies. A negative (or undefined-equilibrium) fit is clamped to
"no spring" here -- the fitter itself stays faithful to the closed form
and merely flags such results.

A grid of experiments produces, inside ``out_dir``:

    report.csv      label,m,T,A,h0,E0,Ea,mu_star,alpha0_star,ratio
    specs.ini       the resolved experiment list (reusable via --specs)
    failures.csv    label,error   (only when something failed)
    traces/<label>_no_spring.csv / _with_spring.csv   (only for the rows in
                    report.csv)

All files are written atomically (temp + rename) and byte-deterministic;
failures.csv is quoted where a message holds a comma or a quote.

report.csv marks a finished run. A run first removes report.csv,
failures.csv and every file in traces/ named like a trace, then writes
the traces row by row, then specs.ini, failures.csv and, last,
report.csv. So a run that stops part way (an exception, Ctrl-C,
SIGKILL) leaves a directory without a report, which describes no run,
and never one that mixes two runs.

``springsim traces`` reads report.csv, specs.ini and the two traces of
every report row back from such a directory. A report row must hold
exactly as many cells as the header; each row needs its spec and both
trace files, and all of them are checked before the first overlay is
written.

Spec lists and run configs are read by ``_read_ini``, the one place a
``ConfigParser`` lives. It returns plain dicts, and what it leaves for
the cyclic collector does not grow with the file, so a process that
runs grid after grid piles up no garbage from the reads (see
``_read_ini``).
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from ._fileio import atomic_write, float_rows, make_dir, read_file, remove_file
from .errors import (
    ConfigError,
    DegenerateTrajectory,
    EmptySpecList,
    IoFailure,
    MissingTrace,
    SpringSimError,
)
from .fitting import (
    EnergyModel,
    FitDiagnostics,
    _energy_arrays,
    _fit_arrays,
    energy,
    fit_optimal,
)
from .leg import LegGeometry
from .simulator import ControllerConfig, SimConfig, run
from .svgplot import line_plot
from .trajectory import (
    SpringParams,
    Trajectory,
    _read_log,
    load_trajectory,
    save_trajectory,
)

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
        if self.label == "springsim":  # the schema section of a specs file
            raise ValueError("label 'springsim' is reserved for the schema section")
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

    @property
    def clamped(self) -> bool:
        return self.fit.spring is None


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

    traj_b = run(spec.to_sim_config(spring=diag.spring))

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
    """Run every spec, then write specs.ini, failures.csv and report.csv.

    The files of an earlier run go first, as the module docstring says.
    A spec that fails with a :class:`SpringSimError` or ``ValueError`` is
    recorded (label, error string) and does not stop the remaining rows;
    any other exception is a bug and propagates. Rerunning into the same
    out_dir reproduces identical bytes.

    Raises:
        EmptySpecList: Empty spec list.
        ValueError: Duplicate labels.
        IoFailure: out_dir or its traces/ could not be created, or an
            earlier run's file could not be removed.
    """
    if not specs:
        raise EmptySpecList("spec list is empty")
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in spec list: {labels}")
    out_dir = Path(out_dir)
    report_path = out_dir / "report.csv"
    failures_path = out_dir / "failures.csv"
    make_dir(out_dir / TRACES_SUBDIR)
    remove_file(report_path)
    remove_file(failures_path)
    _remove_traces(out_dir / TRACES_SUBDIR)

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
    save_specs_file(specs, out_dir / SPECS_FILENAME)
    if failures:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([("label", "error"), *failures])
        atomic_write(failures_path, buf.getvalue())
    atomic_write(report_path, "\n".join(lines) + "\n")
    return GridReport(results=results, failures=failures, report_path=report_path)


def _remove_traces(traces_dir: Path) -> None:
    """Delete every file in traces_dir named like a trace; everything else stays.

    Raises:
        IoFailure: traces_dir could not be listed or a file removed.
    """
    try:
        stale = [
            p for p in traces_dir.iterdir() if _TRACE_NAME_RE.fullmatch(p.name) and p.is_file()
        ]
    except OSError as exc:
        raise IoFailure(traces_dir, exc) from exc
    for p in stale:
        remove_file(p)


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of input file ``path``, else ConfigError (or IoFailure)."""
    data = read_file(path, ConfigError(f"{what} not found: {path}"))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc


def load_report(path) -> list[dict]:
    """Parse report.csv back into one dict per row (floats restored)."""
    path = Path(path)
    lines = _read_text(path, "grid report").splitlines()
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
    """Cut one motion period of both torque logs into a CSV + SVG overlay.

    The window is the last full motion period, ``2 pi / omega``, in the log
    (phase-aligned): it starts at the sample nearest a whole multiple of it.

    Returns:
        (csv_path, svg_path).

    Raises:
        ConfigError: The logs are too short for a period or differ in
            length, or the plotted torque range is not finite.
    """
    label = spec.label
    out_dir = Path(out_dir)
    make_dir(out_dir)
    n = len(traj_a)
    cfg = spec.to_sim_config()
    period = 2.0 * math.pi / cfg.omega * cfg.controller.control_rate  # in samples
    n_period = round(period)
    if n_period < 2 or n_period > n or len(traj_b) != n:
        raise ConfigError(
            f"{label}: cannot cut a {n_period}-sample period from {n}/{len(traj_b)} samples"
        )
    # m * period < n - n_period + 0.5 keeps round(m * period) + n_period <= n.
    k0 = round(math.floor((n - n_period + 0.5) / period) * period)
    sl = slice(k0, k0 + n_period)
    t_rel = (traj_a.t[sl] - traj_a.t[k0]).tolist()
    tau_a = traj_a.tau[sl].tolist()
    tau_b = traj_b.tau[sl].tolist()

    # The plot goes first: it is the one that can reject the data.
    svg_path = out_dir / f"{label}_torques.svg"
    try:
        line_plot(
            svg_path,
            [("no spring", t_rel, tau_a), ("with spring", t_rel, tau_b)],
            title=f"Knee motor torque over one period: {label}",
            xlabel="time within period [s]",
            ylabel="motor torque [N m]",
        )
    except ValueError as exc:
        raise ConfigError(f"{label}: cannot plot the torques: {exc}") from exc

    csv_path = out_dir / f"{label}_torques.csv"
    header = "t,tau_no_spring_Nm,tau_with_spring_Nm"
    atomic_write(csv_path, float_rows(header, t_rel, tau_a, tau_b))
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

    The numbers are those of :func:`fit_optimal` and :func:`energy` on
    :func:`load_trajectory` of the log, and the errors are those of the
    load: both read it through the one log reader, which keeps only the
    angle and torque columns here, so a well-formed log takes 16 bytes
    per sample plus O(128 KiB), where a load takes 24. Fit and load
    errors name the log; a log whose motor energy is not finite is a
    DegenerateTrajectory.
    """
    (alpha, tau), dt = _read_log(log_path, keep_t=False)
    try:
        diag = _fit_arrays(alpha, tau, dt, model.k_motor)
    except DegenerateTrajectory as exc:
        raise DegenerateTrajectory(f"{log_path}: {exc}") from exc
    e0 = _energy_arrays(tau, dt, model.k_motor)
    if not math.isfinite(e0):
        raise DegenerateTrajectory(f"{log_path}: motor energy {e0!r} is not finite")
    return {
        "path": str(log_path),
        "n_samples": diag.n,
        "dt": dt,
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


def _read_ini(path) -> dict[str, dict[str, str]]:
    """Parse INI file ``path`` (lines end as in text mode); check its schema.

    Returns ``{section: {key: value}}``: plain dicts in file order, keys
    lower-cased, ``[springsim]`` included. ``[springsim]`` holds the
    schema and nothing else.

    The parser leaves only its empty shell (7 objects) for the cyclic
    collector, whatever the file's size. Each section proxy would
    otherwise bind a ``functools.partial`` of its own ``get`` per
    converter, and the parser and its proxies point at each other: one
    read of the benchmark's 104-row sweep list left
    1,489 objects that only a full collection frees. Without them the
    ``sweep`` benchmark's peak RSS fell from 1.96 to 0.88 MiB, and 40
    in-process sweep passes grow RSS by 0.6 MiB, not 3.4 MiB (2-vCPU
    x86-64 VM, Python 3.11.7).
    """
    path = Path(path)
    # No header line can spell "\n", so [DEFAULT] is an ordinary section
    # rather than defaults that leak into every other one.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    # With no converters, no section proxy binds partials of its own get().
    for name in ("int", "float", "boolean"):
        del parser.converters[name]
    # configparser's own text of these errors spans lines or names the file
    # twice, once as a repr: name it and the first bad line once, on one line.
    try:
        parser.read_file(io.StringIO(_read_text(path, "config file"), newline=None), path)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}: no section headers before this line: {exc.line!r}"
        ) from exc
    except configparser.ParsingError as exc:
        line_no, line = exc.errors[0]  # line is a repr already
        raise ConfigError(f"{path}:{line_no}: not a 'key = value' line: {line}") from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}: option {exc.option!r} in section {exc.section!r} "
            "already exists"
        ) from exc
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: section {exc.section!r} already exists") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # Copied out and removed, no section is left in a parser <-> proxy cycle.
    sections = {}
    for name in parser.sections():
        sections[name] = dict(parser.items(name, raw=True))
        parser.remove_section(name)
    if "springsim" not in sections:
        raise ConfigError(f"{path}: missing [springsim] section")
    schema = sections["springsim"].get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported schema {schema!r} (expected {SCHEMA_VERSION!r})"
        )
    for key in sections["springsim"]:
        if key != "schema":
            raise ConfigError(f"{path}: [springsim]: unknown key {key!r}")
    return sections


def _spec_from_section(name: str, sec: dict[str, str]) -> ExperimentSpec:
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
    specs = [
        _spec_from_section(name, sec)
        for name, sec in _read_ini(path).items()
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
    """Read a single-run config: [springsim] and [run], optional spring_mu/alpha0."""
    sections = _read_ini(path)
    for name in sections:
        if name not in ("springsim", "run"):
            raise ConfigError(f"{path}: unknown section [{name}] (expected [springsim] and [run])")
    if "run" not in sections:
        raise ConfigError(f"{path}: missing [run] section")
    sec = sections["run"]
    spring = None
    if "spring_mu" in sec or "spring_alpha0" in sec:
        if not ("spring_mu" in sec and "spring_alpha0" in sec):
            raise ConfigError(f"{path}: spring_mu and spring_alpha0 must both be set")
        try:
            spring = SpringParams(float(sec.pop("spring_mu")), float(sec.pop("spring_alpha0")))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    spec = _spec_from_section("run", sec)
    return spec.to_sim_config(spring=spring)
