"""Command-line interface.

Subcommands::

    springsim run    --config FILE [--out traj.csv]
    springsim grid   (--table paper | --specs FILE) --out DIR
    springsim fit    TRAJ.csv [--json]
    springsim traces RESULT_DIR --out DIR

Exit codes: 0 success, 1 runtime/fit error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .errors import EmptySpecList, SpringSimError
from .fitting import EnergyModel, energy
from .harness import (
    export_traces_from_dir,
    fit_external,
    load_run_config,
    load_specs_file,
    paper_table,
    run_grid,
)
from .simulator import run as run_sim
from .trajectory import save_trajectory


def _energy_model(text: str) -> EnergyModel:
    """argparse type of ``--k-motor``: the model it sets, else exit code 2."""
    try:
        return EnergyModel(k_motor=float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: argparse's actions, groups and formatters
    # point at each other, so each parser built is garbage for the cyclic
    # collector, and a process may call main() many times.
    parser = argparse.ArgumentParser(
        prog="springsim",
        description="Parallel torsion-spring fitting and energy experiments "
        "for a vertically guided robot leg.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a single configuration")
    p_run.add_argument("--config", required=True, help="run config file (INI, [run] section)")
    p_run.add_argument("--out", default="trajectory.csv", help="output trajectory CSV")
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="run an experiment grid, write report.csv")
    src = p_grid.add_mutually_exclusive_group(required=True)
    src.add_argument("--table", choices=["paper"], help="built-in benchmark grid")
    src.add_argument("--specs", help="experiment list file (INI, one section per row)")
    p_grid.add_argument("--out", required=True, help="output directory")
    p_grid.set_defaults(func=_cmd_grid)

    p_fit = sub.add_parser("fit", help="fit the optimal spring to a trajectory CSV")
    p_fit.add_argument("trajectory", help="trajectory CSV (t,alpha_rad,tau_Nm)")
    p_fit.add_argument("--json", action="store_true", help="machine-readable output")
    p_fit.set_defaults(func=_cmd_fit)
    for p in (p_run, p_grid, p_fit):
        p.add_argument(
            "--k-motor", type=_energy_model, default=EnergyModel(), dest="model",
            metavar="K_MOTOR", help="motor energy constant K",
        )

    p_traces = sub.add_parser(
        "traces", help="export single-period torque overlays from a grid result dir"
    )
    p_traces.add_argument("result_dir", help="directory produced by `springsim grid`")
    p_traces.add_argument("--out", required=True, help="output directory")
    p_traces.set_defaults(func=_cmd_traces)
    return parser


def _cmd_run(args) -> int:
    cfg = load_run_config(args.config)
    traj = run_sim(cfg)
    save_trajectory(traj, args.out)
    e = energy(traj, args.model)
    print(f"wrote {args.out}: {len(traj)} samples @ {1.0 / traj.dt:g} Hz")
    if cfg.spring is not None:
        print(
            f"energy = {e:.6g} J with spring (mu={cfg.spring.mu:g}, "
            f"alpha0={cfg.spring.alpha0:g})"
        )
    else:
        print(f"energy = {e:.6g} J (no spring)")
    return 0


def _cmd_grid(args) -> int:
    specs = paper_table() if args.table == "paper" else load_specs_file(args.specs)
    report = run_grid(specs, args.out, args.model)
    for r in report.results:
        note = "  [clamped to no spring]" if r.clamped else ""
        print(
            f"{r.spec.label:16s} E0={r.e0:12.4f}  Ea={r.ea:10.4f}  "
            f"mu*={r.mu_star:8.4f}  alpha0*={r.alpha0_star:8.4f}  "
            f"ratio={r.ratio:.5f}{note}"
        )
    for label, msg in report.failures:
        print(f"{label}: FAILED: {msg}", file=sys.stderr)
    print(f"report: {report.report_path}")
    return 0 if report.ok else 1


def _cmd_fit(args) -> int:
    info = fit_external(args.trajectory, args.model)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"{info['path']}: {info['n_samples']} samples, dt={info['dt']:g} s")
    print(f"mu*     = {info['mu_star']:.6g} N m/rad")
    if info["alpha0_defined"]:
        print(f"alpha0* = {info['alpha0_star']:.6g} rad")
    else:
        print("alpha0* = undefined (zero angle-torque covariance)")
    print(f"E0      = {info['e0']:.6g} J")
    print(f"Ea      = {info['ea']:.6g} J")
    print(f"Ea/E0   = {info['ratio']:.6g}")
    print(f"physical spring: {'yes' if info['physical'] else 'NO (mu* < 0)'}")
    return 0


def _cmd_traces(args) -> int:
    outputs = export_traces_from_dir(args.result_dir, args.out)
    for csv_path, svg_path in outputs:
        print(f"wrote {csv_path} and {svg_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptySpecList as exc:
        print(f"springsim {args.command}: usage error: {exc}", file=sys.stderr)
        return 2
    except SpringSimError as exc:
        print(f"springsim {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
