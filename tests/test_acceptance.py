"""Acceptance suite: the eight release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Every tolerance is fixed here, not calibrated at runtime.
"""

import contextlib
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from springsim import (
    EnergyModel,
    LegGeometry,
    SpringParams,
    Trajectory,
    WindowState,
    energy,
    fit_external,
    fit_optimal,
    fk_height,
    gravity_knee_torque,
    ik_angle,
    jacobian,
    load_trajectory,
    paper_table,
    run,
    run_grid,
    save_trajectory,
    stationarity_residual,
)
from springsim import trajectory
from springsim.cli import main as cli_main
from springsim.fitting import _energy_raw, _gradient_raw

from conftest import make_trajectory

MODEL = EnergyModel()
PAPER_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench/reference/paper_grid.json"

#: ``springsim fit --json`` on the ``pinned_fit_log`` fixture, as ``repr``,
#: recorded when the fit first streamed the log through merged centred
#: block moments (``e0`` is older: it did not move then). Like the
#: paper-grid digest, it holds for the BLAS dot kernel of the x86-64 host
#: that recorded it.
FIT_PIN = {
    "mu_star": "11.99967744358281",
    "alpha0_star": "2.300008003503753",
    "e0": "1943.9915361287085",
    "ea": "1.2545215126442021e-05",
}


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL  {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS  {title}")


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def timed_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_grid")
    t0 = time.perf_counter()
    report = run_grid(paper_table(), out, MODEL)
    elapsed = time.perf_counter() - t0
    assert report.ok, report.failures
    return report, elapsed


def test_criterion_1_fitter_oracle_equivalence():
    with criterion(1, "fit matches normal-equations oracle (1e-9, < 1 s for 100 fits)"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for _ in range(100):
            traj = make_trajectory(rng)  # lengths 10..2000, non-degenerate alpha
            diag = fit_optimal(traj, MODEL)
            design = np.column_stack([traj.alpha, -np.ones(len(traj))])
            (mu_ols, c_ols), *_ = np.linalg.lstsq(design, traj.tau, rcond=None)
            assert _rel_close(diag.mu_star, mu_ols, 1e-9)
            assert _rel_close(diag.mu_star * diag.alpha0_star, c_ols, 1e-9)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_2_stationarity():
    with criterion(2, "gradients vanish at optima; match finite differences elsewhere"):
        rng = np.random.default_rng(202)
        # (a) every fitted optimum is stationary
        for _ in range(100):
            traj = make_trajectory(rng)
            diag = fit_optimal(traj, MODEL)
            bound = 1e-6 * max(1.0, energy(traj, MODEL))
            g_mu, g_a0 = _gradient_raw(
                traj.alpha, traj.tau, traj.dt, 1.0, diag.mu_star, diag.alpha0_star
            )
            assert abs(g_mu) <= bound
            assert abs(g_a0) <= bound
        # (b) analytic gradients match central differences at random springs
        for _ in range(100):
            traj = make_trajectory(rng, n=int(rng.integers(10, 500)))
            mu = float(rng.uniform(0.0, 8.0))
            alpha0 = float(rng.uniform(-3.0, 3.0))
            g_mu, g_a0 = stationarity_residual(traj, SpringParams(mu, alpha0), MODEL)
            a, t, dt = traj.alpha, traj.tau, traj.dt
            h_mu = 1e-6 * max(1.0, abs(mu))
            h_a0 = 1e-6 * max(1.0, abs(alpha0))
            fd_mu = (
                _energy_raw(a, t, dt, 1.0, mu + h_mu, alpha0)
                - _energy_raw(a, t, dt, 1.0, mu - h_mu, alpha0)
            ) / (2 * h_mu)
            fd_a0 = (
                _energy_raw(a, t, dt, 1.0, mu, alpha0 + h_a0)
                - _energy_raw(a, t, dt, 1.0, mu, alpha0 - h_a0)
            ) / (2 * h_a0)
            assert _rel_close(g_mu, fd_mu, 1e-6)
            assert _rel_close(g_a0, fd_a0, 1e-6)


def test_criterion_3_optimality_by_perturbation(timed_grid):
    with criterion(3, "1000 perturbations per grid row never beat the fitted optimum"):
        report, _ = timed_grid
        rng = np.random.default_rng(303)
        for result in report.results:
            traj = load_trajectory(result.trace_no_spring)
            diag = fit_optimal(traj, MODEL)
            a, t, dt = traj.alpha, traj.tau, traj.dt
            deltas = rng.uniform(-1.0, 1.0, size=(1000, 2))
            mus = diag.mu_star + deltas[:, 0]
            a0s = diag.alpha0_star + deltas[:, 1]
            r = t[None, :] - mus[:, None] * (a[None, :] - a0s[:, None])
            energies = (r * r).sum(axis=1) * dt
            assert float(energies.min()) >= diag.residual_energy - 1e-9, result.spec.label


def test_criterion_4_grid_trends(timed_grid):
    with criterion(
        4, "grid < 60 s; Ea/E0 < 0.10 per row; mu* monotone in T; mass ratio in [1.7, 2.3]"
    ):
        report, elapsed = timed_grid
        assert elapsed < 60.0, f"grid took {elapsed:.1f} s"
        assert len(report.results) == 6
        by_label = {r.spec.label: r for r in report.results}
        # (a) energy reduction on every row
        for r in report.results:
            assert r.ratio < 0.10, f"{r.spec.label}: ratio {r.ratio}"
        # (b) stiffness decreases monotonically with the motion period
        mu_fast = by_label["period_0.94"].mu_star
        mu_base = by_label["baseline"].mu_star
        mu_slow = by_label["period_3.77"].mu_star
        assert mu_fast > mu_base > mu_slow
        # (c) doubling the mass roughly doubles the stiffness
        ratio = by_label["mass_8.1"].mu_star / by_label["baseline"].mu_star
        assert 1.7 <= ratio <= 2.3, f"mass ratio {ratio}"


def test_criterion_5_equivariance_suite():
    with criterion(5, "torque-scale, angle-shift and K-invariance on 100 trajectories"):
        rng = np.random.default_rng(505)
        for _ in range(100):
            traj = make_trajectory(rng, n=int(rng.integers(10, 800)))
            base = fit_optimal(traj, MODEL)
            s = float(rng.uniform(0.1, 10.0))
            delta = float(rng.uniform(-4.0, 4.0))
            scaled = fit_optimal(
                Trajectory(traj.t, traj.alpha, s * traj.tau, dt=traj.dt), MODEL
            )
            assert _rel_close(scaled.mu_star, s * base.mu_star, 1e-9)
            assert _rel_close(scaled.alpha0_star, base.alpha0_star, 1e-9)
            shifted = fit_optimal(
                Trajectory(traj.t, traj.alpha + delta, traj.tau, dt=traj.dt), MODEL
            )
            assert _rel_close(shifted.mu_star, base.mu_star, 1e-9)
            assert _rel_close(shifted.alpha0_star, base.alpha0_star + delta, 1e-9)
            k = float(rng.uniform(0.01, 100.0))
            other = fit_optimal(traj, EnergyModel(k_motor=k))
            assert other.mu_star == base.mu_star
            assert other.alpha0_star == base.alpha0_star
            r1 = base.residual_energy / energy(traj, MODEL)
            r2 = other.residual_energy / energy(traj, EnergyModel(k_motor=k))
            assert _rel_close(r1, r2, 1e-9)


def test_criterion_6_kinematics_suite():
    with criterion(6, "FK/IK (1e-12), Jacobian vs FD (1e-8), gravity torque vs FD (1e-6)"):
        geom = LegGeometry(link_len=0.28, mass=4.1, g=9.81)
        rng = np.random.default_rng(606)
        for h in rng.uniform(1e-4, geom.max_height, size=100):
            assert abs(fk_height(geom, ik_angle(geom, h)) - h) <= 1e-12
        for theta in rng.uniform(1e-4, math.pi, size=100):
            assert abs(ik_angle(geom, fk_height(geom, theta)) - theta) <= 1e-12
        step = 1e-6
        for theta in rng.uniform(0.05, math.pi - 0.05, size=100):
            fd = (fk_height(geom, theta + step) - fk_height(geom, theta - step)) / (2 * step)
            assert abs(jacobian(geom, theta) - fd) <= 1e-8
            pe_fd = (
                geom.mass * geom.g * fk_height(geom, theta + step)
                - geom.mass * geom.g * fk_height(geom, theta - step)
            ) / (2 * step)
            assert _rel_close(gravity_knee_torque(geom, theta), pe_fd, 1e-6)


def test_criterion_7_convergence_and_determinism(tmp_path):
    with criterion(7, "E0 changes < 1% when physics_dt halves; runs are byte-identical"):
        spec = paper_table()[0]
        cfg_coarse = spec.to_sim_config()
        e_coarse = energy(run(cfg_coarse), MODEL)
        spec_fine = type(spec)(
            label=spec.label,
            mass=spec.mass,
            t_period=spec.t_period,
            amplitude=spec.amplitude,
            h0=spec.h0,
            overrides={"physics_dt": 5e-4},
        )
        e_fine = energy(run(spec_fine.to_sim_config()), MODEL)
        assert abs(e_fine - e_coarse) / e_coarse < 0.01
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        save_trajectory(run(cfg_coarse), p1)
        save_trajectory(run(cfg_coarse), p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_criterion_8_streaming_batch_equivalence():
    with criterion(8, "window fits equal batch fits on every slice of a 10k log (1e-9)"):
        rng = np.random.default_rng(808)
        n, cap = 10_000, 250
        dt = 0.01
        alpha = 0.7 + 0.6 * (rng.random(n) - 0.5)
        tau = 6.0 * (alpha - 2.2) + 0.5 * rng.standard_normal(n)
        log = Trajectory(np.arange(n) * dt, alpha, tau, dt=dt)
        window = WindowState(capacity=cap, dt=dt)
        checked = 0
        for i, sample in enumerate(log):
            window.push(sample)
            if window.n < cap:
                continue
            lo = i - cap + 1
            batch = fit_optimal(
                Trajectory(log.t[lo : i + 1], alpha[lo : i + 1], tau[lo : i + 1], dt=dt),
                MODEL,
            )
            stream = window.fit()
            assert _rel_close(stream.mu_star, batch.mu_star, 1e-9)
            assert _rel_close(stream.alpha0_star, batch.alpha0_star, 1e-9)
            assert abs(stream.residual_energy - batch.residual_energy) <= 1e-9 * max(
                1.0, batch.residual_energy
            )
            checked += 1
        assert checked == n - cap + 1


def test_paper_report_is_byte_identical_to_the_benchmark_reference(grid_dir):
    # The benchmark gates every pass on this digest; pinning it here makes a
    # change to any reported float fail tier-1 too.
    out, _ = grid_dir
    digest = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
    assert digest == json.loads(PAPER_REFERENCE.read_text())["report_sha256"]


@pytest.fixture(scope="module")
def pinned_fit_log(tmp_path_factory):
    """A seeded 150k-sample log of 7.0 MB, 856 default chunks.

    Its angles spread 1e-3 rad around 2 rad, so the cancellation in the
    raw-sum fit shows a change in any sum. It is made from uniform draws
    and arithmetic only, so its bytes are the same on every platform.
    """
    n = 150_000
    rng = np.random.default_rng(11)
    t = np.arange(n) * 1e-3
    alpha = 2.0 + 1e-3 * (rng.random(n) - 0.5)
    tau = 12.0 * (alpha - 2.3) + 1e-3 * (rng.random(n) - 0.5)
    path = tmp_path_factory.mktemp("fit_pin") / "log.csv"
    save_trajectory(Trajectory(t, alpha, tau, dt=1e-3), path)
    return path


@pytest.mark.parametrize("chunk", [1 << 17, trajectory._CHUNK_BYTES, 1 << 13, 1, 7, 64])
def test_fit_output_is_pinned_for_any_chunk_size(pinned_fit_log, monkeypatch, capsys, chunk):
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", chunk)
    assert cli_main(["fit", str(pinned_fit_log), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_samples"] == 150_000
    assert {key: repr(out[key]) for key in FIT_PIN} == FIT_PIN


def test_fit_matches_a_centred_exact_sum_oracle(pinned_fit_log):
    # The raw sums of fit_optimal lose about 1e-8 of mu* on this log; the
    # fit of a log longer than a block keeps about 1e-15.
    traj = load_trajectory(pinned_fit_log)
    alpha, tau = traj.alpha, traj.tau
    mean_a = math.fsum(alpha) / alpha.size
    mean_t = math.fsum(tau) / tau.size
    da, dtau = alpha - mean_a, tau - mean_t
    mu = math.fsum(da * dtau) / math.fsum(da * da)
    residual = dtau - mu * da
    oracle = {
        "mu_star": mu,
        "alpha0_star": mean_a - mean_t / mu,
        "ea": MODEL.k_motor * math.fsum(residual * residual) * traj.dt,
    }
    info = fit_external(pinned_fit_log, MODEL)
    for key, value in oracle.items():
        assert abs(info[key] - value) <= 1e-12 * abs(value), (key, info[key], value)
