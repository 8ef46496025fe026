"""Energy accounting, the closed-form fit, gradients, and the window."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springsim import (
    DegenerateTrajectory,
    EnergyModel,
    SpringParams,
    Trajectory,
    WindowState,
    energy,
    fit_optimal,
    stationarity_residual,
)
from springsim.fitting import _energy_raw, _gradient_raw
from springsim.trajectory import Sample

from conftest import make_trajectory

MODEL = EnergyModel()


def _traj(alpha, tau, dt=0.01):
    alpha = np.asarray(alpha, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return Trajectory(np.arange(alpha.size) * dt, alpha, tau, dt=dt)


def _assert_fit_matches_batch(window, pairs):
    """window.fit() is fit_optimal on ``pairs`` to 1e-12, or both are degenerate."""
    if not pairs:
        with pytest.raises(DegenerateTrajectory):
            window.fit()
        return
    alpha, tau = (np.array(col, dtype=float) for col in zip(*pairs))
    traj = Trajectory(np.arange(alpha.size) * window.dt, alpha, tau, dt=window.dt)
    try:
        batch = fit_optimal(traj, window.model)
    except DegenerateTrajectory:
        with pytest.raises(DegenerateTrajectory):
            window.fit()
        return
    diag = window.fit()
    assert (diag.n, diag.alpha0_defined, diag.physical) == (
        batch.n,
        batch.alpha0_defined,
        batch.physical,
    )
    assert diag.mu_star == pytest.approx(batch.mu_star, rel=1e-12)
    assert diag.alpha0_star == pytest.approx(batch.alpha0_star, rel=1e-12, nan_ok=True)
    # At a near-perfect fit the residual is pure rounding: scale by E0.
    assert diag.residual_energy == pytest.approx(
        batch.residual_energy, rel=1e-12, abs=1e-12 * energy(traj, window.model)
    )


class TestEnergyModel:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            EnergyModel(k_motor=0.0)
        with pytest.raises(ValueError):
            EnergyModel(k_motor=-1.0)


class TestEnergy:
    def test_four_unit_torques(self):
        traj = _traj([0.1, 0.2, 0.3, 0.4], [1.0, 1.0, 1.0, 1.0], dt=0.01)
        assert energy(traj, MODEL) == pytest.approx(0.04, rel=1e-14)

    def test_zero_torque_is_zero(self):
        traj = _traj([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
        assert energy(traj, MODEL) == 0.0

    def test_nonnegative_and_scales_with_k(self):
        rng = np.random.default_rng(0)
        traj = make_trajectory(rng, n=500)
        e1 = energy(traj, EnergyModel(k_motor=1.0))
        e3 = energy(traj, EnergyModel(k_motor=3.0))
        assert e1 > 0
        assert e3 == pytest.approx(3.0 * e1, rel=1e-14)

    def test_matches_naive_accumulation_oracle(self):
        rng = np.random.default_rng(1)
        traj = make_trajectory(rng, n=1000)
        acc = 0.0
        for s in traj:
            acc += s.tau * s.tau * traj.dt
        assert energy(traj, MODEL) == pytest.approx(acc, rel=1e-12)


class TestEnergyWithSpring:
    def test_zero_stiffness_degenerates_exactly(self):
        rng = np.random.default_rng(2)
        traj = make_trajectory(rng, n=300)
        assert _energy_raw(traj.alpha, traj.tau, traj.dt, 1.0, 0.0, 1.23) == energy(traj, MODEL)

    def test_perfect_compensation(self):
        alpha = np.array([0.0, 0.2, 0.5, 0.9])
        tau = 2.0 * (alpha - 0.3)
        traj = _traj(alpha, tau)
        assert _energy_raw(alpha, tau, traj.dt, 1.0, 2.0, 0.3) == 0.0

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(3)
        traj = make_trajectory(rng, n=1000)
        mu, alpha0 = rng.uniform(0.1, 5.0), rng.uniform(-2, 2)
        acc = 0.0
        for s in traj:
            r = s.tau - mu * (s.alpha - alpha0)
            acc += r * r * traj.dt
        got = _energy_raw(traj.alpha, traj.tau, traj.dt, 1.0, mu, alpha0)
        assert got == pytest.approx(acc, rel=1e-12)


class TestFitOptimal:
    def test_exact_linear_law(self):
        alpha = np.array([0.0, 0.2, 0.4, 0.6])
        traj = _traj(alpha, 3.0 * (alpha - 0.5))
        diag = fit_optimal(traj, MODEL)
        assert diag.mu_star == pytest.approx(3.0, rel=1e-12)
        assert diag.alpha0_star == pytest.approx(0.5, rel=1e-12)
        assert diag.residual_energy == pytest.approx(0.0, abs=1e-24)
        assert diag.physical and diag.alpha0_defined
        assert diag.spring == SpringParams(diag.mu_star, diag.alpha0_star)

    def test_constant_angle_degenerate(self):
        traj = _traj([0.7, 0.7, 0.7, 0.7], [1.0, -2.0, 3.0, 0.5])
        with pytest.raises(DegenerateTrajectory):
            fit_optimal(traj, MODEL)

    def test_single_sample_degenerate(self):
        traj = Trajectory([0.0], [0.5], [1.0], dt=0.01)
        with pytest.raises(DegenerateTrajectory):
            fit_optimal(traj, MODEL)

    def test_noisy_line_matches_ols_oracle_and_beats_grid(self):
        rng = np.random.default_rng(4)
        n = 200
        alpha = 1.1 + 0.8 * (rng.random(n) - 0.5)
        tau = 5.0 * (alpha - 1.1) + 0.01 * rng.standard_normal(n)
        traj = _traj(alpha, tau)
        diag = fit_optimal(traj, MODEL)

        # independent normal-equations oracle: tau ~ mu*alpha - c
        design = np.column_stack([alpha, -np.ones(n)])
        (mu_ols, c_ols), *_ = np.linalg.lstsq(design, tau, rcond=None)
        assert diag.mu_star == pytest.approx(mu_ols, rel=1e-9)
        assert diag.mu_star * diag.alpha0_star == pytest.approx(c_ols, rel=1e-9)

        # grid-search oracle: no (mu, alpha0) in [mu*+-1]x[alpha0*+-1] beats it
        mus = np.linspace(diag.mu_star - 1, diag.mu_star + 1, 201)
        a0s = np.linspace(diag.alpha0_star - 1, diag.alpha0_star + 1, 201)
        best = math.inf
        for mu in mus:
            r = tau[None, :] - mu * (alpha[None, :] - a0s[:, None])
            best = min(best, float((r * r).sum(axis=1).min()) * traj.dt)
        assert best >= diag.residual_energy - 1e-9

    def test_negative_slope_flagged_not_clamped(self):
        alpha = np.array([0.0, 0.3, 0.6, 0.9])
        traj = _traj(alpha, -2.0 * (alpha - 0.5))
        diag = fit_optimal(traj, MODEL)
        assert diag.mu_star == pytest.approx(-2.0, rel=1e-12)
        assert not diag.physical
        assert diag.alpha0_defined
        assert diag.spring is None

    def test_zero_covariance_flags_alpha0_undefined(self):
        traj = _traj([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        diag = fit_optimal(traj, MODEL)
        assert diag.mu_star == 0.0
        assert not diag.alpha0_defined
        assert math.isnan(diag.alpha0_star)
        assert diag.physical
        assert diag.residual_energy == energy(traj, MODEL)
        assert diag.spring is None

    def test_gradients_vanish_at_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            traj = make_trajectory(rng)
            diag = fit_optimal(traj, MODEL)
            bound = 1e-6 * max(1.0, energy(traj, MODEL))
            g_mu, g_a0 = _gradient_raw(
                traj.alpha, traj.tau, traj.dt, 1.0, diag.mu_star, diag.alpha0_star
            )
            assert abs(g_mu) <= bound
            assert abs(g_a0) <= bound

    def test_residual_energy_is_energy_with_spring_at_optimum(self):
        rng = np.random.default_rng(6)
        traj = make_trajectory(rng, slope=4.0)
        diag = fit_optimal(traj, MODEL)
        spring = diag.spring
        e = _energy_raw(traj.alpha, traj.tau, traj.dt, 1.0, spring.mu, spring.alpha0)
        assert diag.residual_energy == pytest.approx(e, rel=1e-12)


class TestStationarityResidual:
    def test_zero_stiffness_kills_alpha0_gradient(self):
        rng = np.random.default_rng(7)
        traj = make_trajectory(rng, n=100)
        g_mu, g_a0 = stationarity_residual(traj, SpringParams(0.0, 0.77), MODEL)
        assert g_a0 == 0.0
        assert g_mu != 0.0  # torque not all zero

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            traj = make_trajectory(rng, n=int(rng.integers(10, 400)))
            mu = float(rng.uniform(0.0, 6.0))
            alpha0 = float(rng.uniform(-3.0, 3.0))
            g_mu, g_a0 = stationarity_residual(traj, SpringParams(mu, alpha0), MODEL)
            h_mu = 1e-6 * max(1.0, abs(mu))
            h_a0 = 1e-6 * max(1.0, abs(alpha0))
            a, t, dt = traj.alpha, traj.tau, traj.dt
            fd_mu = (
                _energy_raw(a, t, dt, 1.0, mu + h_mu, alpha0)
                - _energy_raw(a, t, dt, 1.0, mu - h_mu, alpha0)
            ) / (2 * h_mu)
            fd_a0 = (
                _energy_raw(a, t, dt, 1.0, mu, alpha0 + h_a0)
                - _energy_raw(a, t, dt, 1.0, mu, alpha0 - h_a0)
            ) / (2 * h_a0)
            assert g_mu == pytest.approx(fd_mu, rel=1e-6, abs=1e-9)
            assert g_a0 == pytest.approx(fd_a0, rel=1e-6, abs=1e-9)


class TestInvariants:
    def test_optimality_under_perturbation(self):
        rng = np.random.default_rng(9)
        traj = make_trajectory(rng, n=800)
        diag = fit_optimal(traj, MODEL)
        deltas = rng.uniform(-1.0, 1.0, size=(1000, 2))
        a, t, dt = traj.alpha, traj.tau, traj.dt
        for d_mu, d_a0 in deltas:
            e = _energy_raw(a, t, dt, 1.0, diag.mu_star + d_mu, diag.alpha0_star + d_a0)
            assert e >= diag.residual_energy - 1e-9

    def test_ols_slope_intercept_equivalence(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            traj = make_trajectory(rng)
            diag = fit_optimal(traj, MODEL)
            slope, intercept = np.polyfit(traj.alpha, traj.tau, 1)
            assert diag.mu_star == pytest.approx(slope, rel=1e-9)
            assert -diag.mu_star * diag.alpha0_star == pytest.approx(
                intercept, rel=1e-9, abs=1e-9
            )

    def test_torque_scale_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            traj = make_trajectory(rng)
            s = float(rng.uniform(0.1, 10.0))
            scaled = Trajectory(traj.t, traj.alpha, s * traj.tau, dt=traj.dt)
            d1 = fit_optimal(traj, MODEL)
            d2 = fit_optimal(scaled, MODEL)
            assert d2.mu_star == pytest.approx(s * d1.mu_star, rel=1e-9)
            assert d2.alpha0_star == pytest.approx(d1.alpha0_star, rel=1e-9)

    def test_angle_shift_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            traj = make_trajectory(rng)
            delta = float(rng.uniform(-5.0, 5.0))
            shifted = Trajectory(traj.t, traj.alpha + delta, traj.tau, dt=traj.dt)
            d1 = fit_optimal(traj, MODEL)
            d2 = fit_optimal(shifted, MODEL)
            assert d2.mu_star == pytest.approx(d1.mu_star, rel=1e-9)
            assert d2.alpha0_star == pytest.approx(d1.alpha0_star + delta, rel=1e-9)

    def test_k_invariance_of_argmin_and_ratio(self):
        rng = np.random.default_rng(13)
        traj = make_trajectory(rng)
        d1 = fit_optimal(traj, EnergyModel(k_motor=1.0))
        d2 = fit_optimal(traj, EnergyModel(k_motor=42.0))
        assert d2.mu_star == d1.mu_star
        assert d2.alpha0_star == d1.alpha0_star
        r1 = d1.residual_energy / energy(traj, EnergyModel(k_motor=1.0))
        r2 = d2.residual_energy / energy(traj, EnergyModel(k_motor=42.0))
        assert r2 == pytest.approx(r1, rel=1e-12)


class TestWindow:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            WindowState(capacity=1, dt=0.01)
        with pytest.raises(ValueError):
            WindowState(capacity=10, dt=0.0)

    def test_first_push_sets_sums(self):
        w = WindowState(capacity=4, dt=0.01)
        assert w.n == 0
        assert w.contents() == []
        w.push(Sample(0.0, 0.5, -2.0))
        assert w.n == 1
        assert w.contents() == [(0.5, -2.0)]
        # A second sample makes the window fittable; its sums are exact.
        w.push(Sample(0.01, 1.5, 2.0))
        diag = w.fit()
        assert (diag.n, diag.mu_star, diag.alpha0_star) == (2, 4.0, 1.0)
        assert diag.residual_energy == 0.0

    def test_eviction_keeps_capacity(self):
        w = WindowState(capacity=3, dt=0.01)
        for i in range(5):
            w.push(Sample(i * 0.01, float(i), 2.0 * i))
        assert w.n == 3
        assert w.contents() == [(2.0, 4.0), (3.0, 6.0), (4.0, 8.0)]
        diag = w.fit()
        assert (diag.n, diag.mu_star, diag.alpha0_star) == (3, 2.0, 0.0)

    def test_full_window_fit_equals_batch(self):
        rng = np.random.default_rng(14)
        traj = make_trajectory(rng, n=128)
        w = WindowState(capacity=128, dt=traj.dt)
        for s in traj:
            w.push(s)
        batch = fit_optimal(traj, MODEL)
        # The ring has not wrapped: same samples, same order, same bits.
        assert w.fit() == batch

    def test_linear_data_recovered_exactly(self):
        w = WindowState(capacity=8, dt=0.01)
        for i in range(8):
            a = 0.1 * i
            w.push(Sample(i * 0.01, a, 2.5 * (a - 0.3)))
        diag = w.fit()
        assert diag.mu_star == pytest.approx(2.5, rel=1e-12)
        assert diag.alpha0_star == pytest.approx(0.3, rel=1e-12)

    def test_constant_angle_window_degenerate(self):
        w = WindowState(capacity=4, dt=0.01)
        for i in range(4):
            w.push(Sample(i * 0.01, 0.7, float(i)))
        with pytest.raises(DegenerateTrajectory):
            w.fit()

    def test_underfilled_window_degenerate(self):
        w = WindowState(capacity=4, dt=0.01)
        w.push(Sample(0.0, 0.7, 1.0))
        with pytest.raises(DegenerateTrajectory):
            w.fit()

    def test_sums_stay_exact_after_many_evictions(self):
        # 10 * capacity pushes: the window holds exactly the last capacity
        # pairs, and its fit is the batch fit of those pairs.
        rng = np.random.default_rng(15)
        cap = 64
        w = WindowState(capacity=cap, dt=0.01)
        pushed = []
        for i in range(10 * cap):
            a, t = float(rng.uniform(-2, 2)), float(rng.uniform(-20, 20))
            pushed.append((a, t))
            w.push(Sample(i * 0.01, a, t))
        assert w.n == cap
        assert w.contents() == pushed[-cap:]
        _assert_fit_matches_batch(w, pushed[-cap:])

    def test_sliding_fits_match_batch_per_slice(self):
        rng = np.random.default_rng(16)
        traj = make_trajectory(rng, n=600)
        cap = 100
        w = WindowState(capacity=cap, dt=traj.dt)
        for i, s in enumerate(traj):
            w.push(s)
            if w.n < cap or i % 37:  # spot-check a subset of positions
                continue
            lo = i - cap + 1
            sl = Trajectory(
                traj.t[lo : i + 1], traj.alpha[lo : i + 1], traj.tau[lo : i + 1], dt=traj.dt
            )
            batch = fit_optimal(sl, MODEL)
            stream = w.fit()
            assert stream.mu_star == pytest.approx(batch.mu_star, rel=1e-9)
            assert stream.alpha0_star == pytest.approx(batch.alpha0_star, rel=1e-9)

    # Sixteenths of small integers: every sum is exact in any order, so the
    # ring's order cannot move a fit across a degeneracy threshold and any
    # difference from the batch fit is a bookkeeping error.
    _pairs = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).map(
        lambda p: (p[0] / 16, p[1] / 16)
    )
    _ops = st.one_of(
        st.lists(_pairs, min_size=1, max_size=120),  # a burst of pushes
        st.sampled_from(["fit", "contents"]),
    )

    @settings(max_examples=200, deadline=None, database=None)
    @given(cap=st.integers(2, 50), ops=st.lists(_ops, max_size=12))
    def test_window_is_the_last_capacity_pushes(self, cap, ops):
        w = WindowState(capacity=cap, dt=0.01)
        pushed = []
        for op in ops + ["fit", "contents"]:
            expected = pushed[-cap:]
            if isinstance(op, list):
                for a, t in op:
                    w.push(Sample(0.01 * len(pushed), a, t))
                    pushed.append((a, t))
            elif op == "contents":
                assert w.n == len(expected)
                assert w.contents() == expected
            else:
                _assert_fit_matches_batch(w, expected)

    def test_badly_conditioned_stream_matches_centred_oracle(self):
        # 1e-3 rad of motion around 2 rad: the raw moments cancel in six
        # or seven of their digits, so rounding carried over from evicted
        # samples would show.
        rng = np.random.default_rng(17)
        n, cap, every = 20_000, 4096, 200
        t = np.arange(n) * 0.01
        motion = 0.8 * np.sin(2.0 * math.pi * t / 1.7) + 0.2 * rng.uniform(-1.0, 1.0, n)
        alpha = 2.0 + 1e-3 * motion
        tau = 12.0 * (alpha - 2.3) + 1e-3 * rng.standard_normal(n)
        w = WindowState(capacity=cap, dt=0.01)
        worst = 0.0
        for i, (a, b) in enumerate(zip(alpha.tolist(), tau.tolist()), start=1):
            w.push(Sample(0.0, a, b))
            if i % every:
                continue
            lo = max(0, i - cap)
            win_a, win_t = alpha[lo:i], tau[lo:i]
            mean_a = math.fsum(win_a) / win_a.size
            mean_t = math.fsum(win_t) / win_t.size
            da, dtau = win_a - mean_a, win_t - mean_t
            mu = math.fsum(da * dtau) / math.fsum(da * da)
            alpha0 = mean_a - mean_t / mu
            diag = w.fit()
            worst = max(worst, abs(diag.mu_star / mu - 1.0), abs(diag.alpha0_star / alpha0 - 1.0))
        assert worst <= 1e-7
