"""Closed-loop simulation: protocol, statics, tracking, determinism."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from springsim import (
    ControllerConfig,
    LegGeometry,
    NonFiniteState,
    SimConfig,
    SimState,
    SimulationError,
    SingularConfiguration,
    SpringParams,
    energy,
    gravity_knee_torque,
    ik_angle,
    initial_state,
    run,
    save_trajectory,
    step,
)
from springsim.simulator import JACOBIAN_TOL, MAX_SUBSTEPS

GEOM = LegGeometry(link_len=0.28, mass=4.1, g=9.81)
PD = ControllerConfig(kp=300.0, kd=1.0, control_rate=100.0)


def base_cfg(**kw):
    args = dict(
        geom=GEOM,
        controller=PD,
        h0=0.2,
        amplitude=0.05,
        t_period=1.88,
        duration=10.0,
        physics_dt=1e-3,
    )
    args.update(kw)
    return SimConfig(**args)


class TestConfigValidation:
    def test_controller_invariants(self):
        with pytest.raises(ValueError):
            ControllerConfig(kp=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(kd=-0.1)
        with pytest.raises(ValueError):
            ControllerConfig(control_rate=0.0)

    def test_physics_dt_must_fit_in_control_period(self):
        with pytest.raises(ValueError):
            base_cfg(physics_dt=0.02)

    def test_reference_band_must_be_reachable(self):
        with pytest.raises(ValueError):
            base_cfg(h0=0.55, amplitude=0.05)  # exceeds 2L
        with pytest.raises(ValueError):
            base_cfg(h0=0.03, amplitude=0.05)  # dips to <= 0
        with pytest.raises(ValueError):
            base_cfg(h0=0.56, amplitude=0.0)  # exactly 2L is singular

    def test_bad_convention_and_period(self):
        with pytest.raises(ValueError):
            base_cfg(sine_convention="sometimes")
        with pytest.raises(ValueError):
            base_cfg(t_period=-1.0)

    def test_torque_limit_positive(self):
        with pytest.raises(ValueError):
            base_cfg(torque_limit=0.0)

    # The kernel's divisor mass*dh*dh underflows to 0 for a mass this small
    # even at the smallest |dh| it divides by; 1e-310 kg still runs (and
    # overflows to NonFiniteState, see TestStep).
    @pytest.mark.parametrize("mass", [5e-324, 1e-320, 2e-312])
    def test_mass_whose_divisor_underflows_rejected(self, mass):
        with pytest.raises(ValueError, match="mass .* is too small"):
            base_cfg(geom=LegGeometry(link_len=0.28, mass=mass, g=9.81))

    def test_smallest_mass_accepted_keeps_the_divisor_positive(self):
        mass = 2.5e-312
        base_cfg(geom=LegGeometry(link_len=0.28, mass=mass, g=9.81))
        assert (mass * JACOBIAN_TOL) * JACOBIAN_TOL > 0.0

    # Each of these asks for far more substeps than MAX_SUBSTEPS; the
    # config rejects it before anything is run or allocated.
    @pytest.mark.parametrize(
        "kw",
        [
            dict(physics_dt=1e-300),  # ~1e298 substeps a tick
            dict(controller=ControllerConfig(control_rate=1e-9)),  # 1e12 in one tick
            dict(duration=1e12),  # 1e14 ticks: np.empty would fail
            dict(duration=1e300),
            # duration*control_rate overflows to inf: round() would raise
            dict(duration=1e300, controller=ControllerConfig(control_rate=1e300),
                 physics_dt=1e-301),
        ],
    )
    def test_work_budget_rejects_runaway_runs(self, kw):
        with pytest.raises(ValueError, match="substeps exceeds MAX_SUBSTEPS"):
            base_cfg(**kw)

    def test_work_budget_is_inclusive(self):
        cfg = base_cfg(duration=1e6, physics_dt=0.01)  # 1e8 ticks of 1 substep
        assert cfg.n_ticks * cfg.n_substeps == MAX_SUBSTEPS
        with pytest.raises(ValueError, match="MAX_SUBSTEPS"):
            base_cfg(duration=1.0000001e6, physics_dt=0.01)

    def test_substep_quantization(self):
        cfg = base_cfg(physics_dt=1e-3)
        assert cfg.n_substeps == 10
        assert cfg.effective_dt == pytest.approx(1e-3)
        cfg2 = base_cfg(physics_dt=3e-3)  # rounds to 3 substeps of 1/300 s
        assert cfg2.n_substeps == 3
        assert cfg2.n_substeps * cfg2.effective_dt == pytest.approx(0.01)


class TestRunProtocol:
    def test_ten_seconds_at_100hz_is_1000_samples(self):
        traj = run(base_cfg())
        assert len(traj) == 1000
        assert traj.dt == pytest.approx(0.01)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(9.99)

    def test_sample_count_scales_with_rate_and_duration(self):
        traj = run(base_cfg(duration=2.0))
        assert len(traj) == 200
        ctrl = ControllerConfig(kp=300.0, kd=1.0, control_rate=50.0)
        traj = run(base_cfg(controller=ctrl, duration=2.0))
        assert len(traj) == 100

    def test_deterministic_bytes(self, tmp_path):
        cfg = base_cfg()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trajectory(run(cfg), p1)
        save_trajectory(run(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_integrator_convergence(self):
        e_coarse = energy(run(base_cfg(physics_dt=1e-3)))
        e_fine = energy(run(base_cfg(physics_dt=5e-4)))
        assert abs(e_fine - e_coarse) / e_coarse < 0.01

    def test_angles_stay_in_reference_band(self):
        traj = run(base_cfg())
        # generous sanity band around the commanded heights
        h = 2 * GEOM.link_len * np.sin(traj.alpha / 2)
        assert h.min() > 0.10 and h.max() < 0.30


class TestStaticsAndOracles:
    def test_hold_against_gravity_is_bounded(self):
        # A=0: the PD sags by <= m g L / kp but never drifts or rings.
        cfg = base_cfg(amplitude=0.0, duration=5.0)
        traj = run(cfg)
        theta_ref = ik_angle(GEOM, 0.2)
        sag_bound = GEOM.mass * GEOM.g * GEOM.link_len / PD.kp
        assert np.abs(traj.alpha - theta_ref).max() <= sag_bound + 1e-3
        # equilibrium init makes the hold exact
        assert np.abs(traj.alpha - traj.alpha[0]).max() == 0.0

    def test_spring_linearized_at_equilibrium_balances_motor(self):
        # mu = |d tau_g / d theta|, alpha0 chosen so the spring carries
        # the whole static load: steady-state motor torque ~ 0.
        theta_eq = ik_angle(GEOM, 0.2)
        mu = 0.5 * GEOM.mass * GEOM.g * GEOM.link_len * math.sin(theta_eq / 2)
        alpha0 = theta_eq + gravity_knee_torque(GEOM, theta_eq) / mu
        cfg = base_cfg(amplitude=0.0, duration=5.0, spring=SpringParams(mu, alpha0))
        traj = run(cfg)
        assert np.abs(traj.tau).max() <= 1e-2

    def test_negligible_gravity_zero_torque(self):
        # geometry requires g > 0, so "no gravity" is approximated by
        # g = 1e-12; at the reference equilibrium the motor is idle.
        geom = LegGeometry(link_len=0.28, mass=4.1, g=1e-12)
        cfg = base_cfg(geom=geom, amplitude=0.0, duration=2.0)
        traj = run(cfg)
        assert np.abs(traj.tau).max() <= 1e-9

    def test_quasi_static_torque_tracks_gravity_load(self):
        # slow motion: logged torque is the (flexion-positive) mirror of
        # the static gravity torque at the logged angle, within 5% RMS.
        cfg = base_cfg(t_period=60.0, duration=10.0)
        traj = run(cfg)
        tau_g = np.array([gravity_knee_torque(GEOM, a) for a in traj.alpha])
        err = traj.tau - (-tau_g)
        rel = math.sqrt(float((err**2).mean()) / float((tau_g**2).mean()))
        assert rel < 0.05

    def test_tracking_quality_all_grid_rows(self):
        from springsim import paper_table

        for spec in paper_table():
            cfg = spec.to_sim_config()
            traj = run(cfg)
            h_act = 2 * cfg.geom.link_len * np.sin(traj.alpha / 2)
            h_ref = cfg.h0 + cfg.amplitude * np.sin(cfg.omega * traj.t)
            err = h_act - h_ref
            rms = math.sqrt(float((err**2).mean()))
            ac_rms = float(err.std())
            # gravity sag allowance: a proportional-only controller rests
            # m g (dh/dtheta)^2 / kp below the commanded height.
            sag = cfg.geom.mass * cfg.geom.g * cfg.geom.link_len**2 / cfg.controller.kp
            assert ac_rms < 5e-3, spec.label
            assert rms < sag + 5e-3, spec.label

    def test_no_clamping_artifacts_without_limit(self):
        cfg = base_cfg()
        traj = run(cfg)
        theta_ref = 2 * np.arcsin(
            (cfg.h0 + cfg.amplitude * np.sin(cfg.omega * traj.t)) / (2 * GEOM.link_len)
        )
        max_ref_step = np.abs(np.diff(theta_ref)).max()
        assert np.abs(np.diff(traj.tau)).max() <= PD.kp * max_ref_step + 1.0

    def test_torque_limit_clamps_log(self):
        # just above the worst-case gravity torque m g L = 11.26 N m (so
        # the leg can still hold anywhere) but below the ~11.9 N m
        # dynamic peak, so the clamp provably engages.
        cfg = base_cfg(torque_limit=11.5)
        traj = run(cfg)
        assert np.abs(traj.tau).max() <= 11.5 + 1e-12
        assert np.abs(traj.tau).max() == pytest.approx(11.5)

    def test_limit_below_static_load_collapses_loudly(self):
        with pytest.raises(SingularConfiguration):
            run(base_cfg(torque_limit=5.0))


# Each case reaches one branch of the kernel. These runs succeed (at a
# 0.5 s default duration)...
STEP_CASES = {
    "plain": {},
    "spring": {"spring": SpringParams(5.0, 2.8)},
    "torque_limit": {"torque_limit": 11.5},
    "substeps_50hz": {
        "controller": ControllerConfig(kp=300.0, kd=1.0, control_rate=50.0),
        "physics_dt": 3e-3,  # 7 substeps of 1/350 s
    },
    "paper_literal": {"sine_convention": "paper-literal", "t_period": 0.3},
    # the spring term is taken after the clamp, on both of its sides
    "spring_and_limit": {
        "spring": SpringParams(20.0, 2.0),
        "torque_limit": 2.0,
        "t_period": 0.5,
        "duration": 1.0,
    },
    "one_substep": {"physics_dt": 0.01},  # one substep a tick at 100 Hz
}
# ...and these fail.
FAILURE_CASES = {
    "limit_5Nm": {"torque_limit": 5.0},  # collapses at t = 0.301 s
    "weak_kp": {"controller": ControllerConfig(kp=1e-3, kd=0.0, control_rate=100.0)},
    "limit_2Nm_dt_5e-4": {"torque_limit": 2.0, "physics_dt": 5e-4, "duration": 0.5},
    # a subnormal mass overflows the acceleration: NonFiniteState
    "nonfinite": {"geom": LegGeometry(link_len=0.28, mass=1e-310, g=9.81), "duration": 0.5},
    # the cases that leave (0, pi) upward: theta = 3.1798 at t = 0.025 s,
    # and on the last substep of a run, where no Jacobian check follows
    "overextends": {"spring": SpringParams(300.0, 3.1), "torque_limit": 5.0},
    "overextends_last_substep": {
        "spring": SpringParams(1000.0, 3.1),
        "torque_limit": 5.0,
        "physics_dt": 0.01,
        "duration": 0.01,
    },
}

#: Most substeps a drawn config may take, so that a step()-by-step replay
#: of one example stays within a few milliseconds.
STEP_BUDGET = 2000


@st.composite
def sim_configs(draw):
    """Any SimConfig within STEP_BUDGET substeps: gains, mass, geometry,
    spring, torque limit, physics_dt and sine convention all drawn."""
    link_len = draw(st.floats(0.05, 2.0))
    two_l = 2.0 * link_len
    h0 = two_l * draw(st.floats(0.01, 0.99))
    rate = draw(st.floats(10.0, 200.0))
    try:
        cfg = SimConfig(
            # down to the subnormal masses whose acceleration overflows
            geom=LegGeometry(
                link_len=link_len,
                mass=draw(st.one_of(st.floats(1e-2, 100.0), st.floats(2.5e-312, 1e-300))),
                g=draw(st.floats(0.1, 30.0)),
            ),
            controller=ControllerConfig(
                kp=draw(st.floats(1e-3, 1e4)), kd=draw(st.floats(0.0, 50.0)), control_rate=rate
            ),
            h0=h0,
            amplitude=min(h0, two_l - h0) * draw(st.floats(0.0, 0.99)),
            t_period=draw(st.floats(0.05, 5.0)),
            sine_convention=draw(st.sampled_from(["period", "paper-literal"])),
            duration=draw(st.floats(0.001, 1.0)),
            physics_dt=1.0 / rate / draw(st.floats(1.0, 12.0)),
            spring=draw(st.none() | st.builds(SpringParams, st.floats(0.0, 1e3), st.floats(-1.0, 5.0))),
            torque_limit=draw(st.none() | st.floats(1e-2, 100.0)),
        )
    except ValueError:
        reject()
    assume(cfg.n_ticks * cfg.n_substeps <= STEP_BUDGET)
    return cfg


def _replay_agrees_with_run(cfg):
    """Check run(cfg) against iterated step() calls; return run's result.

    Either both give the same log bit for bit, or both raise the same
    SimulationError class at the same theta and t; run's error is then
    returned. Any other exception propagates.
    """
    try:
        outcome = run(cfg)
    except SimulationError as exc:
        outcome = exc
    state = initial_state(cfg)
    logged_theta, logged_tau = [], []
    try:
        for k in range(cfg.n_ticks):
            assert (state.tick_index, state.substep_index) == (k, 0)
            logged_theta.append(state.theta)
            state = step(state, cfg)
            # torque logged by run == fresh PD output of the tick's first substep
            logged_tau.append(-state.last_motor_torque)
            for _ in range(cfg.n_substeps - 1):
                state = step(state, cfg)
    except SimulationError as exc:
        assert type(exc) is type(outcome)
        assert exc.t == outcome.t
        assert getattr(exc, "theta", None) == getattr(outcome, "theta", None)
        return outcome
    assert not isinstance(outcome, SimulationError), outcome
    np.testing.assert_array_equal(np.array(logged_theta), outcome.alpha)
    np.testing.assert_array_equal(np.array(logged_tau), outcome.tau)
    return outcome


def _with_examples(test):
    for kw in STEP_CASES.values():
        test = example(cfg=base_cfg(**{"duration": 0.5, **kw}))(test)
    for kw in FAILURE_CASES.values():
        test = example(cfg=base_cfg(**kw))(test)
    return test


class TestStep:
    # step() is the specification of the kernel behind run(): the two must
    # agree bit for bit on any config, in success and in failure.
    @_with_examples
    # Leaves (0, pi) on the last substep of tick 5, where k*period + n*dt
    # and (k + 1)*period round apart: run once reported t one ulp later.
    @example(
        cfg=SimConfig(
            geom=LegGeometry(link_len=0.8704064111508197, mass=0.75, g=1.0),
            controller=ControllerConfig(kp=6880.0, kd=39.0, control_rate=54.53125),
            h0=1.5152146411448997,
            amplitude=0.14452383480353642,
            t_period=0.05,
            sine_convention="paper-literal",
            duration=1.0,
            physics_dt=0.004584527220630372,
        )
    )
    @settings(max_examples=100, deadline=None, database=None)
    @given(cfg=sim_configs())
    def test_step_reproduces_run_for_any_config(self, cfg):
        _replay_agrees_with_run(cfg)

    # The named cases pin that each branch is reached: the clamp engages,
    # on both sides with a spring, and each failure case fails.
    @pytest.mark.parametrize("kw", STEP_CASES.values(), ids=STEP_CASES)
    def test_step_reproduces_run_exactly(self, kw):
        cfg = base_cfg(**{"duration": 0.5, **kw})
        traj = _replay_agrees_with_run(cfg)
        if cfg.torque_limit is not None:
            assert np.abs(traj.tau).max() == cfg.torque_limit  # the clamp engaged
        if cfg.torque_limit is not None and cfg.spring is not None:
            assert traj.tau.max() == cfg.torque_limit
            assert traj.tau.min() == -cfg.torque_limit

    @pytest.mark.parametrize("kw", FAILURE_CASES.values(), ids=FAILURE_CASES)
    def test_step_reproduces_run_failure_exactly(self, kw):
        assert isinstance(_replay_agrees_with_run(base_cfg(**kw)), SimulationError)

    def test_time_advances_on_exact_grid(self):
        cfg = base_cfg(duration=0.1)
        state = initial_state(cfg)
        for _ in range(25):
            state = step(state, cfg)
        assert state.t == pytest.approx(25 * cfg.effective_dt, abs=1e-12)

    def test_singular_configuration_raises(self):
        cfg = base_cfg()
        near_pi = math.pi - 1e-8
        state = SimState(
            t=0.0,
            theta=near_pi,
            theta_dot=0.0,
            last_motor_torque=0.0,
            held_theta_ref=near_pi,
            held_theta_dot_ref=0.0,
            tick_index=0,
            substep_index=1,  # keep the held reference
        )
        with pytest.raises(SingularConfiguration):
            step(state, cfg)

    def test_nonfinite_state_raises(self):
        cfg = base_cfg()
        state = SimState(
            t=0.0,
            theta=1.0,
            theta_dot=1e308,
            last_motor_torque=0.0,
            held_theta_ref=1.0,
            held_theta_dot_ref=0.0,
            tick_index=0,
            substep_index=1,
        )
        with pytest.raises(NonFiniteState):
            step(state, cfg)

    def test_runaway_state_exits_range(self):
        cfg = base_cfg()
        state = SimState(
            t=0.0,
            theta=1.0,
            theta_dot=1e5,
            last_motor_torque=0.0,
            held_theta_ref=1.0,
            held_theta_dot_ref=0.0,
            tick_index=0,
            substep_index=1,
        )
        with pytest.raises(SingularConfiguration):
            step(state, cfg)

    def test_run_surfaces_kernel_failure(self):
        # kp far too weak to hold the load: no static equilibrium exists
        # and the leg collapses out of (0, pi) almost immediately.
        weak = ControllerConfig(kp=1e-3, kd=0.0, control_rate=100.0)
        with pytest.raises(SingularConfiguration):
            run(base_cfg(controller=weak, duration=1.0))


class TestInitialState:
    def test_equilibrium_start_velocity_matches_reference(self):
        cfg = base_cfg()
        st = initial_state(cfg)
        omega = cfg.omega
        dh0 = cfg.amplitude * omega  # cos(0) = 1
        theta_ref0 = ik_angle(GEOM, cfg.h0)
        expected = dh0 / (GEOM.link_len * math.cos(theta_ref0 / 2))
        assert st.theta_dot == pytest.approx(expected, rel=1e-12)
        assert st.t == 0.0 and st.tick_index == 0 and st.substep_index == 0

    def test_equilibrium_start_balances_forces(self):
        cfg = base_cfg()
        st = initial_state(cfg)
        theta_ref0 = ik_angle(GEOM, cfg.h0)
        resid = PD.kp * (theta_ref0 - st.theta) - gravity_knee_torque(GEOM, st.theta)
        assert abs(resid) < 1e-9

    def test_equilibrium_start_with_spring(self):
        spring = SpringParams(5.0, 2.8)
        cfg = base_cfg(spring=spring)
        st = initial_state(cfg)
        theta_ref0 = ik_angle(GEOM, cfg.h0)
        resid = (
            PD.kp * (theta_ref0 - st.theta)
            - spring.mu * (st.theta - spring.alpha0)
            - gravity_knee_torque(GEOM, st.theta)
        )
        assert abs(resid) < 1e-9
