"""Time-stepping simulation of the reduced leg under PD position control.

Model
-----
The vertical stand leaves one generalized coordinate, the interior knee
angle theta. A point mass m rides the rail at height h(theta), so the
reflected inertia is m (dh/dtheta)^2 and the dynamics are

    m_eff(theta) thetadd = tau_motor + tau_spring - tau_gravity(theta)

with tau_gravity = m g dh/dtheta and, when a spring is configured, the
restoring torque tau_spring = -mu (theta - alpha0). All three torques
are extension-positive here; trajectory logs negate the motor torque
into the flexion-positive fitting convention (see
:mod:`springsim.trajectory`).

Control and integration
-----------------------
The height reference h_ref(t) is converted to (theta_ref, dtheta_ref)
and sampled at ``control_rate``; between ticks the reference is
zero-order-held while the PD law tau = kp (theta_ref - theta) +
kd (dtheta_ref - dtheta) is evaluated at every physics substep
(holding the *torque* for a whole tick is unstable for stiff gains:
a held PD needs kd > kp / (2 rate), which kp=300, kd=1 at 100 Hz
violates). Integration is semi-implicit Euler; ``physics_dt`` is
quantized so that an integer number of substeps lands exactly on each
control tick.

The initial state is the PD-consistent static equilibrium for the t=0
reference (solved by Newton), with the reference velocity. Starting on
the reference itself would inject a gravity-sag transient that rings at
sqrt(kp/m_eff) and pollutes the cyclic energy accounting.

Kernel
------
The integration loop lives in :func:`run`, with the config bound to
locals; where it fails it raises :class:`SingularConfiguration` or
:class:`NonFiniteState` in place, with the angle and time of the failed
substep. :func:`step` is its specification: one call is one substep of
the same model, and a test requires the two to agree bit for bit.

Runs are deterministic: identical configs produce bit-identical
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import asin, cos, isfinite, pi, sin

import numpy as np

from .errors import NonFiniteState, SingularConfiguration
from .leg import LegGeometry, ik_angle, jacobian, reference_height, sine_omega
from .trajectory import SpringParams, Trajectory

#: |dh/dtheta| below this is treated as the straight-leg singularity [m/rad].
JACOBIAN_TOL = 1e-6

#: Work budget of one run: the largest ``(duration * control_rate) *
#: (control period / physics_dt)`` a SimConfig accepts, each factor taken
#: before rounding and at least 1. Measured at 1e6 and scaled (2-vCPU x86-64
#: VM, Python 3.11.7, numpy 2.4.6, min of 8), the worst case is about 110 s of
#: kernel time and 5 GB of logs when every substep is a tick (1.1 us, 50 B a
#: tick), or about 33 s when one tick holds them all (0.33 us a substep).
MAX_SUBSTEPS = 10**8


@dataclass(frozen=True, slots=True)
class ControllerConfig:
    """PD position controller gains and reference sampling rate.

    Attributes:
        kp: Proportional gain [N*m/rad].
        kd: Derivative gain [N*m*s/rad].
        control_rate: Reference sampling / logging rate [Hz].
    """

    kp: float = 300.0
    kd: float = 1.0
    control_rate: float = 100.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kp) and self.kp > 0):
            raise ValueError(f"kp must be > 0, got {self.kp!r}")
        if not (math.isfinite(self.kd) and self.kd >= 0):
            raise ValueError(f"kd must be >= 0, got {self.kd!r}")
        if not (math.isfinite(self.control_rate) and self.control_rate > 0):
            raise ValueError(f"control_rate must be > 0, got {self.control_rate!r}")

    @property
    def period(self) -> float:
        return 1.0 / self.control_rate


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Full description of one simulation run.

    Attributes:
        geom: Leg geometry and supported mass.
        controller: PD gains and control rate.
        h0: Mean base height of the reference motion [m].
        amplitude: Reference motion amplitude [m].
        t_period: Reference motion period [s] (interpretation depends on
            ``sine_convention``).
        sine_convention: "period" (h0 + A sin(2 pi t / T), default) or
            "paper-literal" (h0 + A sin(t / T)).
        duration: Simulated time [s].
        physics_dt: Integrator step [s]; quantized to divide the control
            period exactly.
        spring: Optional parallel torsion spring.
        torque_limit: Optional symmetric motor torque clamp [N*m].
    """

    geom: LegGeometry
    controller: ControllerConfig
    h0: float
    amplitude: float
    t_period: float
    sine_convention: str = "period"
    duration: float = 10.0
    physics_dt: float = 1e-3
    spring: SpringParams | None = None
    torque_limit: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be > 0, got {self.duration!r}")
        if not (math.isfinite(self.physics_dt) and self.physics_dt > 0):
            raise ValueError(f"physics_dt must be > 0, got {self.physics_dt!r}")
        if self.physics_dt > self.controller.period * (1 + 1e-12):
            raise ValueError(
                f"physics_dt={self.physics_dt!r} exceeds the control period "
                f"{self.controller.period!r}"
            )
        if not (math.isfinite(self.t_period) and self.t_period > 0):
            raise ValueError(f"t_period must be > 0, got {self.t_period!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude!r}")
        lo = self.h0 - self.amplitude
        hi = self.h0 + self.amplitude
        if not (0.0 < lo and hi < self.geom.max_height):
            raise ValueError(
                f"reference heights [{lo!r}, {hi!r}] must lie strictly inside "
                f"(0, {self.geom.max_height!r})"
            )
        if self.torque_limit is not None and not (
            math.isfinite(self.torque_limit) and self.torque_limit > 0
        ):
            raise ValueError(f"torque_limit must be > 0, got {self.torque_limit!r}")
        sine_omega(self.t_period, self.sine_convention)  # validates the enum
        # The kernel divides by (mass*dh)*dh only where |dh| >= JACOBIAN_TOL,
        # and rounding is monotone: this keeps every such divisor above 0.
        if self.geom.mass * JACOBIAN_TOL * JACOBIAN_TOL == 0.0:
            raise ValueError(
                f"mass {self.geom.mass!r} is too small: mass*dh*dh rounds to 0 "
                f"at |dh| = JACOBIAN_TOL = {JACOBIAN_TOL!r}"
            )
        # Before n_ticks/n_substeps round them: round(inf) raises.
        ticks = max(1.0, self.duration * self.controller.control_rate)
        substeps = max(1.0, self.controller.period / self.physics_dt)
        if not ticks * substeps <= MAX_SUBSTEPS:
            raise ValueError(
                f"duration*control_rate x period/physics_dt = {ticks!r} x {substeps!r} "
                f"substeps exceeds MAX_SUBSTEPS = {MAX_SUBSTEPS}"
            )

    @property
    def omega(self) -> float:
        """Angular rate of the height reference [rad/s]."""
        return sine_omega(self.t_period, self.sine_convention)

    @property
    def n_substeps(self) -> int:
        """Physics substeps per control tick (>= 1)."""
        return max(1, round(self.controller.period / self.physics_dt))

    @property
    def effective_dt(self) -> float:
        """Actual integrator step after quantization [s]."""
        return self.controller.period / self.n_substeps

    @property
    def n_ticks(self) -> int:
        """Number of logged control ticks (duration * control_rate)."""
        n = round(self.duration * self.controller.control_rate)
        return max(1, int(n))


@dataclass(frozen=True, slots=True)
class SimState:
    """Integrator state between substeps.

    ``last_motor_torque`` is the most recent PD output in the simulator's
    extension-positive convention (trajectory logs store its negative).
    The held reference fields and the (tick, substep) counters exist so
    that :func:`step` is a pure function of (state, config).
    """

    t: float
    theta: float
    theta_dot: float
    last_motor_torque: float
    held_theta_ref: float
    held_theta_dot_ref: float
    tick_index: int
    substep_index: int


def _reference(cfg: SimConfig, t: float) -> tuple[float, float]:
    """(theta_ref, dtheta_ref) at time t, from the formulas in :mod:`.leg`.

    The kernel inlines the same expressions; they round identically.
    """
    h_ref = reference_height(cfg.h0, cfg.amplitude, cfg.t_period, t, cfg.sine_convention)
    theta_ref = ik_angle(cfg.geom, h_ref)
    dh_ref = cfg.amplitude * cfg.omega * math.cos(cfg.omega * t)
    return theta_ref, dh_ref / jacobian(cfg.geom, theta_ref)


def _equilibrium_theta(cfg: SimConfig, theta_ref0: float) -> float:
    """Solve kp (theta_ref0 - th) + tau_spring(th) - tau_gravity(th) = 0.

    The residual is strictly decreasing (slope <= -kp - mu + m g L / 2 < 0
    for the gains of interest), so Newton from theta_ref0 converges
    quadratically and deterministically.
    """
    geom, kp = cfg.geom, cfg.controller.kp
    mgl = geom.mass * geom.g * geom.link_len
    mu = cfg.spring.mu if cfg.spring is not None else 0.0
    alpha0 = cfg.spring.alpha0 if cfg.spring is not None else 0.0
    theta = theta_ref0
    for _ in range(100):
        resid = kp * (theta_ref0 - theta) - mu * (theta - alpha0) - mgl * math.cos(0.5 * theta)
        slope = -kp - mu + 0.5 * mgl * math.sin(0.5 * theta)
        new = theta - resid / slope
        # Stay inside the open interval; the root is interior for valid configs.
        if new <= 0.0:
            new = 0.5 * theta
        elif new >= math.pi:
            new = 0.5 * (theta + math.pi)
        if abs(new - theta) <= 1e-15 * max(1.0, abs(theta)):
            theta = new
            break
        theta = new
    return theta


def initial_state(cfg: SimConfig) -> SimState:
    """State at t=0: static equilibrium position, reference velocity."""
    theta_ref0, dtheta_ref0 = _reference(cfg, 0.0)
    theta0 = _equilibrium_theta(cfg, theta_ref0)
    u0 = cfg.controller.kp * (theta_ref0 - theta0)
    return SimState(
        t=0.0,
        theta=theta0,
        theta_dot=dtheta_ref0,
        last_motor_torque=u0,
        held_theta_ref=theta_ref0,
        held_theta_dot_ref=dtheta_ref0,
        tick_index=0,
        substep_index=0,
    )


def step(state: SimState, cfg: SimConfig) -> SimState:
    """Advance one physics substep.

    On the first substep of a tick the held reference is refreshed from
    the tick time; the PD output is recomputed every substep against the
    held reference. This is the specification of the kernel behind
    :func:`run`: one call is bit-identical to one of its substeps.

    Raises:
        SingularConfiguration: |dh/dtheta| < 1e-6 or theta left (0, pi).
        NonFiniteState: The update produced NaN/inf.
    """
    ctrl = cfg.controller
    n_sub = cfg.n_substeps
    dt = cfg.effective_dt
    theta, dtheta = state.theta, state.theta_dot
    if state.substep_index == 0:
        theta_ref, dtheta_ref = _reference(cfg, state.tick_index * ctrl.period)
    else:
        theta_ref, dtheta_ref = state.held_theta_ref, state.held_theta_dot_ref
    u = ctrl.kp * (theta_ref - theta) + ctrl.kd * (dtheta_ref - dtheta)
    if cfg.torque_limit is not None:
        if u > cfg.torque_limit:
            u = cfg.torque_limit
        elif u < -cfg.torque_limit:
            u = -cfg.torque_limit
    geom = cfg.geom
    dh = geom.link_len * math.cos(0.5 * theta)
    if -JACOBIAN_TOL < dh < JACOBIAN_TOL:
        raise SingularConfiguration(theta, state.t)
    m_eff = geom.mass * dh * dh
    tau_spring = -cfg.spring.mu * (theta - cfg.spring.alpha0) if cfg.spring is not None else 0.0
    acc = (u + tau_spring - geom.mass * geom.g * dh) / m_eff
    new_dtheta = dtheta + dt * acc
    new_theta = theta + dt * new_dtheta
    sub = state.substep_index + 1
    tick = state.tick_index
    if sub == n_sub:
        sub = 0
        tick += 1
    t_new = tick * ctrl.period + sub * dt
    if not (math.isfinite(new_theta) and math.isfinite(new_dtheta)):
        raise NonFiniteState(t_new)
    if new_theta <= 0.0 or new_theta >= math.pi:
        raise SingularConfiguration(new_theta, t_new)
    return SimState(
        t=t_new,
        theta=new_theta,
        theta_dot=new_dtheta,
        last_motor_torque=u,
        held_theta_ref=theta_ref,
        held_theta_dot_ref=dtheta_ref,
        tick_index=tick,
        substep_index=sub,
    )


def run(cfg: SimConfig) -> Trajectory:
    """Simulate ``cfg.duration`` seconds and return the logged trajectory.

    The log holds (t, theta, tau) at ``control_rate`` (10 s at 100 Hz
    gives exactly 1000 samples); tau is flexion-positive: the negated PD
    output at tick time. Deterministic: identical configs give
    bit-identical results.

    The loop below is the integration kernel: :func:`step` and the
    reference formulas of :mod:`.leg` inlined, bit for bit (a comment says
    why each respelling rounds the same), so a change here is mirrored there.

    Raises:
        SingularConfiguration: |dh/dtheta| < 1e-6 or theta left (0, pi).
        NonFiniteState: The state became NaN/inf.
    """
    ctrl = cfg.controller
    n_ticks = cfg.n_ticks
    n_sub = cfg.n_substeps
    dt = cfg.effective_dt
    ctrl_period = ctrl.period
    link_len, mass = cfg.geom.link_len, cfg.geom.mass
    mg = mass * cfg.geom.g  # m*g*dh rounds as (m*g)*dh: Python multiplies left to right
    kp, kd = ctrl.kp, ctrl.kd
    h0, amp, omega = cfg.h0, cfg.amplitude, cfg.omega
    has_spring = cfg.spring is not None
    mu, alpha0 = (cfg.spring.mu, cfg.spring.alpha0) if has_spring else (0.0, 0.0)
    has_limit = cfg.torque_limit is not None
    torque_limit = cfg.torque_limit if has_limit else 0.0
    theta_log = np.empty(n_ticks, dtype=np.float64)
    tau_log = np.empty(n_ticks, dtype=np.float64)
    state0 = initial_state(cfg)

    two_l, tol = 2.0 * link_len, JACOBIAN_TOL
    theta, dtheta = state0.theta, state0.theta_dot
    for k in range(n_ticks):
        t_k = k * ctrl_period
        h_ref = h0 + amp * sin(omega * t_k)
        theta_ref = 2.0 * asin(h_ref / two_l)
        dh_ref = amp * omega * cos(omega * t_k)
        dtheta_ref = dh_ref / (link_len * cos(0.5 * theta_ref))
        theta_log[k] = theta
        for j in range(n_sub):
            u = kp * (theta_ref - theta) + kd * (dtheta_ref - dtheta)
            if has_limit:
                if u > torque_limit:
                    u = torque_limit
                elif u < -torque_limit:
                    u = -torque_limit
            if j == 0:
                tau_log[k] = -u
            if has_spring:
                u -= mu * (theta - alpha0)  # u + (-x) == u - x exactly
            dh = link_len * cos(0.5 * theta)
            if dh < tol:  # theta is in (0, pi] or NaN, so dh > 0 or NaN
                raise SingularConfiguration(theta, t_k + j * dt)
            dtheta += dt * ((u - mg * dh) / (mass * dh * dh))
            theta += dt * dtheta
            # step()'s two checks in one, exactly: theta = theta + dt*dtheta is
            # inf or NaN whenever dtheta is, and then fails this compare too.
            if not 0.0 < theta < pi:
                if not (isfinite(theta) and isfinite(dtheta)):
                    raise NonFiniteState(t_k + (j + 1) * dt)
                raise SingularConfiguration(theta, t_k + (j + 1) * dt)
    t = np.arange(n_ticks, dtype=np.float64) * ctrl_period
    return Trajectory(t, theta_log, tau_log, dt=ctrl_period)
