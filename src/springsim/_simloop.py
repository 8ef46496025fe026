"""The simulation kernel: the integration loop behind every run.

Its specification is :func:`springsim.simulator.step`, one substep of
the same model written out plainly; a test requires the two to agree
bit for bit, so a change here must be mirrored there. The reference
formula is inlined from :mod:`springsim.leg` for speed. See
:mod:`springsim.simulator` for the model being integrated.

Status codes returned by :func:`simulate`:
    0  completed
    1  singular / out-of-range configuration
    2  non-finite state
"""

from __future__ import annotations

from math import asin, cos, isfinite, pi, sin

OK = 0
SINGULAR = 1
NONFINITE = 2

#: |dh/dtheta| below this is treated as the straight-leg singularity [m/rad].
JACOBIAN_TOL = 1e-6


def simulate(
    out_theta,
    out_tau,
    n_ticks: int,
    n_sub: int,
    dt: float,
    ctrl_period: float,
    link_len: float,
    mass: float,
    g: float,
    kp: float,
    kd: float,
    h0: float,
    amp: float,
    omega: float,
    mu: float,
    alpha0: float,
    has_spring: bool,
    torque_limit: float,
    has_limit: bool,
    theta0: float,
    dtheta0: float,
):
    """Integrate the closed loop, logging state/torque at control ticks.

    Semi-implicit Euler at step ``dt``, ``n_sub`` substeps per control
    tick. The reference (theta_ref, dtheta_ref) is sampled once per tick
    and held; the PD law is evaluated every substep. ``out_tau`` logs
    the flexion-positive motor torque (negated PD output) at tick time.

    Returns:
        (status, t_fail, theta_fail); the latter two are 0.0 on success.
    """
    two_l = 2.0 * link_len
    theta = theta0
    dtheta = dtheta0
    for k in range(n_ticks):
        t_k = k * ctrl_period
        h_ref = h0 + amp * sin(omega * t_k)
        theta_ref = 2.0 * asin(h_ref / two_l)
        dh_ref = amp * omega * cos(omega * t_k)
        dtheta_ref = dh_ref / (link_len * cos(0.5 * theta_ref))
        u = kp * (theta_ref - theta) + kd * (dtheta_ref - dtheta)
        if has_limit:
            if u > torque_limit:
                u = torque_limit
            elif u < -torque_limit:
                u = -torque_limit
        out_theta[k] = theta
        out_tau[k] = -u
        for j in range(n_sub):
            if j > 0:
                u = kp * (theta_ref - theta) + kd * (dtheta_ref - dtheta)
                if has_limit:
                    if u > torque_limit:
                        u = torque_limit
                    elif u < -torque_limit:
                        u = -torque_limit
            dh = link_len * cos(0.5 * theta)
            if dh < JACOBIAN_TOL and dh > -JACOBIAN_TOL:
                return SINGULAR, t_k + j * dt, theta
            m_eff = mass * dh * dh
            tau_spring = -mu * (theta - alpha0) if has_spring else 0.0
            acc = (u + tau_spring - mass * g * dh) / m_eff
            dtheta = dtheta + dt * acc
            theta = theta + dt * dtheta
            if not (isfinite(theta) and isfinite(dtheta)):
                return NONFINITE, t_k + (j + 1) * dt, theta
            if theta <= 0.0 or theta >= pi:
                return SINGULAR, t_k + (j + 1) * dt, theta
    return OK, 0.0, 0.0
