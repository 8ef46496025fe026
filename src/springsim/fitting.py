"""Motor-energy accounting and closed-form torsion-spring fitting.

Energy model
------------
Over a uniformly sampled torque log the motor's resistive losses are

    E = K * sum_i tau_i^2 * dt

with a motor-specific constant K. A parallel torsion spring with
stiffness ``mu`` and equilibrium ``alpha0`` carries ``mu (alpha_i -
alpha0)`` of the torque, leaving the motor

    E_spring = K * sum_i (tau_i - mu (alpha_i - alpha0))^2 * dt.

Setting both partial derivatives to zero gives the closed-form optimum

    mu*     = (Sa St - N Sat) / (Sa^2 - N Saa)
    alpha0* = (St Saa - Sat Sa) / (Sa St - N Sat)

where Sa, St, Saa, Sat are the raw sums of alpha, tau, alpha^2 and
alpha*tau over the N samples. ``mu*`` equals the ordinary least-squares
slope of tau on alpha; ``(mu*, mu* alpha0*)`` is the OLS solution of
``tau ~ mu alpha - c``.

Two degeneracies are handled explicitly:

* zero angle variance  -> :class:`~springsim.errors.DegenerateTrajectory`
  (the spring is underdetermined), and so are angles whose squares sum
  past the float range and a fit whose ``mu*`` or residual energy is
  not finite;
* zero angle-torque covariance with nonzero mean torque -> ``mu* = 0``
  but no finite equilibrium exists; the fit returns ``mu_star = 0`` with
  ``alpha0_defined = False`` (``alpha0_star`` is NaN).

The sliding-window fitter re-fits the spring online. A push only records
the sample; a fit copies the retained samples into numpy in bulk and
runs the batch fit's own code on them, so it is exact on every call (no
running sums, no drift) at O(capacity) per fit. At capacity 4096 a push
costs about a third of a running-sum update and a fit about six times a
running-sum fit (0.36 vs 1.1 us, 40 vs 6.5 us; medians on a shared
2-vCPU x86-64 VM), so the ring is the cheaper of the two whenever fits
come less often than about every 45 pushes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTrajectory
from .trajectory import Sample, SpringParams, Trajectory

#: Relative scale below which the angle variance counts as zero.
VARIANCE_TOL = 1e-12
#: Relative scale below which the mu* numerator (covariance) counts as zero.
COVARIANCE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class EnergyModel:
    """Resistive-loss model: energy = k_motor * sum(tau^2) * dt.

    Attributes:
        k_motor: Motor constant K [J / (N*m)^2 / s]. Scales squared
            torque-time to energy; the fitted optimum and the energy
            ratio are both independent of it.
    """

    k_motor: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k_motor) and self.k_motor > 0):
            raise ValueError(f"k_motor must be > 0, got {self.k_motor!r}")


@dataclass(frozen=True, slots=True)
class FitDiagnostics:
    """Result of a closed-form spring fit.

    Attributes:
        mu_star: Fitted stiffness [N*m/rad]; may be negative (see
            ``physical``).
        alpha0_star: Fitted equilibrium [rad]; NaN when
            ``alpha0_defined`` is False.
        residual_energy: Spring-compensated energy at the optimum [J].
        alpha0_defined: False when the tau-alpha covariance is ~0 and no
            finite equilibrium exists (``mu_star`` is then 0).
        n: Number of samples the fit used.
    """

    mu_star: float
    alpha0_star: float
    residual_energy: float
    alpha0_defined: bool
    n: int

    @property
    def physical(self) -> bool:
        """True iff ``mu_star >= 0`` (a realizable passive spring)."""
        return self.mu_star >= 0.0

    @property
    def spring(self) -> SpringParams | None:
        """The fit as a spring; None when not physical or alpha0 is undefined."""
        if self.physical and self.alpha0_defined:
            return SpringParams(self.mu_star, self.alpha0_star)
        return None


# --- energy accounting -------------------------------------------------------


def energy(traj: Trajectory, model: EnergyModel = EnergyModel()) -> float:
    """Motor energy K * sum(tau^2) * dt over the trajectory [J] (inf past float range)."""
    with np.errstate(over="ignore"):
        return model.k_motor * float(traj.tau @ traj.tau) * traj.dt


def _energy_raw(alpha, tau, dt, k, mu, alpha0) -> float:
    # Motor energy with a spring carrying mu*(alpha - alpha0) of tau, for
    # any (mu, alpha0): fitters evaluate negative stiffness too.
    r = tau - mu * (alpha - alpha0)
    return k * float(r @ r) * dt


def stationarity_residual(
    traj: Trajectory, spring: SpringParams, model: EnergyModel = EnergyModel()
) -> tuple[float, float]:
    """Partial derivatives (dE/dmu, dE/dalpha0) of the spring energy.

    Both vanish at a fitted optimum; the second carries an overall
    factor of mu and is exactly zero whenever mu = 0.
    """
    return _gradient_raw(
        traj.alpha, traj.tau, traj.dt, model.k_motor, spring.mu, spring.alpha0
    )


def _gradient_raw(alpha, tau, dt, k, mu, alpha0) -> tuple[float, float]:
    d = alpha0 - alpha
    r = tau + mu * d
    g_mu = 2.0 * k * float(r @ d) * dt
    g_alpha0 = 2.0 * k * mu * float(np.sum(r)) * dt
    return g_mu, g_alpha0


# --- closed-form fit ---------------------------------------------------------


def fit_optimal(traj: Trajectory, model: EnergyModel = EnergyModel()) -> FitDiagnostics:
    """Closed-form optimal spring for a logged trajectory.

    Raises:
        DegenerateTrajectory: Fewer than 2 samples or ~zero angle
            variance (constant-angle log).
    """
    return _fit_arrays(traj.alpha, traj.tau, traj.dt, model.k_motor)


def _fit_arrays(alpha, tau, dt: float, k: float) -> FitDiagnostics:
    # The fit itself, on bare arrays: fit_optimal and WindowState.fit.
    # Sums past the float range come out as inf or NaN without a numpy
    # warning; the finiteness checks reject them.
    with np.errstate(over="ignore", invalid="ignore"):
        n = alpha.size
        s_a = float(np.sum(alpha))
        s_t = float(np.sum(tau))
        s_aa = float(alpha @ alpha)
        s_at = float(alpha @ tau)
        if n < 2:
            raise DegenerateTrajectory(f"need >= 2 samples to fit a spring, got {n}")
        if not math.isfinite(s_aa):  # else (s_a / n) ** 2 may raise OverflowError
            raise DegenerateTrajectory(f"sum of squared angles {s_aa!r} is not finite")
        mean_sq = s_aa / n
        variance = mean_sq - (s_a / n) ** 2
        if variance <= VARIANCE_TOL * max(1.0, mean_sq):
            raise DegenerateTrajectory(
                f"angle variance {variance!r} is ~0: spring parameters underdetermined"
            )
        num_mu = s_a * s_t - n * s_at
        den_mu = s_a * s_a - n * s_aa
        mu = num_mu / den_mu
        defined = not abs(num_mu) <= COVARIANCE_TOL * max(1.0, abs(s_a * s_t), abs(n * s_at))
        if defined:
            alpha0 = (s_t * s_aa - s_at * s_a) / num_mu
            res = _energy_raw(alpha, tau, dt, k, mu, alpha0)
        else:
            # Zero covariance: the best slope is 0, but alpha0 multiplies it,
            # so no finite equilibrium exists (unless tau is identically 0).
            mu, alpha0 = 0.0, math.nan
            res = k * float(tau @ tau) * dt
        if not (math.isfinite(mu) and math.isfinite(res)):
            raise DegenerateTrajectory(f"fit is not finite: mu* {mu!r}, residual {res!r}")
        return FitDiagnostics(mu, alpha0, res, defined, n)


# --- sliding-window streaming fit --------------------------------------------


@dataclass
class WindowState:
    """Fixed-capacity sliding window of (alpha, tau), fitted on demand.

    Samples go into a preallocated ring of ``capacity`` slots. A push
    appends to a pending list, which is flushed into the ring in bulk
    when it reaches ``capacity`` and before every fit. A fit runs the
    code of :func:`fit_optimal` on the ring, so it costs O(capacity) and
    carries no rounding left over from earlier samples.

    Single-writer: :meth:`push`, :meth:`fit` and :meth:`contents` all
    update the ring, so call them from one thread.

    Attributes:
        capacity: Window length in samples.
        dt: Sampling interval of the stream [s] (energy reporting).
        model: Energy model used by :meth:`fit`.
    """

    capacity: int
    dt: float
    model: EnergyModel = field(default_factory=EnergyModel)

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {self.capacity}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        self._alpha = np.empty(self.capacity)
        self._tau = np.empty(self.capacity)
        self._head = 0  # ring slot the next flushed sample goes to
        self._filled = 0  # ring slots holding a sample
        self._new_alpha: list[float] = []
        self._new_tau: list[float] = []

    @property
    def n(self) -> int:
        """Number of samples currently in the window."""
        return min(self._filled + len(self._new_alpha), self.capacity)

    def push(self, sample: Sample) -> None:
        """Add a sample; the oldest one leaves once at capacity."""
        self._new_alpha.append(float(sample.alpha))
        self._new_tau.append(float(sample.tau))
        if len(self._new_alpha) == self.capacity:
            self._flush()

    def _flush(self) -> None:
        # Pending samples never outnumber the slots, so each lands once:
        # at the head, split in two where the ring wraps.
        m = len(self._new_alpha)
        cap, head = self.capacity, self._head
        first = min(m, cap - head)
        for ring, new in ((self._alpha, self._new_alpha), (self._tau, self._new_tau)):
            ring[head : head + first] = new[:first]
            ring[: m - first] = new[first:]
            new.clear()
        self._head = (head + m) % cap
        self._filled = min(self._filled + m, cap)

    def fit(self) -> FitDiagnostics:
        """Closed-form fit on the current window contents.

        Same contract (and errors) as :func:`fit_optimal` restricted to
        the retained samples. The ring is not reordered: the sums do not
        depend on the order of the samples.
        """
        self._flush()
        n = self._filled
        return _fit_arrays(self._alpha[:n], self._tau[:n], self.dt, self.model.k_motor)

    def contents(self) -> list[tuple[float, float]]:
        """Snapshot of the retained (alpha, tau) pairs, oldest first."""
        self._flush()
        # Until the ring is full, head == filled and the roll is a no-op.
        alpha = np.roll(self._alpha[: self._filled], -self._head)
        tau = np.roll(self._tau[: self._filled], -self._head)
        return list(zip(alpha.tolist(), tau.tolist()))
