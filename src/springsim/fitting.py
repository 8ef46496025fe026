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

``springsim fit`` fits a log in one pass with :class:`_LogFit`, which
keeps one block of samples and, past one block, centred moments in
place of the raw sums.

The sliding-window fitter re-fits the spring online. A push only records
the sample; pending samples are copied into a numpy ring in bulk, and a
fit runs the batch fit's own code on the ring, so it is exact on every
call (no running sums, no drift) at O(capacity) per fit. At capacity
4096 a push costs about a quarter of a running-sum update and a fit
about six times a running-sum fit (0.29 vs 1.1 us, 39 vs 6.6 us), so
the ring is the cheaper of the two whenever fits come less often than
about every 40 pushes. Each figure is the median over 15 processes of
each kind, run alternately, each the best of 9 timings of 40,960 pushes
into a full window and of 2,000 fits, on a shared 2-vCPU x86-64 VM
(Python 3.11, numpy 2.4).
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
#: Longest dot product handed to BLAS in one call. OpenBLAS splits a
#: longer one across its threads, and the sum then rounds differently
#: for each thread count; up to 10,000 elements it stays on one thread.
_DOT_BLOCK = 8192


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


def _dot(x, y) -> float:
    """``x @ y`` as blocks of :data:`_DOT_BLOCK` summed left to right: the
    same bits for any BLAS thread count, and ``x @ y`` itself up to one block."""
    total = float(x[:_DOT_BLOCK] @ y[:_DOT_BLOCK])
    for i in range(_DOT_BLOCK, x.size, _DOT_BLOCK):
        total += float(x[i : i + _DOT_BLOCK] @ y[i : i + _DOT_BLOCK])
    return total


def energy(traj: Trajectory, model: EnergyModel = EnergyModel()) -> float:
    """Motor energy K * sum(tau^2) * dt over the trajectory [J] (inf past float range)."""
    return _energy_arrays(traj.tau, traj.dt, model.k_motor)


def _energy_arrays(tau, dt: float, k: float) -> float:
    # energy on a bare array: energy, _fit_arrays and the log fit
    with np.errstate(over="ignore"):
        return k * _dot(tau, tau) * dt


def _energy_raw(alpha, tau, dt, k, mu, alpha0) -> float:
    # Motor energy with a spring carrying mu*(alpha - alpha0) of tau, for
    # any (mu, alpha0): fitters evaluate negative stiffness too. The
    # residual is formed a block at a time, in one buffer per block (the
    # operations and order of tau - mu * (alpha - alpha0), so the same
    # bits), and summed as _dot(r, r) sums it: no full-length temporary.
    total = 0.0
    for i in range(0, tau.size, _DOT_BLOCK):
        r = alpha[i : i + _DOT_BLOCK] - alpha0
        r *= mu
        np.subtract(tau[i : i + _DOT_BLOCK], r, out=r)
        total += float(r @ r)
    return k * total * dt


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
    g_mu = 2.0 * k * _dot(r, d) * dt
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
        s_a = float(np.add.reduce(alpha))  # np.sum's own call, minus its dispatch
        s_t = float(np.add.reduce(tau))
        s_aa = _dot(alpha, alpha)
        s_at = _dot(alpha, tau)
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
            res = _energy_arrays(tau, dt, k)
        if not (math.isfinite(mu) and math.isfinite(res)):
            raise DegenerateTrajectory(f"fit is not finite: mu* {mu!r}, residual {res!r}")
        return FitDiagnostics(mu, alpha0, res, defined, n)


# --- one-pass fit of a log -------------------------------------------------------


class _LogFit:
    """The fit and motor energy of a series fed to :meth:`add` in pieces
    of any length, in order, held in O(:data:`_DOT_BLOCK`) memory.

    Samples fill one :data:`_DOT_BLOCK` buffer pair. A full block is
    folded, once the next sample arrives, into the count, means and
    centred second moments ``C_aa, C_at, C_tt`` of all samples so far by
    the pairwise merge of Chan, Golub & LeVeque (1979), and its sum of
    squared torques is added as :func:`_dot` adds it, so the energy has
    the bits of :func:`energy`. A series of at most one block is never
    folded and is fitted by :func:`_fit_arrays`, with the bits of
    :func:`fit_optimal`. A longer one is fitted from the moments::

        mu* = C_at / C_aa,  alpha0* = mean_a - mean_t / mu*,
        E_spring = K * dt * max(0, C_tt - C_at mu*)

    which differs from :func:`fit_optimal` in the last digits of those
    three values: centred moments do not cancel as raw sums do, so it is
    the closer of the two to the exact fit. Blocks count samples, not
    bytes, so the result does not depend on how the series is cut.
    """

    __slots__ = ("_alpha", "_tau", "_fill", "_n", "_mean_a", "_mean_t",
                 "_c_aa", "_c_at", "_c_tt", "_s_tt")

    def __init__(self):
        self._alpha = np.empty(_DOT_BLOCK)
        self._tau = np.empty(_DOT_BLOCK)
        self._fill = 0  # samples in the buffers
        self._n = 0  # samples folded into the moments
        self._mean_a = self._mean_t = 0.0
        self._c_aa = self._c_at = self._c_tt = 0.0
        self._s_tt = 0.0  # sum of squared torques, a block at a time

    def add(self, rows) -> None:
        """Feed the next samples: rows t, alpha, tau, 1-D arrays of equal
        length (the fit needs no timestamps)."""
        alpha, tau = rows[1], rows[2]
        i, m = 0, alpha.size
        while i < m:
            if self._fill == _DOT_BLOCK:
                self._fold()
            take = min(_DOT_BLOCK - self._fill, m - i)
            j = self._fill
            self._alpha[j : j + take] = alpha[i : i + take]
            self._tau[j : j + take] = tau[i : i + take]
            self._fill += take
            i += take

    def _fold(self) -> None:
        # Centred in place: the buffers are refilled after a fold.
        m = self._fill
        a, t = self._alpha[:m], self._tau[:m]
        with np.errstate(over="ignore", invalid="ignore"):
            self._s_tt += float(t @ t)
            mean_a = float(np.add.reduce(a)) / m
            mean_t = float(np.add.reduce(t)) / m
            a -= mean_a
            t -= mean_t
            c_aa, c_at, c_tt = float(a @ a), float(a @ t), float(t @ t)
        n0 = self._n
        n = n0 + m
        d_a, d_t = mean_a - self._mean_a, mean_t - self._mean_t
        w = n0 * m / n
        self._mean_a += d_a * (m / n)
        self._mean_t += d_t * (m / n)
        self._c_aa += c_aa + d_a * d_a * w
        self._c_at += c_at + d_a * d_t * w
        self._c_tt += c_tt + d_t * d_t * w
        self._n = n
        self._fill = 0

    def result(self, dt: float, k: float) -> tuple[FitDiagnostics, float]:
        """The fit of every sample fed, with the contract and errors of
        :func:`fit_optimal`, and their motor energy K * sum(tau^2) * dt."""
        if not self._n:
            alpha, tau = self._alpha[: self._fill], self._tau[: self._fill]
            return _fit_arrays(alpha, tau, dt, k), _energy_arrays(tau, dt, k)
        if self._fill:
            self._fold()
        n, mean_a, mean_t = self._n, self._mean_a, self._mean_t
        c_aa, c_at, c_tt = self._c_aa, self._c_at, self._c_tt
        e0 = k * self._s_tt * dt
        # The checks of _fit_arrays, with its sums written as n * mean and
        # n * C + (n * mean) * (n * mean).
        if not math.isfinite(c_aa):
            raise DegenerateTrajectory(f"sum of squared angle deviations {c_aa!r} is not finite")
        variance = c_aa / n
        mean_sq = variance + mean_a * mean_a
        if variance <= VARIANCE_TOL * max(1.0, mean_sq):
            raise DegenerateTrajectory(
                f"angle variance {variance!r} is ~0: spring parameters underdetermined"
            )
        sa_st = (n * mean_a) * (n * mean_t)
        scale = max(1.0, abs(sa_st), abs(n * c_at + sa_st))
        defined = not n * abs(c_at) <= COVARIANCE_TOL * scale
        if defined:
            mu = c_at / c_aa
            # mean_t / mu, but c_at is not 0 where mu may underflow to 0
            alpha0 = mean_a - mean_t * (c_aa / c_at)
            res = k * max(c_tt - c_at * mu, 0.0) * dt  # max keeps a NaN first argument
        else:
            mu, alpha0, res = 0.0, math.nan, e0
        # Unlike _fit_arrays's, this residual does not depend on alpha0, so
        # it does not turn non-finite with it: alpha0 is checked itself.
        finite = math.isfinite(alpha0) or not defined
        if not (finite and math.isfinite(mu) and math.isfinite(res)):
            raise DegenerateTrajectory(
                f"fit is not finite: mu* {mu!r}, alpha0* {alpha0!r}, residual {res!r}"
            )
        return FitDiagnostics(mu, alpha0, res, defined, n), e0


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
        # at the head, split in two only where the ring wraps.
        m = len(self._new_alpha)
        if not m:
            return
        cap, head = self.capacity, self._head
        room = cap - head
        for ring, new in ((self._alpha, self._new_alpha), (self._tau, self._new_tau)):
            if m <= room:
                ring[head : head + m] = new
            else:
                ring[head:] = new[:room]
                ring[: m - room] = new[room:]
            new.clear()
        self._head = (head + m) % cap
        self._filled = min(self._filled + m, cap)

    def fit(self) -> FitDiagnostics:
        """Closed-form fit on the current window contents.

        Same contract (and errors) as :func:`fit_optimal` restricted to
        the retained samples. The ring is fitted in slot order, not oldest
        first, so it is not copied. In floats the sums depend on that
        order: once the ring has wrapped, a fit can differ in its last
        bits from :func:`fit_optimal` on :meth:`contents`.
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
