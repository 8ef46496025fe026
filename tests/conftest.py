"""Shared fixtures, trajectory generators and an ``open`` spy."""

import builtins
import errno
import io
import os

import numpy as np
import pytest

from springsim import EnergyModel, Trajectory, paper_table, run_grid


def make_trajectory(rng, n=None, dt=0.01, slope=None, alpha0=None, noise=0.05):
    """Random non-degenerate trajectory with a definite linear component.

    alpha is drawn around a random center with spread >= 0.2 so the fit
    is well conditioned; tau = slope * (alpha - alpha0) + noise.
    """
    if n is None:
        n = int(rng.integers(10, 2001))
    center = rng.uniform(-2.0, 2.0)
    spread = rng.uniform(0.2, 1.5)
    alpha = center + spread * (rng.random(n) - 0.5) * 2.0
    if slope is None:
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 8.0)
    if alpha0 is None:
        alpha0 = rng.uniform(-3.0, 3.0)
    tau = slope * (alpha - alpha0) + noise * rng.standard_normal(n)
    t = np.arange(n) * dt
    return Trajectory(t, alpha, tau, dt=dt)


def spy_on_open(monkeypatch, path, refuse=False, reader=None):
    """Record each ``open`` of ``path`` (through ``open`` or ``io.open``).

    With ``refuse``, each such open raises ``PermissionError``, as for a
    file without read permission (file modes do not stop root). With
    ``reader``, each such open returns ``reader(path)`` in place of the
    file. Returns the list that records the opens.
    """
    path = os.fspath(path)
    real_open = io.open
    opened = []

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == path:
            opened.append(args)
            if refuse:
                raise PermissionError(errno.EACCES, "Permission denied", path)
            if reader is not None:
                return reader(path)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    monkeypatch.setattr(io, "open", spy)
    return opened


@pytest.fixture(scope="session")
def grid_dir(tmp_path_factory):
    """One shared run of the built-in grid (used by several test modules)."""
    out = tmp_path_factory.mktemp("grid")
    report = run_grid(paper_table(), out, EnergyModel())
    assert report.ok, report.failures
    return out, report
