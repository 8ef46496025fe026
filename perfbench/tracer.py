"""Span tracer that wraps springsim's public functions from outside.

Each target function is replaced, in every ``springsim`` namespace that
binds it, by a wrapper that records a span: name, parent span, start and
end. A target that no longer exists is listed as untraced instead of
failing, so the benchmark survives refactors that delete or rename it.
Spans stay in memory and are written out once, when tracing ends; past
a span budget, a pass's spans are added to the totals and then dropped.

Self time of a span is its duration minus the part of its interval its
child spans cover, so the self times of all spans in a pass plus the
time outside every span add up to the pass.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _steps(args, result):
    return (args[0].n_ticks * args[0].n_substeps,)


def _saved(args, result):
    return len(args[0]), os.path.getsize(args[1])


def _loaded(args, result):
    return len(result), os.path.getsize(args[0])


def _fitted(args, result):
    return (result.n,)


def _plotted(args, result):
    return (os.path.getsize(args[0]),)


@dataclass(frozen=True)
class Target:
    """A function to trace: metric prefix, defining module, attribute path.

    ``count`` maps (positional args, result) of a successful call to the
    amounts of the work counters named in ``counters``; it runs outside
    the span.
    """

    name: str
    module: str
    attr: str
    count: Callable | None = None
    counters: tuple[str, ...] = ()


TARGETS = (
    Target("cli.main", "springsim.cli", "main"),
    Target("harness.run_grid", "springsim.harness", "run_grid"),
    Target("harness.run_experiment", "springsim.harness", "run_experiment"),
    Target("harness.export_traces", "springsim.harness", "export_traces_from_dir"),
    Target("harness.fit_external", "springsim.harness", "fit_external"),
    Target("simulator.run", "springsim.simulator", "run", _steps, ("simulator.steps",)),
    Target("simulator.initial_state", "springsim.simulator", "initial_state"),
    Target(
        "trajectory.save", "springsim.trajectory", "save_trajectory", _saved,
        ("trajectory.save.rows", "trajectory.save.bytes"),
    ),
    Target(
        "trajectory.load", "springsim.trajectory", "load_trajectory", _loaded,
        ("trajectory.load.rows", "trajectory.load.bytes"),
    ),
    Target(
        "fitting.fit_optimal", "springsim.fitting", "fit_optimal", _fitted,
        ("fitting.fit_optimal.samples",),
    ),
    Target("fitting.energy", "springsim.fitting", "energy"),
    Target("fitting.window.push", "springsim.fitting", "WindowState.push"),
    Target("fitting.window.fit", "springsim.fitting", "WindowState.fit"),
    Target(
        "svgplot.line_plot", "springsim.svgplot", "line_plot", _plotted,
        ("svgplot.line_plot.bytes",),
    ),
)


def self_times(parent, t0, t1, start: int = 0) -> list[float]:
    """Per span from ``start`` on: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i in range(start, len(parent)):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = []
    for i in range(start, len(t0)):
        covered = 0.0
        end = t0[i]
        for c in sorted(children.get(i, ()), key=lambda c: t0[c]):
            lo, hi = max(t0[c], end), min(t1[c], t1[i])
            if hi > lo:
                covered += hi - lo
                end = hi
        out.append(t1[i] - t0[i] - covered)
    return out


class Tracer:
    """Records spans for ``targets`` between :meth:`install` and :meth:`uninstall`."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.failed = array("b")
        self.totals: dict[str, float] = {}
        for target in self.targets:
            for key in (".calls", ".failed", ".self_s"):
                self.totals[target.name + key] = 0
        self.counts: dict[str, float] = {key: 0 for t in self.targets for key in t.counters}
        self.count_errors = 0
        self.untraced: list[str] = []
        self._summed = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.untraced = []
        for idx, target in enumerate(self.targets):
            owner, attr, original = _resolve(target)
            if original is None:
                self.untraced.append(target.name)
                continue
            wrapper = self._wrap(idx, original, target)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # Patch every springsim namespace that binds this object, so
            # `from .x import y` aliases are traced too.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "springsim":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, idx: int, fn, target: Target):
        parent, name, t0, t1, failed, stack = (
            self.parent, self.name, self.t0, self.t1, self.failed, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t0)
            parent.append(stack[-1] if stack else -1)
            name.append(idx)
            t1.append(0.0)
            failed.append(0)
            stack.append(sid)
            t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                t1[sid] = perf_counter()
                stack.pop()
            if target.count is not None:
                self._count(target, args, result)
            return result

        return traced

    def _count(self, target: Target, args, result) -> None:
        try:
            amounts = target.count(args, result)
        except (AttributeError, TypeError, IndexError, OSError):
            # The target's signature changed; the span itself still counts.
            self.count_errors += 1
            return
        for key, amount in zip(target.counters, amounts):
            self.counts[key] += amount

    def end_pass(self, keep_spans: int = sys.maxsize) -> None:
        """Add the spans recorded since the last call to the totals.

        If more than ``keep_spans`` spans would then be in memory, the new
        ones are dropped: their calls and self times stay in the totals.
        """
        start = self._summed
        for i, s in enumerate(self_times(self.parent, self.t0, self.t1, start), start):
            prefix = self.targets[self.name[i]].name
            self.totals[f"{prefix}.calls"] += 1
            self.totals[f"{prefix}.failed"] += self.failed[i]
            self.totals[f"{prefix}.self_s"] += s
        if len(self.t0) > keep_spans:
            for column in (self.parent, self.name, self.t0, self.t1, self.failed):
                del column[start:]
        self._summed = len(self.t0)

    def summary(self) -> dict[str, float]:
        """Totals over every recorded span: <name>.calls, .failed, .self_s, counters."""
        self.end_pass()
        return {**self.totals, **self.counts}

    def write(self, path) -> None:
        """Write every span as CSV: id,parent,name,t0,t1,failed."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,t0,t1,failed\n")
            for i in range(len(self.t0)):
                fh.write(
                    f"{i},{self.parent[i]},{self.targets[self.name[i]].name},"
                    f"{self.t0[i]!r},{self.t1[i]!r},{self.failed[i]}\n"
                )


def _resolve(target: Target):
    """(owner, attribute, function) for a target; function None when missing."""
    module = sys.modules.get(target.module)
    if module is None:
        try:
            module = __import__(target.module, fromlist=["_"])
        except ImportError:
            return None, None, None
    owner = module
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None, None, None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, attr, original if callable(original) else None
