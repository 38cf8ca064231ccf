"""Spans around the calls into each vsqn layer, recorded from outside.

``instrument`` replaces, for the duration of one ``with`` block, the
functions and methods the solver loop looks up at run time with wrappers
that open a span on entry and close it on return.  Nothing under ``src/``
is edited: the wrappers are installed on the module globals and classes the
loop resolves by name, and on the problem instance for its oracle methods,
and the originals are restored on exit.

A span records its name, the span open when it started (its parent), and
its start and end times.  Spans stay in memory; ``summarize`` reduces them
to per-name call counts, total time and self time (duration minus the time
covered by direct child spans).
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

from vsqn import hessian, problems, smoothing, solvers
from vsqn.core import SampleHandle

GENERATOR = "core.generator"
EVALUATE = "core.evaluate"
ORACLE = "problems.oracle"
VALUE = "problems.value"
COLLECT_PAIR = "hessian.collect_pair"
APPLY = "hessian.apply"
PROX = "smoothing.prox"
HUBER = "smoothing.huber"
RUN = "solvers.run"
WRITE_CSV = "harness.write_csv"

# problem methods that return a batch gradient on a sample handle
ORACLE_METHODS = ("batch_gradient", "batch_gradient_smoothed", "envelope_gradient")


class Tracer:
    """In-memory span store plus event counts made at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def arrays(self):
        """(names, parents, starts, ends) as NumPy arrays."""
        return (np.asarray(self.names, dtype=object),
                np.asarray(self.parents, dtype=np.int64),
                np.asarray(self.starts, dtype=float),
                np.asarray(self.ends, dtype=float))

    def _durations(self):
        """(names, parents, starts, ends, durations, time covered by each
        span's direct children)."""
        names, parents, starts, ends = self.arrays()
        durations = ends - starts
        child = parents >= 0
        covered = np.bincount(parents[child], weights=durations[child],
                              minlength=len(durations))
        return names, parents, starts, ends, durations, covered

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent, plus parents
        whose direct children cover more time than the parent lasted."""
        _, parents, starts, ends, durations, covered = self._durations()
        child = parents >= 0
        p = parents[child]
        outside = int(np.sum((starts[child] < starts[p]) | (ends[child] > ends[p])))
        return outside + int(np.sum(covered > durations + 1e-9))

    def summarize(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}; oracle calls count only
        spans not nested inside another oracle span."""
        names, parents, _, _, durations, covered = self._durations()
        child = parents >= 0
        self_time = durations - covered
        nested_oracle = child & (names[np.maximum(parents, 0)] == ORACLE)
        out = {}
        for name in np.unique(names) if len(names) else ():
            mask = names == name
            calls = int(np.sum(mask & ~nested_oracle)) if name == ORACLE else int(np.sum(mask))
            out[str(name)] = {
                "calls": calls,
                "total_s": float(np.sum(durations[mask])),
                "self_s": float(np.sum(self_time[mask])),
            }
        return out


def _patch(patches, owner, attr, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)``; a name a later
    version of the package no longer has is skipped, and its spans read 0."""
    original = vars(owner).get(attr)
    if original is not None:
        patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))


@contextlib.contextmanager
def instrument(tracer: Tracer, problem):
    """Install span wrappers for one solve on ``problem``; restore on exit."""
    counts = tracer.counts
    patches: list = []

    def traced_generator(generator):
        def counted(handle):
            counts["draws"] += handle.batch
            return generator(handle)
        return tracer.wrap(GENERATOR, counted)

    def traced_prox(prox):
        def counted(fn, x, eta):
            grad = fn.smooth_grad

            def inner_grad(u):
                counts["prox_inner_iters"] += 1
                return grad(u)

            fn.smooth_grad = inner_grad
            try:
                return prox(fn, x, eta)
            finally:
                fn.smooth_grad = grad
        return tracer.wrap(PROX, counted)

    def spanned(name):
        return lambda fn: tracer.wrap(name, fn)

    _patch(patches, SampleHandle, "generator", traced_generator)
    _patch(patches, solvers, "evaluate_on_handle", spanned(EVALUATE))
    _patch(patches, solvers, "collect_pair", spanned(COLLECT_PAIR))
    _patch(patches, hessian.LbfgsMemory, "apply", spanned(APPLY))
    _patch(patches, smoothing.CompositeProxFunction, "prox", traced_prox)
    _patch(patches, problems, "huber_l1", spanned(HUBER))
    shadowed = []
    for attr in ORACLE_METHODS + ("true_value",):
        method = getattr(problem, attr, None)
        if method is not None:
            setattr(problem, attr, tracer.wrap(VALUE if attr == "true_value" else ORACLE, method))
            shadowed.append(attr)
    try:
        yield tracer
    finally:
        for attr in shadowed:
            delattr(problem, attr)
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
