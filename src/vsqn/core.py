"""Shared numerical plumbing: reproducible counter-based random streams,
batch-size and steplength schedules, and the one oracle contract every
solver queries (``StochasticProblem``, through ``evaluate_on_handle``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

Array = np.ndarray

BATCH_KINDS = ("geometric", "polynomial", "constant")
SCALAR_KINDS = ("constant", "power", "horizon_constant")
SMOOTHING_KINDS = (None, "smoothable", "moreau")


class OracleError(RuntimeError):
    """A stochastic oracle returned a non-finite batch gradient."""


def assert_finite(x, what: str = "vector") -> Array:
    """Validate an API-boundary array: dense, real, no NaN/Inf."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(x)))[0])
        raise ValueError(f"{what} has a non-finite entry at index {bad}")
    return x


@dataclass
class ProblemMeta:
    """Known analytic constants of a problem instance.

    All optional fields may be None when unknown; solvers fall back to
    documented defaults in that case.  ``nu1`` scales the state-dependent
    part nu1^2 |x|^2 / N of the gradient-noise second moment.
    """

    n: int
    tau: Optional[float] = None          # strong-convexity modulus
    lipschitz_L: Optional[float] = None  # gradient Lipschitz constant
    f_star: Optional[float] = None
    x_star: Optional[Array] = None
    alpha_growth: Optional[float] = None  # quadratic-growth modulus
    nu1: Optional[float] = None
    smoothing: Optional[str] = None      # oracle levels; see StochasticProblem

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be > 0 when given")
        if self.lipschitz_L is not None and self.lipschitz_L <= 0:
            raise ValueError("lipschitz_L must be > 0 when given")
        if (
            self.tau is not None
            and self.lipschitz_L is not None
            and self.lipschitz_L < self.tau
        ):
            raise ValueError("lipschitz_L must be >= tau")
        if self.nu1 is not None and self.nu1 < 0:
            raise ValueError("nu1 must be >= 0")
        if self.smoothing not in SMOOTHING_KINDS:
            raise ValueError(f"smoothing must be one of {SMOOTHING_KINDS}")


@dataclass(frozen=True)
class SampleHandle:
    """Replayable descriptor of one batch of oracle randomness.

    The handle stores the stream coordinates, not the drawn samples, so
    memory stays bounded for very large batches.  ``generator()`` returns a
    fresh generator positioned at the handle's slot; replaying it yields
    bit-identical draws, which lets the same realizations be re-evaluated
    at a different point (curvature pairs need exactly this).

    Handles are frozen and compare by value, so a problem may key a cache
    on them: the built-in problems keep the reduced draw (row indices,
    mean noise factors, a frozen batch function) of their most recent
    handle and call ``generator()`` at most once per handle in a solver
    run.

    A problem must consume the generator with a fixed recipe (same calls,
    same shapes) for a given batch size; the recipe may not depend on the
    query point.
    """

    seed: int
    stream_id: int
    start: int
    batch: int

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, self.start)
        )
        return np.random.Generator(np.random.Philox(ss))


class RngStream:
    """Counter-based random stream; identical (seed, stream_id) replays
    the identical sequence of handles."""

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.counter = 0

    def next_handle(self, batch: int) -> SampleHandle:
        batch = int(batch)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        handle = SampleHandle(self.seed, self.stream_id, self.counter, batch)
        self.counter += batch
        return handle

    def generator(self) -> np.random.Generator:
        """One-off generator occupying a single counter slot."""
        return self.next_handle(1).generator()


@runtime_checkable
class StochasticProblem(Protocol):
    """The one oracle contract: ``batch_gradient(x, handle, eta=None)``.

    It returns the batch-average gradient of the sample functions drawn
    from ``handle``, each smoothed at level ``eta`` (None: unsmoothed), as
    a pure function of (x, handle, eta).  ``meta.smoothing`` declares the
    levels it takes: None, eta must be None (the call may take two
    arguments); "smoothable", None or eta; "moreau", eta only (the gradient
    of the eta-Moreau envelope of the whole sample-average function).  The
    batch gradient is the only gradient a problem computes on a handle; the
    problems that take outside data reject non-finite values at
    construction.
    """

    meta: ProblemMeta

    def batch_gradient(self, x: Array, handle: SampleHandle,
                       eta: Optional[float] = None) -> Array: ...


def _ceil_stable(v: float) -> int:
    """Ceiling with protection against representation noise at integers."""
    nearest = round(v)
    if abs(v - nearest) <= 1e-9 * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.ceil(v))


@dataclass(frozen=True)
class BatchSchedule:
    """Sample-size rule N_k.

    kinds:
      geometric:  N_k = ceil(N0 * rate**-(k+offset)),   rate in (0, 1)
      polynomial: N_k = ceil(N0 * (k+offset)**exponent), exponent > 0
      constant:   N_k = N0
    """

    kind: str
    N0: int = 1
    rate: Optional[float] = None
    exponent: Optional[float] = None
    offset: int = 0

    def __post_init__(self):
        if self.kind not in BATCH_KINDS:
            raise ValueError(f"unknown batch schedule kind {self.kind!r}")
        if self.N0 < 1:
            raise ValueError("N0 must be >= 1")
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        if self.kind == "geometric":
            if self.rate is None or not (0.0 < self.rate < 1.0):
                raise ValueError("geometric schedule needs rate in (0, 1)")
        if self.kind == "polynomial":
            if self.exponent is None or self.exponent <= 0:
                raise ValueError("polynomial schedule needs exponent > 0")

    def eval(self, k: int) -> int:
        if k < 0:
            raise ValueError("iteration index must be >= 0")
        t = k + self.offset
        if self.kind == "constant":
            return self.N0
        if self.kind == "geometric":
            return max(1, _ceil_stable(self.N0 * self.rate ** (-t)))
        return max(1, _ceil_stable(self.N0 * float(t) ** self.exponent))


@dataclass(frozen=True)
class ScalarSchedule:
    """Scalar-parameter rule (steplengths, regularization, smoothing).

    kinds:
      constant:         base
      power:            base * max(k+offset, 1)**exponent
      horizon_constant: base * K**exponent for a run of fixed horizon K
    """

    kind: str
    base: float
    exponent: float = 0.0
    offset: int = 0

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS:
            raise ValueError(f"unknown scalar schedule kind {self.kind!r}")
        if not (self.base > 0):
            raise ValueError("base must be > 0")

    def eval(self, k: int, horizon: Optional[int] = None) -> float:
        if self.kind == "constant":
            return self.base
        if self.kind == "horizon_constant":
            if horizon is None or horizon < 1:
                raise ValueError("horizon_constant schedule needs horizon >= 1")
            return self.base * float(horizon) ** self.exponent
        t = max(k + self.offset, 1)
        return self.base * float(t) ** self.exponent


def evaluate_on_handle(problem, x: Array, handle: SampleHandle, eta=None) -> Array:
    """(Re-)evaluate a problem's batch-average gradient on a stored handle
    at smoothing level ``eta`` (None: unsmoothed, a two-argument call).

    Raises OracleError when the batch average is non-finite.  The problems
    that take outside data reject non-finite values at construction, so on
    them this means the iterate has overflowed: the run has diverged.
    """
    g = (problem.batch_gradient(x, handle) if eta is None
         else problem.batch_gradient(x, handle, eta))
    if not np.all(np.isfinite(g)):
        raise OracleError("non-finite batch gradient")
    return g
