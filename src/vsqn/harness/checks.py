"""Verification oracles: finite-difference gradient checks, empirical
rate-slope fitting, and sparsity counting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core import Array


@dataclass
class FdReport:
    max_rel_err: float
    worst_point: Array
    points_checked: int
    passed: bool


def fd_check(value_grad: Callable, points: Sequence[Array],
             step: float | None = None, threshold: float = 1e-5) -> FdReport:
    """Compare analytic gradients against central finite differences.

    ``value_grad(x)`` must return (value, gradient).  The default step is
    1e-6 * (1 + |x|) per point; points should be jittered away from
    piecewise boundaries.
    """
    worst = -1.0
    worst_point = None
    count = 0
    for x in points:
        x = np.asarray(x, dtype=float)
        _, grad = value_grad(x)
        grad = np.asarray(grad, dtype=float)
        h = step if step is not None else 1e-6 * (1.0 + float(np.linalg.norm(x)))
        fd = np.empty_like(grad)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (value_grad(x + e)[0] - value_grad(x - e)[0]) / (2.0 * h)
        denom = max(float(np.linalg.norm(grad)), 1e-6)
        rel = float(np.linalg.norm(fd - grad)) / denom
        count += 1
        if rel > worst:
            worst = rel
            worst_point = x
    return FdReport(worst, worst_point, count, worst <= threshold)


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    model: str
    points_used: int


def rate_fit(ks: Sequence[float], gaps: Sequence[float],
             model: str = "linear_in_k") -> RateFit:
    """Least-squares slope of log(gap) against k (``linear_in_k``, suited to
    geometric decay) or against log k (``power_in_k``)."""
    if model not in ("linear_in_k", "power_in_k"):
        raise ValueError(f"unknown rate model {model!r}")
    ks = np.asarray(ks, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    keep = np.isfinite(gaps) & (gaps > 0)
    if model == "power_in_k":
        keep &= ks > 0
    ks, gaps = ks[keep], gaps[keep]
    if ks.size < 20:
        raise ValueError(f"insufficient points for a rate fit ({ks.size} < 20)")
    t = ks if model == "linear_in_k" else np.log(ks)
    y = np.log(gaps)
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    total = y - y.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(coef[0]), float(coef[1]), r2, model, int(ks.size))


def sparsity_count(x: Array, threshold: float = 1e-4) -> int:
    """Number of entries with |x_i| <= threshold."""
    return int(np.sum(np.abs(np.asarray(x, dtype=float)) <= threshold))
