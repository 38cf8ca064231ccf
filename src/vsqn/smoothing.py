"""Smoothers for nonsmooth convex pieces.

Provides Moreau envelopes via proximal maps (closed form or an
accelerated inner solver, finished exactly by one Newton step on the l1
support when the smooth part is a quadratic that states its Hessian),
log-sum-exp smoothing of a max of affine forms,
componentwise Huber smoothing of the l1 norm, Euclidean-norm smoothing,
squared-distance smoothing of set indicators, and validity checks for the
smoothing inequalities used by the diminishing-parameter solvers.

For each smoother the gradient of the eta-smoothed function is
(alpha/eta)-Lipschitz and f_eta <= f <= f_eta + eta*beta pointwise, with
(alpha, beta) = (1, 1) for the Euclidean norm, (1, n/2) for the l1 norm in
R^n, (|A|_2^2, log p) for a max of p affine forms with rows A, and (1, B^2)
for a Moreau envelope of a function with subgradients bounded by B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Array, ConfigError


class ProxSolverError(RuntimeError):
    """Inner proximal solve failed to reach its residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# the inner prox solve stops once its residual is at most
# _PROX_TOLERANCE * (1 + |x|), and stalls past _PROX_MAX_ITERS steps
_PROX_TOLERANCE = 1e-10
_PROX_MAX_ITERS = 20_000


def prox_soft_threshold(x: Array, threshold: float) -> Array:
    """Componentwise sign(x_i) * max(|x_i| - threshold, 0) of a float array
    x, for threshold >= 0; computed in place on one new array (the inner
    prox loop calls it once per iteration)."""
    out = np.abs(x)
    out -= threshold
    np.maximum(out, 0.0, out=out)
    out *= np.sign(x)
    return out


class L1Function:
    """lam * |u|_1 with its closed-form prox."""

    def __init__(self, lam: float = 1.0):
        if not 0 <= lam < math.inf:
            raise ConfigError("lam", f"must be finite and >= 0, got {lam!r}")
        self.lam = float(lam)

    def value(self, u: Array) -> float:
        return self.lam * float(np.sum(np.abs(u)))

    def prox(self, x: Array, t: float) -> Array:
        return prox_soft_threshold(x, t * self.lam)


class CompositeProxFunction:
    """f = h + g with h prox-friendly and g smooth; prox via inner solver.

    The inner problem  min_u h(u) + g(u) + |u - x|^2 / (2 eta)  is at least
    (1/eta)-strongly convex, since h and g are convex, and its smooth part
    is (L + 1/eta)-smooth for L = ``lipschitz_L``, g's gradient Lipschitz
    constant.  The solve is proximal gradient with constant strongly convex
    momentum (Nesterov 2004, Introductory Lectures, 2.2; the proximal step
    as in FISTA, Beck and Teboulle 2009): from y = u + beta (u - u_prev) it
    steps to T(y) = prox_{step h}(y - step grad(y)), with step = 1/(L + 1/eta)
    and beta = (1 - q)/(1 + q), q = sqrt(step/eta).  The momentum assumes
    only the 1/eta floor, so the solve takes O(sqrt(1 + L eta) log(1/tol))
    iterations, against O((1 + L eta) log(1/tol)) without it.  It stops on
    the gradient-mapping residual at y, |T(y) - y| / step, and returns
    T(y).  An L below g's true constant voids that rate.

    Exact finish.  When h is an ``L1Function`` (weight lam) and g is a
    quadratic whose Hessian Q is given (``hessian``), each T(y) that misses
    the tolerance is tried as the support S and signs s of the answer (the
    shrinkage-then-subspace scheme of FPC_AS, Wen, Yin, Goldfarb and Zhang,
    SIAM J. Sci. Comput. 2010).  Where u is zero off S and has signs s on
    S, the inner objective is the quadratic g(u) + lam s.u_S +
    |u - x|^2 / (2 eta), so one Newton step from T(y) on the S entries,
    (Q_SS + I/eta) d = r_S + lam s  with the inner gradient
    r = grad g(T(y)) + (T(y) - x)/eta,  lands on its minimizer c there.  c is
    returned only when it passes the inner KKT test on r at c: sign(c_S) =
    s, |r_S + lam s| within the loop's tolerance (zero to rounding when Q
    is g's Hessian), and |r_i| <= lam for every i off S; then c is the
    inner minimizer.  Otherwise the momentum loop goes on as without a
    Hessian, and a pattern (S, s) once rejected is not solved again in the
    call.  Q + I/eta is formed once per eta.  The loop and the finish take
    every gradient through ``smooth_grad``.
    """

    def __init__(self, h, smooth_value, smooth_grad, lipschitz_L,
                 hessian: Optional[Array] = None):
        self.h = h
        self.smooth_value = smooth_value
        self.smooth_grad = smooth_grad
        self.lipschitz_L = float(lipschitz_L)
        self.hessian = hessian
        self._newton = None  # (eta, Q + I/eta) of the last finish

    def value(self, u: Array) -> float:
        return self.h.value(u) + float(self.smooth_value(u))

    def prox(self, x: Array, eta: float) -> Array:
        x = np.asarray(x, dtype=float)
        step = 1.0 / (self.lipschitz_L + 1.0 / eta)
        q = math.sqrt(step / eta)
        beta = (1.0 - q) / (1.0 + q)
        # y - step * (grad g(y) + (y - x)/eta) = keep y + shift - step grad g(y)
        keep = 1.0 - step / eta
        shift = (step / eta) * x
        # norms as sqrt(v . v), which np.linalg.norm computes for a vector
        tol = _PROX_TOLERANCE * (1.0 + math.sqrt(x @ x))
        u = y = x
        residual = math.inf
        smooth_grad, h_prox = self.smooth_grad, self.h.prox
        rejected = (set() if self.hessian is not None
                    and isinstance(self.h, L1Function) else None)
        for _ in range(_PROX_MAX_ITERS):
            v = keep * y
            v += shift
            v -= step * smooth_grad(y)
            u_next = h_prox(v, step)
            d = u_next - y
            residual = math.sqrt(d @ d) / step
            if residual <= tol:
                return u_next
            if rejected is not None:
                c = self._finish(u_next, x, eta, tol, rejected)
                if c is not None:
                    return c
            y = u_next - u
            y *= beta
            y += u_next
            u = u_next
        raise ProxSolverError(
            f"inner prox solve stalled at residual {residual:.3e} "
            f"(tolerance {tol:.3e})",
            residual,
        )

    def _finish(self, t: Array, x: Array, eta: float, tol: float,
                rejected: set):
        """The Newton step on the support and signs of the shrinkage step t
        (see the class docstring): the inner minimizer, or None when it
        fails the KKT test or its pattern is in ``rejected``."""
        signs = np.sign(t)
        signs += 0.0  # -0.0 -> 0.0: one key per pattern
        pattern = signs.tobytes()
        if pattern in rejected:
            return None
        rejected.add(pattern)
        if self._newton is None or self._newton[0] != eta:
            self._newton = (eta, self.hessian + np.eye(t.size) / eta)
        lam = self.h.lam
        on = np.flatnonzero(signs)
        rhs = self.smooth_grad(t)
        rhs += (t - x) / eta
        rhs += lam * signs  # r + lam s on S
        system = self._newton[1].take(on, 0).take(on, 1)
        c = t.copy()
        c[on] -= np.linalg.solve(system, rhs[on])
        if not np.all(c[on] * signs[on] > 0):
            return None
        r = self.smooth_grad(c)
        r += (c - x) / eta
        r += lam * signs
        on_s = r[on]
        r[on] = 0.0
        if math.sqrt(on_s @ on_s) <= tol and np.all(np.abs(r) <= lam):
            return c
        return None


def moreau_value_grad(f, x: Array, eta: float):
    """Envelope value and gradient at x for a function exposing a prox.

    value = f(u*) + |u* - x|^2/(2 eta) and grad = (x - u*)/eta where
    u* = prox_{eta, f}(x).
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    x = np.asarray(x, dtype=float)
    u = f.prox(x, eta)
    diff = x - u
    value = f.value(u) + float(diff @ diff) / (2.0 * eta)
    return value, diff / eta


def lse_smooth_max(A: Array, b: Array, x: Array, eta: float):
    """Smoothed max of affine forms a_i.x + b_i.

    value = eta*log(sum_i exp(z_i/eta)) - eta*log(count) with
    z_i = a_i.x + b_i, computed with max subtraction; the gradient is the
    softmax-weighted combination of the rows of A.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(A.shape[0])
    if A.shape[0] < 2:
        raise ValueError("need at least 2 affine terms")
    z = A @ np.asarray(x, dtype=float) + b
    zmax = float(np.max(z))
    w = np.exp((z - zmax) / eta)
    total = float(np.sum(w))
    value = zmax + eta * math.log(total) - eta * math.log(A.shape[0])
    w /= total
    return value, w @ A


def huber_l1(x: Array, eta: float):
    """Componentwise Huber smoothing of |x|_1 and its gradient.

    Per entry: x_i^2/(2 eta) on |x_i| <= eta, else |x_i| - eta/2.  The
    branch boundary goes to the quadratic side (both formulas coincide
    there).
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    value = float(np.sum(np.where(ax <= eta, x * x / (2.0 * eta), ax - eta / 2.0)))
    return value, huber_l1_grad(x, eta)


def huber_l1_grad(x: Array, eta: float) -> Array:
    """Gradient of ``huber_l1`` for a float array x and eta > 0: x_i/eta on
    |x_i| <= eta, else sign(x_i).

    Computed as x/eta clipped to [-1, 1], which is that piecewise formula
    bit for bit: rounding is monotone, so x_i/eta lands in [-1, 1] exactly
    when |x_i| <= eta, and at +-1 or beyond otherwise; NaN propagates.
    """
    return np.minimum(np.maximum(x / eta, -1.0), 1.0)


def norm2_smooth(x: Array, eta: float):
    """sqrt(|x|^2 + eta^2) - eta and its gradient x/sqrt(|x|^2 + eta^2)."""
    if eta <= 0:
        raise ValueError("eta must be > 0")
    x = np.asarray(x, dtype=float)
    root = math.sqrt(float(x @ x) + eta * eta)
    return root - eta, x / root


def indicator_smooth(x: Array, project: Callable[[Array], Array], eta: float):
    """Squared-distance smoothing of a set indicator.

    value = |x - P(x)|^2/(2 eta), grad = (x - P(x))/eta with P the
    Euclidean projection onto the set.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    x = np.asarray(x, dtype=float)
    diff = x - project(x)
    return float(diff @ diff) / (2.0 * eta), diff / eta


def eta_schedule_diminishing(n: int, tau: float, k: int) -> float:
    """Smoothing level (2(n+1)^2 / (tau^2 (k+2)))^(1/3); decreasing in k,
    and finite and > 0 for every tau > 0: tau^2 is never formed."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    return (2.0 * (n + 1) ** 2 / (k + 2)) ** (1.0 / 3.0) / tau ** (2.0 / 3.0)


@dataclass
class ChainReport:
    max_violation: float
    points_checked: int
    passed: bool


def check_smoothing_chain(f_pair, eta_k: float, eta_k1: float, B: float,
                          points: Sequence[Array]) -> ChainReport:
    """Check f_{eta'}(x) <= f_{eta}(x) + ((eta^2/eta') - eta) B^2 / 2
    over sampled points, for a consecutive pair of smoothing levels
    eta' <= eta.  Passes when the worst violation is at floating-point
    scale (<= 1e-12)."""
    if eta_k1 > eta_k:
        raise ValueError("smoothing levels must be non-increasing")
    f_eta, f_eta1 = f_pair
    slack = 0.5 * (eta_k**2 / eta_k1 - eta_k) * B * B
    worst = -math.inf
    count = 0
    for x in points:
        violation = f_eta1(x) - (f_eta(x) + slack)
        worst = max(worst, violation)
        count += 1
    return ChainReport(worst, count, worst <= 1e-12)
