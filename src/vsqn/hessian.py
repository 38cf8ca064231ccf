"""Curvature-pair collection and the limited-memory inverse-Hessian
approximation, in plain and regularized-smoothed variants.

Pairs are formed at odd iterations from two batch gradients evaluated on
the identical sample batch, the one drawn for the previous step: the
gradient at the previous iterate is that step's own gradient when the
smoothing levels agree, and the solver loop holds that step's draw, so the
other needs no redraw.  In strongly convex (SC) mode y is the raw gradient
difference; in merely convex (C) mode, which is the mode
exactly when a regularization weight mu is given, the gradients are taken
of a mildly smoothed surrogate (level eta**delta) and y gains a
mu**delta_bar * s term so the secant condition survives without strong
convexity.

The production path applies H matrix-free through the two-loop recursion;
dense materializations of H and its inverse exist for certificates only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array

REGIMES = ("SC-smooth", "SC-Moreau", "C-smooth", "C-smoothed")


class SecantError(RuntimeError):
    """A collected pair violated s.y > 0.

    Impossible when sample reuse and convexity assumptions hold; signals a
    mis-specified problem or a broken replay.
    """

    def __init__(self, message: str, s_dot_y: float):
        super().__init__(message)
        self.s_dot_y = s_dot_y


@dataclass
class CurvaturePair:
    s: Array
    y: Array
    formed_at: int
    mu_used: Optional[float] = None
    eta_used: Optional[float] = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.sy = float(self.s @ self.y)
        self.yy = float(self.y @ self.y)
        # read 2m times per two-loop apply; s.y = 0 is a SecantError in
        # collect_pair, not a ZeroDivisionError here
        self.rho = 1.0 / self.sy if self.sy else math.inf


def collect_pair(
    x_i: Array,
    x_prev: Array,
    grad_at_xi: Array,
    grad_at_xprev: Array,
    formed_at: int,
    mu_i: Optional[float] = None,
    eta_i: Optional[float] = None,
    delta_bar: float = 1.0,
) -> CurvaturePair:
    """Build a curvature pair from gradients on one sample batch.

    Both gradients must come from the identical drawn batch.  The pair
    is a C-mode pair exactly when ``mu_i`` is given: then the gradients
    must be of the smoothed surrogate (level eta_i**delta, chosen by the
    caller), and the mu_i**delta_bar * s regularization term is added here.
    """
    s = np.asarray(x_i, float) - np.asarray(x_prev, float)
    if not np.any(s):
        raise ValueError("zero step: refusing to form a curvature pair")
    y = np.asarray(grad_at_xi, float) - np.asarray(grad_at_xprev, float)
    if mu_i is not None:
        if not mu_i > 0:
            raise ValueError(f"C mode needs mu_i > 0, got {mu_i!r}")
        y = y + (mu_i**delta_bar) * s
    pair = CurvaturePair(s, y, formed_at, mu_used=mu_i, eta_used=eta_i)
    if pair.sy <= 0:
        raise SecantError(
            f"curvature pair at iteration {formed_at} has s.y = {pair.sy:.3e} <= 0",
            pair.sy,
        )
    return pair


class LbfgsMemory:
    """Bounded store of the m most recent curvature pairs.

    With no pairs the represented matrix is the identity; otherwise it is
    the recursive update over the stored pairs, oldest to newest, started
    from the scaled identity (s.y/y.y) I of the newest pair.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("memory depth m must be >= 1")
        self.pairs: deque[CurvaturePair] = deque(maxlen=m)

    def push(self, pair: CurvaturePair) -> None:
        if self.pairs and pair.formed_at <= self.pairs[-1].formed_at:
            raise ValueError("pairs must be pushed in increasing iteration order")
        self.pairs.append(pair)

    def apply(self, v: Array) -> Array:
        """Two-loop evaluation of H v."""
        if not self.pairs:
            return np.asarray(v, dtype=float).copy()
        q = np.asarray(v, dtype=float).copy()
        alphas = []
        for pair in reversed(self.pairs):
            a = pair.rho * float(pair.s @ q)
            q -= a * pair.y
            alphas.append(a)
        newest = self.pairs[-1]
        r = (newest.sy / newest.yy) * q
        for pair, a in zip(self.pairs, reversed(alphas)):
            b = pair.rho * float(pair.y @ r)
            r += (a - b) * pair.s
        return r


def materialize_dense(mem: LbfgsMemory, n: int) -> Array:
    """Dense H by direct transcription of the recursive update.

    Certificate use only (n small); the solver path is matrix-free.
    """
    H = np.eye(n)
    if not mem.pairs:
        return H
    newest = mem.pairs[-1]
    H *= newest.sy / newest.yy
    for p in mem.pairs:
        V = np.eye(n) - np.outer(p.y, p.s) / p.sy
        H = V.T @ H @ V + np.outer(p.s, p.s) / p.sy
    return H


def materialize_inverse(mem: LbfgsMemory, n: int) -> Array:
    """Dense B = H^-1 via the rank-one exchange recursion."""
    B = np.eye(n)
    if not mem.pairs:
        return B
    newest = mem.pairs[-1]
    B *= newest.yy / newest.sy
    for p in mem.pairs:
        Bs = B @ p.s
        B = B - np.outer(Bs, Bs) / float(p.s @ Bs) + np.outer(p.y, p.y) / p.sy
    return B


@dataclass(frozen=True)
class HessianBounds:
    """lo <= lambda(H) <= hi; lo is 0 where it underflows, hi inf where it overflows."""

    lambda_lo: float
    lambda_hi: float

    def __post_init__(self):
        if not (0 <= self.lambda_lo <= self.lambda_hi):
            raise ValueError("need 0 <= lambda_lo <= lambda_hi")


def _or_inf(power, *args) -> float:
    """power(*args), or inf where the float result overflows."""
    try:
        return power(*args)
    except OverflowError:
        return math.inf


def theoretical_bounds(regime: str, *, m: int, n: int,
                       L: Optional[float] = None,
                       tau: Optional[float] = None,
                       eta_k: Optional[float] = None,
                       mu_k: Optional[float] = None,
                       mu0: Optional[float] = None,
                       delta: float = 1.0,
                       delta_bar: float = 1.0) -> HessianBounds:
    """Eigenvalue envelope of the memory matrix for each operating regime.

    SC-smooth   (pairs from an L-smooth, tau-strongly convex map):
        lo = 1/(L(m+n)),                 hi = (L(n+m)/tau)**m
    SC-Moreau   (pairs from an envelope with smoothness 1/eta):
        lo = eta_k/(m+n),                hi = ((n+m)/(eta_k tau))**m
    C-smooth    (regularized pairs, unsmoothed base):
        lo  = 1/((m+n)(L + mu0**delta_bar))
        hi  = lam * mu_k**(-delta_bar (n+m)),
        lam = (m+n)**(n+m-1) (L + mu0**delta_bar)**(n+m-1) / (n-1)!
    C-smoothed  (regularized pairs of the eta**delta surrogate):
        lo  = 1/((m+n)(eta_k**-delta + mu0**delta_bar))
        hi  = (m+n)**(n+m-1) (eta_k**-delta + mu0**delta_bar)**(n+m-1)
              / ((n-1)! mu_k**((n+m) delta_bar))

    lo is 0 where it underflows a float, and hi is inf where it overflows one.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")

    def need(**kwargs):
        for name, value in kwargs.items():
            if value is None or value <= 0:
                raise ValueError(f"regime {regime} needs {name} > 0")

    if regime == "SC-smooth":
        need(L=L, tau=tau)
        lo = 1.0 / (L * (m + n))
        hi = _or_inf(pow, L * (n + m) / tau, m)
    elif regime == "SC-Moreau":
        need(eta_k=eta_k, tau=tau)
        lo = eta_k / (m + n)
        hi = _or_inf(pow, (n + m) / (eta_k * tau), m)
    elif regime == "C-smooth":
        need(L=L, mu0=mu0, mu_k=mu_k)
        edge = L + mu0**delta_bar
        lo = 1.0 / ((m + n) * edge)
        log_lam = (n + m - 1) * (math.log(m + n) + math.log(edge)) - math.lgamma(n)
        hi = _or_inf(math.exp, log_lam - delta_bar * (n + m) * math.log(mu_k))
    else:
        need(eta_k=eta_k, mu0=mu0, mu_k=mu_k)
        edge = eta_k ** (-delta) + mu0**delta_bar
        lo = 1.0 / ((m + n) * edge)
        log_hi = (
            (n + m - 1) * (math.log(m + n) + math.log(edge))
            - math.lgamma(n)
            - (n + m) * delta_bar * math.log(mu_k)
        )
        hi = _or_inf(math.exp, log_hi)
    return HessianBounds(lo, hi)


@dataclass
class SecantReport:
    s_dot_y: list
    rel_residual: float
    passed: bool


def verify_secant(mem: LbfgsMemory) -> SecantReport:
    """Certificate: every stored pair has s.y > 0 and H maps the newest y
    back to the newest s (relative residual <= 1e-9)."""
    if not mem.pairs:
        raise ValueError("verify_secant needs at least one pair")
    dots = [p.sy for p in mem.pairs]
    newest = mem.pairs[-1]
    residual = float(
        np.linalg.norm(mem.apply(newest.y) - newest.s) / np.linalg.norm(newest.s)
    )
    passed = all(d > 0 for d in dots) and residual <= 1e-9
    return SecantReport(dots, residual, passed)
