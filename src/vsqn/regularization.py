"""Center-anchored quadratic regularization and the odd/even parameter
alternation used when curvature pairs are collected on merely convex
problems.

The regularized schemes add mu (x - x0), the gradient of (mu/2)|x - x0|^2,
to a convex base's sampled gradient, which makes the base mu-strongly
convex; the regularization weight is driven to zero over a run.  Matrix updates, however, must see parameter values that are
frozen between consecutive odd iterations, which is what AlternationState
tracks: values are held at odd k and strictly decreased at even k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import ScalarSchedule


class AlternationError(ValueError):
    """A schedule fed to the alternation failed to decrease at an even step."""


@dataclass(frozen=True)
class AlternationState:
    """Parameter values frozen into curvature pairs.

    Values change only at even iterations and never increase.
    """

    mu_current: float
    eta_current: float
    last_update_k: int = 0

    def __post_init__(self):
        if not (self.mu_current > 0) or not (self.eta_current > 0):
            raise ValueError("alternation values must be > 0")


def alternation_step(
    state: AlternationState,
    k: int,
    mu_sched: Optional[ScalarSchedule],
    eta_sched: Optional[ScalarSchedule] = None,
) -> AlternationState:
    """Advance the alternation by one iteration.

    Odd k returns the state unchanged; even k re-evaluates the schedules at
    k and requires strict decrease.  A schedule without a smoothing (or
    regularization) role may be passed as None, leaving that value held.
    """
    if k % 2 == 1:
        return state
    new_mu = state.mu_current if mu_sched is None else mu_sched.eval(k)
    new_eta = state.eta_current if eta_sched is None else eta_sched.eval(k)
    if mu_sched is not None and not (new_mu < state.mu_current):
        raise AlternationError(
            f"regularization weight did not decrease at even step k={k}: "
            f"{new_mu} >= {state.mu_current}"
        )
    if eta_sched is not None and not (new_eta < state.eta_current):
        raise AlternationError(
            f"smoothing level did not decrease at even step k={k}: "
            f"{new_eta} >= {state.eta_current}"
        )
    return AlternationState(new_mu, new_eta, last_update_k=k)
