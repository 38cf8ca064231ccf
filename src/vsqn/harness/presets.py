"""Preset experiment cells at desk scale.

Each preset returns the cells of one study: strongly convex smooth and
nonsmooth comparisons, merely convex smooth and nonsmooth comparisons, an
ill-conditioning sweep, a sparsity comparison, the isotonic-constrained
run, and the 2-D nonsmooth benchmark from its standard starting points.
Steplengths are tuned, practical values; the theoretical defaults are
recorded in each run summary next to the used ones.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import BatchSchedule, ScalarSchedule
from .config import ExperimentConfig


def _cells_sc_smooth():
    problem = dict(n=60, num_samples=800, mu_l2=0.1, density=0.1)
    budget = 30_000
    batch = dict(kind="geometric", N0=2, rate=0.95)
    cells = []
    for scheme, extra in (
        ("vs_sqn", {"m": 5, "step": ScalarSchedule("constant", 0.1)}),
        ("apg_baseline", {}),
    ):
        cells.append(ExperimentConfig(
            name=f"sc_smooth_{scheme}",
            problem_kind="logistic_synth",
            problem_params=problem,
            solver_params={"scheme": scheme, "sample_budget": budget,
                           "batch": BatchSchedule(**batch), **extra},
        ))
    return cells


def _cells_sc_nonsmooth():
    return [ExperimentConfig(
        name="sc_nonsmooth_svs_sqn_moreau",
        problem_kind="l1_quadratic",
        problem_params=dict(n=10, kappa=10.0, l1_weight=0.5, noise=0.5),
        solver_params={
            "scheme": "svs_sqn_moreau", "m": 3, "sample_budget": 60_000,
            "batch": BatchSchedule("geometric", N0=2, rate=0.9),
            "eta": 0.1, "step": ScalarSchedule("constant", 0.5),
        },
    )]


def _cells_c_smooth():
    problem = dict(n=60, num_samples=800, density=0.1)
    cells = [
        ExperimentConfig(
            name="c_smooth_rvs_sqn",
            problem_kind="logistic_synth",
            problem_params=problem,
            solver_params={
                "scheme": "rvs_sqn", "m": 5, "sample_budget": 60_000,
                "epsilon": 0.1,
                "step": ScalarSchedule("power", base=1.0, exponent=-0.1),
            },
        ),
        ExperimentConfig(
            name="c_smooth_sqn_unit",
            problem_kind="logistic_synth",
            problem_params=problem,
            solver_params={
                "scheme": "sqn_unit", "m": 5, "sample_budget": 60_000,
                "step": ScalarSchedule("power", base=1.0, exponent=-2.0 / 3.0),
                "value_every": 50,
            },
        ),
        ExperimentConfig(
            name="c_smooth_apg",
            problem_kind="logistic_synth",
            problem_params=problem,
            solver_params={
                "scheme": "apg_baseline", "sample_budget": 60_000,
                "batch": BatchSchedule("polynomial", N0=1, exponent=2.1),
            },
        ),
    ]
    return cells


def _cells_c_nonsmooth():
    return [ExperimentConfig(
        name="c_nonsmooth_rsvs_sqn",
        problem_kind="logistic_synth",
        problem_params=dict(n=60, num_samples=800, density=0.1,
                            lambda_l1=0.1, l1_smoothing="huber"),
        solver_params={
            "scheme": "rsvs_sqn", "m": 3, "horizon": 120, "epsilon": 0.1,
            "c_gamma": 1.0,
        },
    )]


def _cells_illcond():
    problem = dict(n=20, kappa=1e5, noise=0.5)
    budget = 2_000_000
    batch = BatchSchedule("geometric", N0=1, rate=0.98)
    # criterion 10's ramped step; a constant 2e-4 step diverges on both
    # vs_sqn cells (gap 4.4e5 -> 1.1e8)
    ramp = ScalarSchedule("power", base=1e-5, exponent=1.5, offset=1)
    cells = []
    for name, scheme, extra in (
        ("illcond_vs_sqn_m1", "vs_sqn", {"m": 1, "step": ramp}),
        ("illcond_vs_sqn_m10", "vs_sqn", {"m": 10, "step": ramp}),
        ("illcond_apg", "apg_baseline", {}),
    ):
        cells.append(ExperimentConfig(
            name=name,
            problem_kind="quadratic_sc",
            problem_params=problem,
            solver_params={"scheme": scheme, "sample_budget": budget,
                           "batch": batch, **extra},
        ))
    return cells


def _cells_sparsity():
    problem = dict(n=500, num_samples=1500, density=0.02, support_frac=0.1,
                   lambda_l1=0.05, l1_smoothing="huber", l1_eta=1e-3)
    budget = 100_000
    return [
        ExperimentConfig(
            name="sparsity_rvs_sqn",
            problem_kind="logistic_synth",
            problem_params=problem,
            solver_params={
                "scheme": "rvs_sqn", "m": 5, "sample_budget": budget,
                "epsilon": 0.1,
                "step": ScalarSchedule("power", base=0.5, exponent=-0.1),
                "value_every": 10,
            },
            sparsity_threshold=1e-4,
        ),
        ExperimentConfig(
            name="sparsity_sgd_avg",
            problem_kind="logistic_synth",
            problem_params=problem,
            solver_params={
                "scheme": "sgd", "sample_budget": budget,
                "step": ScalarSchedule("power", base=0.5, exponent=-0.5),
                "value_every": 5000,
            },
            sparsity_threshold=1e-4,
        ),
    ]


def _cells_isotonic():
    return [ExperimentConfig(
        name="isotonic_rsvs_sqn",
        problem_kind="isotonic",
        problem_params=dict(n=12, p=24, iso_eta=1e-4),
        solver_params={
            "scheme": "rsvs_sqn", "m": 5, "horizon": 600, "epsilon": 0.1,
            "eta": 1e-4, "delta": 1.0, "delta_bar": 1.0,
            "step": ScalarSchedule("constant", 0.05),
            "batch": BatchSchedule("polynomial", N0=2, exponent=1.1, offset=1),
        },
    )]


def _cells_lewis_overton():
    starts = [np.array([math.cos(t), math.sin(t)])
              for t in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    starts.append(np.array([2.0, 2.0]))
    cells = []
    for i, x0 in enumerate(starts):
        cells.append(ExperimentConfig(
            name=f"lewis_overton_start{i}",
            problem_kind="lewis_overton",
            problem_params=dict(lo_eta=0.05),
            solver_params={
                "scheme": "vs_sqn", "m": 5, "horizon": 500,
                "batch": BatchSchedule("constant", N0=1),
                "step": ScalarSchedule("constant", 0.5), "x0": x0,
            },
        ))
    return cells


_BUILDERS = {
    "sc_smooth": _cells_sc_smooth,
    "sc_nonsmooth": _cells_sc_nonsmooth,
    "c_smooth": _cells_c_smooth,
    "c_nonsmooth": _cells_c_nonsmooth,
    "illcond_sweep": _cells_illcond,
    "sparsity": _cells_sparsity,
    "isotonic": _cells_isotonic,
    "lewis_overton": _cells_lewis_overton,
}
PRESET_NAMES = tuple(_BUILDERS)


def preset_cells(name: str):
    if name not in _BUILDERS:
        raise ValueError(f"unknown preset {name!r}; choose one of "
                         f"{', '.join(PRESET_NAMES)}")
    return _BUILDERS[name]()
