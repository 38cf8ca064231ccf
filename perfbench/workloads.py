"""The benchmark's workloads and the per-cell run that each one repeats.

A workload is a list of cells (one problem, one solver configuration, one
seed pair) derived from the benchmark seed, plus a correctness check over
the finished cells.  ``execute`` runs one cell the way ``vsqn run`` does:
``build_problem``, ``run``, then ``write_csv`` and ``write_summary``.
Run lengths are cut from the presets' so that a workload repeats within one
benchmark run; why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from vsqn.core import BatchSchedule, ScalarSchedule
from vsqn.harness.checks import sparsity_count
from vsqn.harness.config import ExperimentConfig, build_problem
from vsqn.harness.logs import write_csv, write_summary
from vsqn.harness.presets import preset_cells
from vsqn.solvers import run

from tracing import RUN, WRITE_CSV, Tracer, instrument

UNIT_BATCH_BUDGET = 5_000       # preset c_smooth: 60_000
WIDE_SPARSE_BUDGET = 20_000     # preset sparsity: 100_000
# criteria 10 and 11 order medians over 5 seeds; single seeds break the
# orderings (criterion 10: 11 of 60 seeds; criterion 11 at this budget: 3 of 40)
ORDERING_SEEDS = 5
COMPOSITE_SEEDS = 8
# schemes whose loop forms no curvature pairs
PAIR_FREE_SCHEMES = ("sgd", "apg_baseline")


@dataclass(frozen=True)
class Cell:
    label: str
    role: str
    config: ExperimentConfig
    problem_seed: int
    solver_seed: int


@dataclass
class CellRun:
    cell: Cell
    setup_s: float = 0.0
    solve_s: float = 0.0
    write_s: float = 0.0
    samples: int = 0
    records: int = 0
    pair_opportunities: int = 0
    csv_path: Optional[Path] = None
    termination: str = ""
    final_gap: Optional[float] = None
    sparsity: Optional[int] = None
    objective_ratio: float = math.nan
    failures: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.solve_s + self.write_s


@dataclass(frozen=True)
class Workload:
    name: str
    cells: Callable[[int], list]
    check: Callable[[list], list] = lambda runs: []


def derived_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _preset_cell(preset: str, name: str) -> ExperimentConfig:
    return next(c for c in preset_cells(preset) if c.name == name)


def _with_budget(config: ExperimentConfig, budget: int) -> ExperimentConfig:
    return replace(config, solver_params={**config.solver_params,
                                          "sample_budget": budget})


def _unit_batch(seed: int) -> list:
    # The preset's own data set (its seed 0); the benchmark seed picks the
    # sample stream.  Most other data-set seeds of this generator contain a
    # feature row of zeros, whose zero sample gradient ends sqn_unit early
    # with termination "zero-step" (see NOTES.md).
    config = _with_budget(_preset_cell("c_smooth", "c_smooth_sqn_unit"),
                          UNIT_BATCH_BUDGET)
    solver_seed = derived_seeds(seed, 1)[0]
    return [Cell(f"sqn_unit_s{solver_seed}", "sqn_unit", config,
                 config.seeds[0], solver_seed)]


_RAMP = ScalarSchedule("power", base=1e-5, exponent=1.5, offset=1)
_GROWING_ROLES = (
    ("m1", {"scheme": "vs_sqn", "m": 1, "step": _RAMP}),
    ("m10", {"scheme": "vs_sqn", "m": 10, "step": _RAMP}),
    ("apg", {"scheme": "apg_baseline"}),
)


def _growing_batch(seed: int) -> list:
    cells = []
    for s in derived_seeds(seed, ORDERING_SEEDS):
        for role, solver in _GROWING_ROLES:
            config = ExperimentConfig(
                name=f"illcond_{role}", problem_kind="quadratic_sc",
                problem_params=dict(n=20, kappa=1e5, noise=0.5),
                solver_params={**solver, "sample_budget": 2_000_000,
                               "batch": BatchSchedule("geometric", N0=1, rate=0.98),
                               "value_every": 25},
            )
            cells.append(Cell(f"illcond_{role}_s{s}", role, config, s, s))
    return cells


def _growing_batch_check(runs: list) -> list:
    """Criterion 10: median final gaps ordered m=10 <= m=1 <= accelerated."""
    med = {role: float(np.median([r.final_gap for r in runs if r.cell.role == role]))
           for role, _ in _GROWING_ROLES}
    if med["m10"] <= med["m1"] <= med["apg"]:
        return []
    return [f"criterion 10 ordering broken: median gaps {med}"]


def _wide_sparse(seed: int) -> list:
    return [Cell(f"{c.name}_s{s}", c.solver_params["scheme"],
                 _with_budget(c, WIDE_SPARSE_BUDGET), s, s)
            for s in derived_seeds(seed, ORDERING_SEEDS)
            for c in preset_cells("sparsity")]


def _wide_sparse_check(runs: list) -> list:
    """Criterion 11: median near-zero counts, quasi-Newton estimate above
    the averaged unit-batch one."""
    med = {role: float(np.median([r.sparsity for r in runs if r.cell.role == role]))
           for role in ("rvs_sqn", "sgd")}
    if med["rvs_sqn"] > med["sgd"]:
        return []
    return [f"criterion 11 ordering broken: median near-zero counts {med}"]


def _composite_prox(seed: int) -> list:
    config = _preset_cell("sc_nonsmooth", "sc_nonsmooth_svs_sqn_moreau")
    return [Cell(f"{config.name}_s{s}", "svs_sqn_moreau", config, s, s)
            for s in derived_seeds(seed, COMPOSITE_SEEDS)]


WORKLOADS = {w.name: w for w in (
    Workload("unit_batch", _unit_batch),
    Workload("growing_batch", _growing_batch, _growing_batch_check),
    Workload("wide_sparse", _wide_sparse, _wide_sparse_check),
    Workload("composite_prox", _composite_prox),
)}


def _pair_opportunities(scheme: str, records) -> int:
    """Odd iterations after the first, where the loop tries to form a pair."""
    if scheme in PAIR_FREE_SCHEMES:
        return 0
    return sum(1 for r in records[1:-1] if r.k % 2 == 1)


def _summary(cell: Cell, result, estimator) -> dict:
    last = result.records[-1]
    summary = {
        "name": cell.config.name,
        "seed": cell.solver_seed,
        "scheme": result.scheme,
        "termination": result.termination,
        "iterations": max(len(result.records) - 1, 0),
        "total_samples": last.samples_cum,
        "total_grad_evals": last.grad_evals_cum,
        "final_fval": last.f_value,
        "final_gap": last.gap,
        "theoretical_step": result.theoretical_step,
        "used_step": result.used_step,
    }
    if cell.config.sparsity_threshold is not None:
        summary["n0"] = sparsity_count(estimator, cell.config.sparsity_threshold)
    return summary


def execute(cell: Cell, out_dir: Path, tracer: Optional[Tracer] = None) -> CellRun:
    """Build, solve, log and check one cell; exceptions become failures."""
    out = CellRun(cell)
    try:
        _execute(out, out_dir, tracer)
    except Exception:
        out.failures.append(traceback.format_exc())
    return out


def _execute(out: CellRun, out_dir: Path, tracer: Optional[Tracer]) -> None:
    cell = out.cell
    t0 = time.perf_counter()
    problem = build_problem(cell.config, cell.problem_seed)
    t1 = time.perf_counter()
    config = cell.config.solver_config(cell.solver_seed)
    if tracer is None:
        result = run(problem, config)
    else:
        with instrument(tracer, problem):
            result = tracer.span(RUN, run, problem, config)
    t2 = time.perf_counter()
    estimator = result.x_averaged if result.x_averaged is not None else result.x_final
    out.csv_path = out_dir / f"{cell.label}.csv"
    if tracer is None:
        write_csv(out.csv_path, result.records)
    else:
        tracer.span(WRITE_CSV, write_csv, out.csv_path, result.records)
    summary = _summary(cell, result, estimator)
    write_summary(out_dir / f"{cell.label}_summary.txt", summary)
    t3 = time.perf_counter()

    out.setup_s, out.solve_s, out.write_s = t1 - t0, t2 - t1, t3 - t2
    out.samples = result.total_samples
    out.records = len(result.records)
    out.pair_opportunities = _pair_opportunities(result.scheme, result.records)
    out.termination = result.termination
    out.final_gap = result.final_gap
    out.sparsity = summary.get("n0")
    x0 = config.x0 if config.x0 is not None else np.zeros(problem.meta.n)
    out.objective_ratio = problem.true_value(estimator) / problem.true_value(x0)

    expected = "budget" if config.sample_budget is not None else "horizon"
    if result.termination != expected:
        out.failures.append(f"termination {result.termination!r}, expected {expected!r}")
    if not np.all(np.isfinite(estimator)) or not math.isfinite(out.objective_ratio):
        out.failures.append("non-finite estimator or objective")


def run_round(workload: Workload, cells: list, out_dir: Path,
              tracers: Optional[list] = None,
              between: Optional[Callable[[], None]] = None) -> list:
    """Run the cells back to back (each under its own tracer, if given), then
    the workload check over all of them.  A broken check marks every cell
    of the round as failed.  ``between`` is called before each cell and
    after the last one."""
    tracers = tracers or [None] * len(cells)
    runs = []
    for cell, tracer in zip(cells, tracers):
        if between is not None:
            between()
        runs.append(execute(cell, out_dir, tracer))
    if between is not None:
        between()
    if not any(r.failures for r in runs):
        problems_found = workload.check(runs)
        for r in runs:
            r.failures.extend(problems_found)
    return runs
