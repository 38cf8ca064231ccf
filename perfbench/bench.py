"""Timed and traced runs of one workload, reduced to named metrics.

A round runs every cell of the workload once, back to back (a closed loop
with one client).  ``timed`` repeats rounds for the requested time with no
instrumentation, rescales each cell's time by the calibration kernel's
(see calibration.py) and reports medians over rounds.  ``traced`` runs a
plain round and a round under span wrappers, checks that tracing left the
trajectories unchanged, measures record memory under tracemalloc and the
shape sweep, and reports per-layer numbers.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from vsqn.harness.config import build_problem
from vsqn.solvers import run

import tracing
from calibration import Calibrator
from sweep import shape_sweep
from workloads import Workload, run_round

SETUP_SHARE = 0.1     # set-up timing after each round, as a share of its time

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def failure_counts(rounds) -> tuple:
    """(cells attempted, cells failed) over all rounds."""
    runs = [r for rnd in rounds for r in rnd]
    return len(runs), sum(1 for r in runs if r.failures)


def setup_times(cells, seconds: float, calibrator: Calibrator) -> list:
    """Calibrated times to build every cell's problem, repeated for
    ``seconds`` (at least once)."""
    times = []
    calibrator.sample()
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for cell in cells:
            build_problem(cell.config, cell.problem_seed)
        times.append(time.perf_counter() - t0)
        calibrator.sample()
    return calibrator.rescale(times)


def calibrated_round(workload: Workload, cells: list, out_dir: Path,
                     calibrator: Calibrator, tracers=None):
    """One round with a calibration sample before each cell and after the
    last; returns (runs, solve_s, wall_s) in reference seconds."""
    runs = run_round(workload, cells, out_dir, tracers, between=calibrator.sample)
    return (runs, sum(calibrator.rescale([r.solve_s for r in runs])),
            sum(calibrator.rescale([r.wall_s for r in runs])))


def timed(workload: Workload, seed: int, seconds: float, out_dir: Path):
    """End-to-end metrics; returns (rounds, metrics, uncalibrated medians)."""
    cells = workload.cells(seed)
    start = time.perf_counter()
    calibrator = Calibrator()
    measured = [calibrated_round(workload, cells, out_dir, calibrator)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = []
    while True:
        # set-up bursts after every round spread the set-up timing over the
        # run's speed phases, as the rounds are
        round_s = sum(r.wall_s for r in measured[-1][0])
        setups.extend(setup_times(cells, SETUP_SHARE * round_s, calibrator))
        if time.perf_counter() - start >= seconds:
            break
        measured.append(calibrated_round(workload, cells, out_dir, calibrator))
    setup_s = statistics.median(setups)
    rounds = [runs for runs, _, _ in measured]
    solve_s = statistics.median(solve for _, solve, _ in measured)
    values = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "wall_s": statistics.median(wall for _, _, wall in measured),
        "samples_per_s": _share(sum(r.samples for r in rounds[0]), solve_s),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "solve_s": statistics.median(sum(r.solve_s for r in rnd) for rnd in rounds),
        "wall_s": statistics.median(sum(r.wall_s for r in rnd) for rnd in rounds),
    }
    return rounds, {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, raw


def record_bytes(cell) -> tuple:
    """(bytes, records) held by one solve's records: tracemalloc's live
    total while the result is held, minus the total after its records are
    dropped."""
    problem = build_problem(cell.config, cell.problem_seed)
    config = cell.config.solver_config(cell.solver_seed)
    tracemalloc.start()
    try:
        result = run(problem, config)
        held = tracemalloc.get_traced_memory()[0]
        count = len(result.records)
        result.records = None
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0], count
    finally:
        tracemalloc.stop()


def bytes_per_record(cells) -> float:
    """Record bytes over records, for the first cell of each configuration
    (tracemalloc slows a Python-heavy solve about fourfold)."""
    first = {}
    for cell in cells:
        first.setdefault(cell.config.name, cell)
    measured = [record_bytes(cell) for cell in first.values()]
    return _share(sum(b for b, _ in measured), sum(n for _, n in measured))


def _trajectory(path: Path) -> list:
    """CSV rows without the wall-clock column (the last one)."""
    return [line.rsplit(",", 1)[0]
            for line in path.read_text(encoding="utf-8").splitlines()]


def _merge(summaries) -> dict:
    merged: dict = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return merged


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: dict, plain: list, traced_runs: list, tracers: list,
                  record_size: float, sweep: dict) -> dict:
    counts = sum((t.counts for t in tracers), start=Counter())

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    traced_solve = span(tracing.RUN, "total_s")
    schedule = sum(r.samples for r in traced_runs)
    draws_per_cell = [t.counts["draws"] / r.samples
                      for t, r in zip(tracers, traced_runs) if r.samples]
    formed = span(tracing.COLLECT_PAIR, "calls")
    opportunities = sum(r.pair_opportunities for r in traced_runs)
    apply_calls = span(tracing.APPLY, "calls")
    csv_bytes = sum(r.csv_path.stat().st_size for r in traced_runs if r.csv_path)
    ratios = [r.objective_ratio for r in plain if math.isfinite(r.objective_ratio)]
    values = {
        "core.generator_calls": (span(tracing.GENERATOR, "calls"), "count"),
        "core.generator_s": (span(tracing.GENERATOR, "total_s"), "s"),
        "core.evaluate_self_frac": (_share(span(tracing.EVALUATE, "self_s"), traced_solve),
                                    "frac"),
        "problems.oracle_calls": (span(tracing.ORACLE, "calls"), "count"),
        "problems.oracle_self_s": (span(tracing.ORACLE, "self_s"), "s"),
        "problems.samples_drawn": (counts["draws"], "count"),
        "problems.draws_per_sample": (_share(counts["draws"], schedule), "ratio"),
        "problems.draws_per_sample.min": (min(draws_per_cell, default=0.0), "ratio"),
        "problems.draws_per_sample.max": (max(draws_per_cell, default=0.0), "ratio"),
        "problems.value_s": (span(tracing.VALUE, "total_s"), "s"),
        "smoothing.prox_calls": (span(tracing.PROX, "calls"), "count"),
        "smoothing.prox_inner_iters": (counts["prox_inner_iters"], "count"),
        "smoothing.prox_self_frac": (_share(span(tracing.PROX, "self_s"), traced_solve),
                                     "frac"),
        "smoothing.huber_calls": (span(tracing.HUBER, "calls"), "count"),
        "smoothing.huber_frac": (_share(span(tracing.HUBER, "total_s"), traced_solve),
                                 "frac"),
        "hessian.pair_opportunities": (opportunities, "count"),
        "hessian.pairs_formed": (formed, "count"),
        "hessian.pairs_skipped": (opportunities - formed, "count"),
        "hessian.collect_pair_s": (span(tracing.COLLECT_PAIR, "total_s"), "s"),
        "hessian.apply_calls": (apply_calls, "count"),
        "hessian.apply_us": (1e6 * _share(span(tracing.APPLY, "total_s"), apply_calls), "us"),
        "solvers.loop_self_s": (span(tracing.RUN, "self_s"), "s"),
        "solvers.records": (sum(r.records for r in traced_runs), "count"),
        "solvers.record_bytes": (record_size, "B/record"),
        "harness.write_csv_s": (span(tracing.WRITE_CSV, "total_s"), "s"),
        "harness.csv_rows": (sum(len(_trajectory(r.csv_path)) - 1
                                 for r in traced_runs if r.csv_path), "count"),
        "harness.csv_bytes": (csv_bytes, "B"),
        "quality.final_objective_ratio": (statistics.median(ratios) if ratios else 0.0,
                                          "ratio"),
    }
    for name, value in sweep.items():
        values[name] = (value, "us")
    return values


def traced(workload: Workload, seed: int, seconds: float, out_dir: Path):
    """Per-layer metrics; returns (rounds, metrics, layer shares).  Time
    left after the fixed work goes to more plain rounds; the tracing
    overhead compares the traced round's calibrated solve time with their
    median."""
    start = time.perf_counter()
    cells = workload.cells(seed)
    plain_dir, traced_dir = out_dir / "plain", out_dir / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    calibrator = Calibrator()
    plain, plain_solve, _ = calibrated_round(workload, cells, plain_dir, calibrator)
    tracers = [tracing.Tracer() for _ in cells]
    traced_runs, traced_solve, _ = calibrated_round(workload, cells, traced_dir,
                                                    calibrator, tracers)
    for before, after in zip(plain, traced_runs):
        if before.csv_path and after.csv_path and (
                _trajectory(before.csv_path) != _trajectory(after.csv_path)):
            after.failures.append("traced trajectory differs from the untraced one")
    for tracer, r in zip(tracers, traced_runs):
        if tracer.nesting_violations():
            r.failures.append("spans do not nest")
    spans = _merge(t.summarize() for t in tracers)
    metrics = layer_metrics(spans, plain, traced_runs, tracers, bytes_per_record(cells),
                            shape_sweep(seed))
    rounds = [plain, traced_runs]
    plain_solves = [plain_solve]
    while time.perf_counter() - start < seconds:
        runs, solve_s, _ = calibrated_round(workload, cells, plain_dir, calibrator)
        rounds.append(runs)
        plain_solves.append(solve_s)
    overhead = _share(traced_solve, statistics.median(plain_solves)) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return rounds, metrics, layer_shares(spans)


def layer_shares(spans: dict) -> dict:
    """Self time of each span name as a share of the traced solve time."""
    solve = spans.get(tracing.RUN, {}).get("total_s", 0.0)
    return {name: _share(row["self_s"], solve) for name, row in spans.items()
            if name != tracing.WRITE_CSV}


def cell_table(runs) -> list:
    lines = ["cell  setup_s  solve_s  samples  records  termination  objective_ratio"]
    for r in runs:
        lines.append(f"{r.cell.label}  {r.setup_s:.4f}  {r.solve_s:.3f}  {r.samples}  "
                     f"{r.records}  {r.termination}  {r.objective_ratio:.6g}")
        lines.extend(f"  FAILED: {f.strip()}" for f in r.failures)
    return lines
