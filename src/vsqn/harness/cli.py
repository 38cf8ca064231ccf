"""Command line entry point.

    vsqn run --config cfg.txt --out results/ [--seed 7]
    vsqn run --preset lewis_overton --out results/

Writes one CSV log and one key=value summary per (cell, seed), one after
another; each run's solver config is built as the run starts, and the
output directory is made at the first write.  A config fault found at
load exits 2 before any ``--out`` exists, and so does a negative
``--seed``, at the first run's config.  A summary holds
every ``RunResult.extras`` key: the pair counters, the scheme's constants
and any ``breakdown``.  Exit code 2 signals a configuration error (the
message names the offending field), exit code 3 a run that broke down
(``RunResult.termination``) and 130 one interrupted.  That run's CSV and
summary are written, up to its last finite iterate, no later run starts,
and the message names its cell, seed, termination and iteration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..core import BatchCeilingError
from ..solvers import ConfigError, RunResult, SolverConfig, run
from .checks import sparsity_count
from .config import ExperimentConfig, batch_key, build_problem, keyed, load_config
from .logs import write_csv, write_summary
from .presets import PRESET_NAMES, preset_cells


def _execute_cell(cell: ExperimentConfig, config: SolverConfig,
                  out_dir: Path) -> RunResult:
    seed = config.seed
    problem = build_problem(cell, seed)
    # a run a budget may end is not checked against the batch ceiling at
    # load (only a horizon-only run is); met mid-run, it names its key too
    result = keyed(batch_key, run, problem, config, catch=BatchCeilingError)
    stem = f"{cell.name}_seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / f"{stem}.csv", result.records)

    last = result.records[-1]
    summary = {
        "name": cell.name,
        "seed": seed,
        "scheme": result.scheme,
        "termination": result.termination,
        "iterations": last.k - result.records[0].k,
        "total_samples": last.samples_cum,
        "total_grad_evals": last.grad_evals_cum,
        "final_fval": last.f_value,
        "final_gap": last.gap,
        "theoretical_step": result.theoretical_step,
        "used_step": result.used_step,
    }
    summary.update(result.extras)
    estimator = result.x_averaged if result.x_averaged is not None else result.x_final
    if cell.sparsity_threshold is not None:
        summary["n0"] = sparsity_count(estimator, cell.sparsity_threshold)
    # a diverged run's last iterate is finite, but these may overflow to inf
    with np.errstate(over="ignore"):
        if hasattr(problem, "violation"):
            summary["final_violation"] = problem.violation(result.x_final)
        x_star = problem.meta.x_star
        if x_star is not None:
            summary["dist_to_opt"] = float(np.linalg.norm(result.x_final - x_star))
    write_summary(out_dir / f"{stem}_summary.txt", summary)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vsqn")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a config or preset")
    run_p.add_argument("--config", type=Path, help="flat key=value config file")
    run_p.add_argument("--preset", choices=PRESET_NAMES,
                       help="named preset experiment")
    run_p.add_argument("--out", type=Path, required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the base seed")
    args = parser.parse_args(argv)

    if (args.config is None) == (args.preset is None):
        print("error: give exactly one of --config or --preset", file=sys.stderr)
        return 2
    try:
        if args.preset is not None:
            cells = preset_cells(args.preset)
        else:
            cells = [load_config(args.config)]
        runs = 0
        for cell in cells:
            seeds = cell.seeds if args.seed is None else range(
                args.seed, args.seed + len(cell.seeds))
            for seed in seeds:
                result = _execute_cell(cell, cell.solver_config(seed), args.out)
                runs += 1
                if result.termination not in ("horizon", "budget"):
                    print(f"error: {cell.name} seed {seed}: {result.termination} "
                          f"at k = {result.records[-1].k}: "
                          f"{result.extras['breakdown']}", file=sys.stderr)
                    return 130 if result.termination == "interrupted" else 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {runs} run(s) to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
