"""Command line entry point.

    vsqn run --config cfg.txt --out results/ [--seed 7] [--threads 1]
    vsqn run --preset lewis_overton --out results/

Writes one CSV log and one key=value summary per (cell, seed).  Exit code 2
signals a configuration error (the message names the offending field).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ..solvers import PAIR_COUNTERS, ConfigError, run
from .checks import sparsity_count
from .config import ExperimentConfig, build_problem, load_config
from .logs import write_csv, write_summary
from .presets import PRESET_NAMES, preset_cells


def _execute_cell(cell: ExperimentConfig, seed: int, out_dir: Path) -> Path:
    problem = build_problem(cell, seed)
    result = run(problem, cell.solver_config(seed))
    stem = f"{cell.name}_seed{seed}"
    write_csv(out_dir / f"{stem}.csv", result.records)

    last = result.records[-1]
    summary = {
        "name": cell.name,
        "seed": seed,
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
    summary.update({key: result.extras[key] for key in PAIR_COUNTERS
                    if key in result.extras})
    estimator = result.x_averaged if result.x_averaged is not None else result.x_final
    if cell.sparsity_threshold is not None:
        summary["n0"] = sparsity_count(estimator, cell.sparsity_threshold)
    if cell.track_violation and hasattr(problem, "violation"):
        summary["final_violation"] = problem.violation(result.x_final)
    x_star = problem.meta.x_star
    if x_star is not None:
        summary["dist_to_opt"] = float(np.linalg.norm(result.x_final - x_star))
    path = out_dir / f"{stem}_summary.txt"
    write_summary(path, summary)
    return path


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
    run_p.add_argument("--threads", type=int, default=1,
                       help="independent cells run concurrently")
    args = parser.parse_args(argv)

    if args.config is None and args.preset is None:
        print("error: one of --config or --preset is required", file=sys.stderr)
        return 2
    try:
        if args.preset is not None:
            cells = preset_cells(args.preset)
        else:
            cells = [load_config(args.config)]
        tasks = []
        for cell in cells:
            seeds = cell.seeds if args.seed is None else tuple(
                args.seed + i for i in range(len(cell.seeds)))
            for seed in seeds:
                tasks.append((cell, seed))
        args.out.mkdir(parents=True, exist_ok=True)
        if args.threads > 1:
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                futures = [pool.submit(_execute_cell, cell, seed, args.out)
                           for cell, seed in tasks]
                for f in futures:
                    f.result()
        else:
            for cell, seed in tasks:
                _execute_cell(cell, seed, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(tasks)} run(s) to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
