"""Solver benchmark: run one workload, timed or traced, and print metrics.

    python3 perfbench/run.py --workload unit_batch --seed 1 --seconds 20 --trace 0

Workloads: unit_batch, growing_batch, wide_sparse, composite_prox (see
NOTES.md).  ``--trace 0`` repeats the workload untraced for ``--seconds``
and reports calibrated end-to-end metrics (see calibration.py);
``--trace 1`` runs a plain and a traced round, record memory under
tracemalloc and the shape sweep, and reports per-layer metrics.  The
package is imported from ``src/`` of the checkout this file sits in.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vsqn" / "__init__.py").is_file():
        print(f"error: no vsqn package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # single-threaded: keep NumPy's BLAS to one thread (read at NumPy import)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose one of "
                     f"{', '.join(WORKLOADS)}")
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            rounds, metrics, shares = bench.traced(workload, args.seed, args.seconds, out_dir)
            print("layer self time, share of traced solve time:")
            for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
                print(f"  {name:24s} {share:7.2%}")
        else:
            rounds, metrics, raw = bench.timed(workload, args.seed, args.seconds, out_dir)
            print("uncalibrated medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"workload {workload.name}: {len(rounds)} rounds; first round:")
    print("\n".join(bench.cell_table(rounds[0])))
    attempted, failed = bench.failure_counts(rounds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
