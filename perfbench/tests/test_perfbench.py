"""Tests of the benchmark itself: metric coverage, span nesting, repeatable
counts, the correctness checks, and refusal to run without the sources.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402
import run as bench_cli  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CellRun, execute, run_round  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_SUFFIXES = ("_calls", "samples_drawn", "records", "pairs_formed",
                  "pairs_skipped", "pair_opportunities", "prox_inner_iters",
                  "csv_rows")


def _result(capsys, *argv) -> dict:
    assert bench_cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result = _result(capsys, "--workload", workload, "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace))
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert np.isfinite(emitted["value"])


def test_declared_workloads_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_spans_nest_and_children_never_exceed_their_parent(tmp_path):
    tracer = tracing.Tracer()
    for cell in WORKLOADS["composite_prox"].cells(0)[:2]:
        assert not execute(cell, tmp_path, tracer).failures
    names, parents, starts, ends = tracer.arrays()
    child = parents >= 0
    assert child.any()
    p = parents[child]
    assert np.all(starts[child] >= starts[p]) and np.all(ends[child] <= ends[p])
    durations = ends - starts
    covered = np.bincount(p, weights=durations[child], minlength=len(durations))
    assert np.all(covered <= durations + 1e-9)
    assert tracer.nesting_violations() == 0
    # generator spans sit under the oracle, the prox under the oracle too
    assert set(names[parents[names == tracing.GENERATOR]]) == {tracing.ORACLE}
    assert set(names[parents[names == tracing.PROX]]) == {tracing.ORACLE}
    summary = tracer.summarize()
    for row in summary.values():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-12


def test_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summarize()
    assert summary["inner"]["calls"] == 3
    total = summary["outer"]["total_s"]
    assert summary["outer"]["self_s"] + summary["inner"]["total_s"] == pytest.approx(total)


def test_instrument_restores_every_patched_name(tmp_path):
    from vsqn import hessian, problems, smoothing, solvers
    from vsqn.core import SampleHandle

    before = (SampleHandle.generator, solvers.evaluate_on_handle, solvers.collect_pair,
              hessian.LbfgsMemory.apply, smoothing.CompositeProxFunction.prox,
              problems.huber_l1)
    cell = WORKLOADS["wide_sparse"].cells(0)[0]
    assert not execute(cell, tmp_path, tracing.Tracer()).failures
    after = (SampleHandle.generator, solvers.evaluate_on_handle, solvers.collect_pair,
             hessian.LbfgsMemory.apply, smoothing.CompositeProxFunction.prox,
             problems.huber_l1)
    assert before == after


def _traced_counts(seed, out_dir):
    out_dir.mkdir()
    rounds, metrics, _ = bench.traced(WORKLOADS["composite_prox"], seed, 0.0, out_dir)
    counts = {name: value for name, (value, unit) in metrics.items() if unit == "count"}
    trajectories = [bench._trajectory(r.csv_path) for r in rounds[0]]
    return counts, trajectories


def test_counts_repeat_for_one_seed_and_a_new_seed_changes_the_inputs(tmp_path):
    counts_a, paths_a = _traced_counts(0, tmp_path / "a")
    counts_b, paths_b = _traced_counts(0, tmp_path / "b")
    counts_c, paths_c = _traced_counts(1, tmp_path / "c")
    assert all(name.endswith(COUNT_SUFFIXES) for name in counts_a)
    assert counts_a == counts_b
    assert paths_a == paths_b
    assert paths_a != paths_c
    assert counts_a["hessian.pairs_formed"] > 0


def test_draws_per_sample_separates_replaying_and_single_draw_cells(tmp_path):
    cells = WORKLOADS["growing_batch"].cells(0)[:3]     # m1, m10, apg of one seed
    tracers = [tracing.Tracer() for _ in cells]
    runs = [execute(c, tmp_path, t) for c, t in zip(cells, tracers)]
    ratio = {r.cell.role: t.counts["draws"] / r.samples for r, t in zip(runs, tracers)}
    assert ratio["apg"] == 1.0
    assert 1.9 < ratio["m1"] <= 2.0 and 1.9 < ratio["m10"] <= 2.0


def test_unexpected_termination_is_a_failure(tmp_path):
    cell = WORKLOADS["composite_prox"].cells(0)[0]
    capped = replace(cell.config, solver_params={**cell.config.solver_params,
                                                 "horizon": 5})
    out = execute(replace(cell, config=capped), tmp_path)
    assert out.termination == "horizon"
    assert any("expected 'budget'" in f for f in out.failures)


def test_workload_checks_flag_broken_orderings():
    growing = WORKLOADS["growing_batch"]
    cells = growing.cells(0)
    gaps = {"m1": 1.0, "m10": 2.0, "apg": 3.0}      # m=10 worse than m=1
    runs = [CellRun(c, final_gap=gaps[c.role]) for c in cells]
    assert growing.check(runs)
    gaps["m10"] = 0.5
    assert not growing.check([CellRun(c, final_gap=gaps[c.role]) for c in cells])

    sparse = WORKLOADS["wide_sparse"]
    cells = sparse.cells(0)
    counts = {"rvs_sqn": 300, "sgd": 300}
    assert sparse.check([CellRun(c, sparsity=counts[c.role]) for c in cells])
    counts["rvs_sqn"] = 301
    assert not sparse.check([CellRun(c, sparsity=counts[c.role]) for c in cells])


def test_a_broken_check_fails_every_cell_of_the_round(tmp_path):
    workload = replace(WORKLOADS["composite_prox"], check=lambda runs: ["broken"])
    runs = run_round(workload, workload.cells(0)[:2], tmp_path)
    assert all(r.failures == ["broken"] for r in runs)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "unit_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
