import math

import numpy as np
import pytest

from vsqn.harness.checks import fd_check, rate_fit, sparsity_count
from vsqn.harness.cli import main
from vsqn.harness.config import (
    build_problem,
    config_from_keys,
    load_config,
    parse_config_text,
)
from vsqn.harness.logs import CSV_HEADER, read_csv, read_summary, thin_indices, write_csv
from vsqn.harness.presets import PRESET_NAMES, preset_cells
from vsqn.solvers import ConfigError, IterateRecord, run


# --- finite differences ---------------------------------------------------------

def test_fd_check_linear_function_machine_precision():
    a = np.array([1.0, -2.0, 3.0])
    report = fd_check(lambda x: (float(a @ x), a), [np.zeros(3), np.ones(3)])
    assert report.passed
    assert report.max_rel_err < 1e-9


def test_fd_check_huber_off_boundary():
    from vsqn.smoothing import huber_l1
    gen = np.random.default_rng(0)
    points = [gen.uniform(1.5, 3.0, size=4) for _ in range(10)]
    assert fd_check(lambda x: huber_l1(x, 1.0), points).passed


def test_fd_check_flags_corrupted_gradient():
    a = np.array([1.0, -2.0])

    def corrupted(x):
        return float(a @ x), a + 1e-3

    report = fd_check(corrupted, [np.zeros(2)])
    assert not report.passed


# --- rate fitting ----------------------------------------------------------------

def test_rate_fit_geometric_series():
    ks = np.arange(200)
    fit = rate_fit(ks, 0.9**ks, "linear_in_k")
    assert fit.slope == pytest.approx(math.log(0.9), abs=1e-6)
    assert fit.r_squared > 0.999999


def test_rate_fit_power_series():
    ks = np.arange(1, 200)
    fit = rate_fit(ks, 1.0 / ks, "power_in_k")
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)


def test_rate_fit_constant_series():
    fit = rate_fit(np.arange(50), np.full(50, 2.5), "linear_in_k")
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_insufficient_points():
    with pytest.raises(ValueError, match="insufficient"):
        rate_fit(np.arange(5), np.ones(5))


# --- sparsity ---------------------------------------------------------------------

def test_sparsity_count_cases():
    assert sparsity_count(np.zeros(5)) == 5
    assert sparsity_count(np.array([1e-5, 0.1])) == 1
    assert sparsity_count(np.array([0.0, 1e-9, 1.0]), threshold=0.0) == 1


# --- csv log ----------------------------------------------------------------------

def _record(k, wall=0.0):
    return IterateRecord(k, k + 1, k + 1, 1.0 / (k + 1), 1.0 / (k + 1),
                         0.5, 0.1, wall)


def test_csv_schema_and_round_trip(tmp_path):
    path = tmp_path / "log.csv"
    write_csv(path, [_record(k) for k in range(5)])
    rows = read_csv(path)
    assert len(rows) == 5
    assert rows[3]["k"] == 3
    assert rows[3]["gap"] == pytest.approx(0.25)
    header = path.read_text().splitlines()[0]
    assert header == CSV_HEADER


def test_csv_thinning_keeps_head_and_tail():
    idx = thin_indices(50_000)
    assert idx[:10_000] == list(range(10_000))
    assert idx[-1] == 49_999
    assert len(idx) < 11_000


def test_csv_nan_cells_parse(tmp_path):
    rec = IterateRecord(0, 1, 1, None, None, 0.5, 0.1, 0.0)
    path = tmp_path / "log.csv"
    write_csv(path, [rec])
    row = read_csv(path)[0]
    assert math.isnan(row["fval"]) and math.isnan(row["gap"])


# --- config parsing ----------------------------------------------------------------

GOOD_CONFIG = """
# a small strongly convex run
name = smoke
problem = quadratic_sc
n = 6
kappa = 10
scheme = vs_sqn
m = 2
budget = 2000
batch_kind = geometric
batch_n0 = 1
batch_rate = 0.9
step_kind = constant
step_base = 0.1
repeats = 2
"""


def test_parse_good_config():
    cfg = config_from_keys(parse_config_text(GOOD_CONFIG))
    assert cfg.name == "smoke"
    assert cfg.problem_kind == "quadratic_sc"
    assert cfg.seeds == (0, 1)
    solver = cfg.solver_config(seed=1)
    assert solver.scheme == "vs_sqn"
    assert solver.sample_budget == 2000


def test_parse_unknown_key_named():
    with pytest.raises(ConfigError) as info:
        parse_config_text("warp = 9")
    assert info.value.field == "warp"


def test_parse_bad_value_named():
    with pytest.raises(ConfigError) as info:
        parse_config_text("kappa = fast")
    assert info.value.field == "kappa"


def test_unknown_scheme_rejected_with_field():
    keys = parse_config_text("problem = quadratic_sc\nscheme = sorcery\n")
    with pytest.raises(ConfigError) as info:
        config_from_keys(keys)
    assert info.value.field == "scheme"


def test_build_problem_each_kind():
    for kind, params in [
        ("quadratic_sc", dict(n=4, kappa=5.0)),
        ("quadratic_c", dict(n=4, kappa=5.0)),
        ("logistic_synth", dict(n=10, num_samples=50)),
        ("isotonic", dict(n=8, p=12)),
        ("lewis_overton", {}),
        ("l1_location", dict(n=4)),
        ("l1_quadratic", dict(n=4, kappa=5.0)),
    ]:
        cfg = config_from_keys({"problem": kind, "scheme": "sgd",
                                "budget": 10, **params})
        prob = build_problem(cfg, seed=0)
        assert prob.meta.n >= 2


# --- cli ---------------------------------------------------------------------------

def test_cli_runs_config_and_writes_outputs(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "results"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "smoke_seed0.csv").exists()
    assert (out / "smoke_seed1.csv").exists()
    summary = read_summary(out / "smoke_seed0_summary.txt")
    assert summary["scheme"] == "vs_sqn"
    rows = read_csv(out / "smoke_seed0.csv")
    assert int(summary["total_samples"]) == rows[-1]["samples_cum"]


def test_cli_invalid_scheme_exits_2(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nscheme = sorcery\nbudget = 10\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_non_decreasing_mu_exits_2_naming_mu(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_c\nscheme = rvs_sqn\nmu_kind = constant\n"
                   "mu_base = 0.5\nhorizon = 10\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: mu:" in capsys.readouterr().err


def test_cli_non_positive_eta_exits_2_naming_eta(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = l1_location\nloc_sc = 0.5\n"
                   "scheme = svs_sqn_diminishing\neta = 0\nhorizon = 10\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: eta:" in capsys.readouterr().err


def test_cli_horizon_constant_without_horizon_exits_2_naming_eta(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = l1_location\nloc_sc = 0.5\n"
                   "scheme = svs_sqn_diminishing\neta_kind = horizon_constant\n"
                   "budget = 1000\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: eta:" in capsys.readouterr().err


def test_cli_scheme_unfit_for_problem_exits_2_naming_scheme(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = l1_quadratic\nscheme = vs_sqn\nhorizon = 10\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: scheme:" in capsys.readouterr().err


def test_cli_requires_config_or_preset(tmp_path):
    assert main(["run", "--out", str(tmp_path / "o")]) == 2


def test_cli_config_and_preset_together_exit_2_naming_both(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--preset", "isotonic",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--config" in err and "--preset" in err
    assert not out.exists()


def test_cli_x0_value_without_n_exits_2_naming_x0_value(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nscheme = vs_sqn\nx0_value = 3\n"
                   "horizon = 10\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: x0_value:" in capsys.readouterr().err


def test_x0_value_sets_the_start_point(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nn = 5\nscheme = vs_sqn\n"
                   "x0_value = 3\nhorizon = 10\n")
    solver = load_config(cfg).solver_config(seed=0)
    assert np.array_equal(solver.x0, np.full(5, 3.0))


def test_cli_solver_config_error_exits_2_before_creating_out(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nscheme = vs_sqn\nm = 0\n"
                   "horizon = 10\n")
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "error: m:" in capsys.readouterr().err
    assert not out.exists()


_PROBLEM_FOR = {"rsvs_sqn": "problem = l1_location\nloc_sc = 0.5",
                "svs_sqn_moreau": "problem = l1_quadratic"}


@pytest.mark.parametrize("scheme, name", [
    ("rsvs_sqn", "step"), ("rsvs_sqn", "mu"), ("rsvs_sqn", "eta"),
    ("svs_sqn_moreau", "eta"),
])
def test_cli_schedule_held_fixed_exits_2_naming_it(tmp_path, capsys, scheme, name):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{_PROBLEM_FOR[scheme]}\nscheme = {scheme}\nhorizon = 50\n"
                   f"{name}_kind = power\n{name}_base = 0.01\n"
                   f"{name}_exponent = -1\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error: {name}:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_cli_diverging_run_exits_3_naming_cell_and_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nn = 20\nkappa = 100\n"
                   "scheme = vs_sqn\nstep_base = 50\nhorizon = 200\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert ("error: quadratic_sc_vs_sqn seed 0: non-finite batch gradient"
            in capsys.readouterr().err)


def test_cli_isotonic_config_reports_final_violation(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("name = iso\nproblem = isotonic\nn = 6\np = 10\n"
                   "scheme = sgd\nstep_base = 0.01\nbudget = 50\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out / "iso_seed0_summary.txt")
    assert float(summary["final_violation"]) >= 0.0


def test_cli_rerun_byte_identical_modulo_wall_clock(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GOOD_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return ["\x1f".join(line.split(",")[:-1]) for line in lines]

    assert strip_wall(out1 / "smoke_seed0.csv") == strip_wall(out2 / "smoke_seed0.csv")


def test_cli_preset_runs_all_cells(tmp_path):
    out = tmp_path / "t"
    code = main(["run", "--preset", "lewis_overton", "--out", str(out)])
    assert code == 0
    assert len(list(out.glob("*_summary.txt"))) == 9


def test_preset_lewis_overton_summary_has_distance(tmp_path):
    out = tmp_path / "lo"
    assert main(["run", "--preset", "lewis_overton", "--out", str(out)]) == 0
    summary = read_summary(out / "lewis_overton_start0_seed0_summary.txt")
    assert float(summary["dist_to_opt"]) <= 1e-2


def test_all_presets_enumerable():
    for name in PRESET_NAMES:
        cells = preset_cells(name)
        assert cells, name
    with pytest.raises(ValueError):
        preset_cells("warp")


def test_cli_summary_reports_pair_counters(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out / "smoke_seed0_summary.txt")
    formed = int(summary["pairs_formed"])
    assert formed > 0
    assert int(summary["pairs_skipped"]) == 0
    # vs_sqn takes its pairs unsmoothed, like its steps
    assert int(summary["pair_grads_reused"]) == formed


def test_preset_vs_sqn_cells_descend():
    cells = [c for name in PRESET_NAMES for c in preset_cells(name)
             if c.solver_params["scheme"] == "vs_sqn"]
    assert any(c.name.startswith("illcond") for c in cells)
    for cell in cells:
        seed = cell.seeds[0]
        result = run(build_problem(cell, seed), cell.solver_config(seed))
        first, last = result.records[0].f_value, result.records[-1].f_value
        assert np.isfinite(last) and last < first, cell.name
