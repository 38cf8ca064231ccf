import contextlib
import io
import itertools
import math
import re
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsqn.core import BATCH_READS, SCALAR_READS
from vsqn.harness.checks import fd_check, rate_fit, sparsity_count
from vsqn.harness.cli import main
from vsqn.harness.config import (
    _FLOAT_KEYS,
    KNOWN_KEYS,
    PROBLEM_KINDS,
    ExperimentConfig,
    build_problem,
    config_from_keys,
    load_config,
    parse_config_text,
)
from vsqn.harness.logs import CSV_HEADER, read_csv, read_summary, write_csv
from vsqn.harness.presets import PRESET_NAMES, preset_cells
from vsqn.problems import QuadraticEnsemble
from vsqn.solvers import BREAKDOWNS, SCHEMES, ConfigError, IterateLog, run


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

def test_csv_schema_and_round_trip(tmp_path):
    path = tmp_path / "log.csv"
    log = IterateLog()
    for k in range(5):
        log.append(k, k + 1, k + 1, 1.0 / (k + 1), 1.0 / (k + 1), 0.5, 0.1, 0.0)
    write_csv(path, log)
    rows = read_csv(path)
    assert len(rows) == 5
    assert rows[3]["k"] == 3
    assert rows[3]["gap"] == pytest.approx(0.25)
    header = path.read_text().splitlines()[0]
    assert header == CSV_HEADER


def test_csv_nan_cells_parse(tmp_path):
    log = IterateLog()
    log.append(0, 1, 1, None, None, 0.5, 0.1, 0.0)
    path = tmp_path / "log.csv"
    write_csv(path, log)
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
    assert tuple(cfg.seeds) == (0, 1)
    solver = cfg.solver_config(seed=1)
    assert solver.scheme == "vs_sqn"
    assert solver.sample_budget == 2000


def _config_error_field(keys: dict) -> str:
    with pytest.raises(ConfigError) as info:
        config_from_keys(keys)
    return info.value.field


def test_batch_ceiling_is_checked_over_a_horizon_only_run():
    # 10**16 > 2**53 at k = 10, refused over a horizon of 10 (CONFIG_FAULTS);
    # a budget may end the run first, so a run with one is left to the
    # schedule's own check when it gets there
    keys = {"problem": "quadratic_sc", "scheme": "apg_baseline", "horizon": 10,
            "batch_kind": "polynomial", "batch_exponent": 16.0}
    config_from_keys({**keys, "budget": 1000})
    assert config_from_keys({**keys, "horizon": 9}).solver_config(0).batch.eval(9) \
        == 9**16


@pytest.mark.parametrize("kind", ["quadratic_sc", "quadratic_c", "l1_quadratic"])
def test_quadratic_n_past_the_frame_limit_is_named_at_load(kind):
    # config_from_keys builds no problem, so nothing is drawn here; before,
    # n = 100000 failed in the builder, allocating a 74.5 GiB frame
    keys = {"problem": kind, "scheme": "sgd", "horizon": 5, "step_base": 0.01}
    with pytest.raises(ConfigError) as info:
        config_from_keys({**keys, "n": 100_000})
    assert info.value.field == "n"
    assert "74.5 GiB" in str(info.value) and "n <= 5792" in str(info.value)
    with pytest.raises(ConfigError, match="n <= 5792"):
        config_from_keys({**keys, "n": 5793, "x0_value": 1.0})
    assert config_from_keys({**keys, "n": 5792}).problem_params["n"] == 5792
    # the other kinds draw no frame
    config_from_keys({**keys, "problem": "l1_location", "n": 100_000})


def test_lone_step_base_is_a_constant_schedule():
    solver = config_from_keys({"problem": "l1_location", "loc_sc": 0.5,
                               "scheme": "svs_sqn_diminishing", "horizon": 10,
                               "step_base": 0.1}).solver_config(0)
    assert solver.step.kind == "constant" and solver.step.base == 0.1


@pytest.mark.parametrize("key, value", [("kappa", 5.0), ("loc_sc", 3.0)])
def test_problem_key_its_kind_does_not_read_is_rejected(key, value):
    assert _config_error_field({"problem": "logistic_synth", "scheme": "sgd",
                                "budget": 10, key: value}) == key
    with pytest.raises(ConfigError) as info:
        ExperimentConfig("cell", "logistic_synth", problem_params={key: value},
                         solver_params={"scheme": "sgd", "sample_budget": 10})
    assert info.value.field == key


def test_logistic_file_takes_n_from_the_config(tmp_path):
    data = tmp_path / "data.txt"
    data.write_text("+1 1:0.5 3:1.0\n-1 2:2.0\n")
    keys = {"problem": "logistic_file", "dataset_path": str(data),
            "scheme": "sgd", "budget": 10}
    assert build_problem(config_from_keys(keys), seed=0).meta.n == 3
    assert build_problem(config_from_keys({**keys, "n": 5}), seed=0).meta.n == 5
    with pytest.raises(ValueError, match="exceeds n=2"):
        build_problem(config_from_keys({**keys, "n": 2}), seed=0)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"problem = logistic_file\ndataset_path = {data}\nn = 5\n"
                   "x0_value = 0.1\nscheme = sgd\nstep_base = 0.1\nbudget = 10\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_cli_build_time_fault_exits_2_before_creating_out(tmp_path, capsys):
    # the n check runs while the problem is built, after every load check
    data = tmp_path / "data.txt"
    data.write_text("+1 1:0.5 3:1.0\n-1 2:2.0\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"problem = logistic_file\ndataset_path = {data}\nn = 2\n"
                   "scheme = sgd\nstep_base = 0.1\nbudget = 10\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error: n:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "flag", "preset"])
def test_cli_negative_seed_exits_2_naming_seed_before_creating_out(
        tmp_path, capsys, where):
    cfg = tmp_path / "cfg.txt"
    seed_line = "seed = -1\n" if where == "config" else ""
    cfg.write_text(f"problem = quadratic_sc\nn = 4\nscheme = sgd\n{seed_line}"
                   "budget = 10\n")
    source = ["--preset", "isotonic"] if where == "preset" else ["--config", str(cfg)]
    flag = [] if where == "config" else ["--seed", "-1"]
    out = tmp_path / "o"
    assert main(["run", *source, "--out", str(out), *flag]) == 2
    assert "error: seed:" in capsys.readouterr().err
    assert not out.exists()


# one cell repeated over a million seeds
_MANY_SEEDS = ("problem = quadratic_sc\nscheme = vs_sqn\nhorizon = 5\n"
               f"repeats = {10**6}\n")


def test_load_config_time_does_not_grow_with_repeats(tmp_path):
    # the cell is checked at its smallest seed only, and its seeds are a range
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_MANY_SEEDS)
    start = time.perf_counter()
    cell = load_config(cfg)
    assert time.perf_counter() - start < 0.5
    assert len(cell.seeds) == 10**6


def test_load_config_reads_the_smallest_seed_off_the_range_ends(tmp_path):
    # the most seeds allowed: the smallest seed comes off the range's ends,
    # not from walking it
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nscheme = vs_sqn\nhorizon = 5\n"
                   f"seed = 3\nrepeats = {2**25}\n")
    start = time.perf_counter()
    cell = load_config(cfg)
    assert time.perf_counter() - start < 0.5
    assert cell.seeds == range(3, 3 + 2**25)


@pytest.mark.parametrize("flag", [[], ["--seed", "7"]], ids=["config", "flag"])
def test_cli_builds_each_solver_config_as_its_run_starts(
        tmp_path, capsys, monkeypatch, flag):
    built, started = [], []
    solver_config = ExperimentConfig.solver_config

    def counted(cell, seed):
        built.append(seed)
        return solver_config(cell, seed)

    def execute(cell, config, out_dir):  # the second run is interrupted
        started.append(config.seed)
        return SimpleNamespace(
            termination="interrupted" if len(started) == 2 else "horizon",
            records=[SimpleNamespace(k=0)], extras={"breakdown": "stub"})

    monkeypatch.setattr(ExperimentConfig, "solver_config", counted)
    monkeypatch.setattr("vsqn.harness.cli._execute_cell", execute)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_MANY_SEEDS)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 *flag]) == 130
    first = int(flag[-1]) if flag else 0
    # one config checks the cell at load, then one is built per run started
    assert built == [0, first, first + 1]
    assert started == [first, first + 1]
    assert capsys.readouterr().err == (f"error: quadratic_sc_vs_sqn seed {first + 1}: "
                                       "interrupted at k = 0: stub\n")


def test_lewis_overton_rejects_n_other_than_2():
    keys = {"problem": "lewis_overton", "scheme": "vs_sqn", "horizon": 10}
    assert config_from_keys({**keys, "n": 2}).problem_params == {"n": 2}
    assert _config_error_field({**keys, "n": 3}) == "n"


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


# --- the config contract ---------------------------------------------------------
#
# A new config fault is one row of CONFIG_FAULTS: an id, the config (its
# key=value lines joined by spaces), the key its error must name and a text
# the message must hold.  Every row exits 2 within 1 s, naming the key and
# leaving no --out behind.

_BIG = 2**40
_QSC = "problem=quadratic_sc"
_APG = f"{_QSC} scheme=apg_baseline"
_SVS = "problem=l1_location loc_sc=0.5 scheme=svs_sqn_diminishing horizon=10"
_LOC = "problem=l1_location loc_sc=0.5"
_RSVS = f"{_LOC} scheme=rsvs_sqn horizon=1000"
_HUGE_L = "problem=logistic_synth n=5 lambda_l1=1 l1_smoothing=huber l1_eta=1e-320"
_LOG = "problem=logistic_synth"
_EMPTY = f"{_LOG} density=0 mu_l2=1e-13"  # L = tau = 1e-13: lambda_lo > lambda_hi


def _fault(id, config, key, says=""):
    return pytest.param(config, key, says, id=id)


CONFIG_FAULTS = [
    _fault("unknown_key", f"{_QSC} scheme=sgd warp=9 horizon=5", "warp",
           "unknown configuration key"),
    _fault("bad_value", f"{_QSC} kappa=fast scheme=sgd horizon=5", "kappa",
           "bad value"),
    _fault("key_set_twice", f"{_QSC} scheme=sgd horizon=3 horizon=5", "horizon",
           "set twice, on lines 3 and 4"),
    # the name is the stem of the run's files in --out
    _fault("name_parent_dir", f"{_QSC} scheme=sgd horizon=5 name=../escaped", "name",
           "plain file stem"),
    _fault("name_subdir", f"{_QSC} scheme=sgd horizon=5 name=a/b", "name",
           "plain file stem"),
    _fault("name_empty", f"{_QSC} scheme=sgd horizon=5 name=", "name",
           "plain file stem"),
    _fault("unknown_scheme", f"{_QSC} scheme=sorcery budget=10", "scheme"),
    _fault("scheme_unfit", "problem=l1_quadratic scheme=vs_sqn horizon=10", "scheme"),
    *(_fault(f"removed_{key}", f"{_QSC} scheme=sgd budget=100 {key}={value}", key)
      for key, value in [("average_iterates", "true"), ("max_iters", 7),
                         *((f"{p}_{f}", 1) for p in ("mu", "eta")
                           for f in ("kind", "base", "exponent", "offset"))]),
    # a key the scheme does not read, or whose value it would not honor
    _fault("vs_sqn_eta", f"{_QSC} scheme=vs_sqn eta=0.1 horizon=10", "eta"),
    _fault("sgd_m", f"{_QSC} scheme=sgd m=40 budget=10", "m"),
    *(_fault(f"rvs_sqn_{key}", f"problem=quadratic_c scheme=rvs_sqn {key}={value} "
                               "horizon=10", key)
      for key, value in [("epsilon", 2), ("delta_bar", 0.5), ("mu_kind", "constant"),
                         ("eta_base", 0.1)]),
    _fault("rsvs_sqn_step_schedule", f"{_LOC} scheme=rsvs_sqn horizon=50 "
           "step_kind=power step_base=0.01 step_exponent=-1", "step",
           "holds step fixed"),
    # a schedule key without its kind, or one its kind does not read
    _fault("batch_n0_without_kind", f"{_SVS} batch_n0=50", "batch_n0"),
    _fault("vs_sqn_batch_n0_without_kind",
           f"{_QSC} scheme=vs_sqn batch_n0=50 horizon=10", "batch_n0"),
    _fault("step_exponent_without_kind", f"{_SVS} step_base=0.1 step_exponent=-1",
           "step_exponent"),
    _fault("step_offset_without_kind", f"{_SVS} step_base=0.1 step_offset=2",
           "step_offset"),
    _fault("constant_step_exponent",
           f"{_SVS} step_kind=constant step_base=0.1 step_exponent=0.5",
           "step_exponent"),
    _fault("constant_batch_rate", f"{_SVS} batch_kind=constant batch_rate=0.5",
           "batch_rate"),
    _fault("geometric_batch_exponent",
           f"{_SVS} batch_kind=geometric batch_rate=0.9 batch_exponent=0.5",
           "batch_exponent"),
    _fault("polynomial_batch_rate",
           f"{_SVS} batch_kind=polynomial batch_exponent=1.5 batch_rate=0.5",
           "batch_rate"),
    # a schedule value out of range, named by the key that holds it; N_k
    # past 2**53 is refused at load over a horizon, and mid-run under a budget
    *(_fault(f"schedule_{id}", f"{_APG} horizon=10 {config}", key)
      for id, config, key in [
          ("batch_n0_0", "batch_kind=polynomial batch_n0=0 batch_exponent=1.5",
           "batch_n0"),
          ("step_base_negative", "step_kind=power step_base=-1", "step_base"),
          ("batch_rate_1.5", "batch_kind=geometric batch_rate=1.5", "batch_rate"),
          ("batch_exponent_negative", "batch_kind=polynomial batch_exponent=-1",
           "batch_exponent"),
          ("batch_kind_unknown", "batch_kind=nope", "batch_kind"),
          ("batch_exponent_inf", "batch_kind=polynomial batch_exponent=inf",
           "batch_exponent"),
          ("batch_exponent_nan", "batch_kind=polynomial batch_exponent=nan",
           "batch_exponent"),
          ("batch_rate_nan", "batch_kind=geometric batch_rate=nan", "batch_rate"),
          ("step_base_inf", "step_kind=constant step_base=inf", "step_base"),
          ("step_exponent_nan", "step_kind=power step_base=0.1 step_exponent=nan",
           "step_exponent"),
          ("step_exponent_-inf", "step_kind=power step_base=0.1 step_exponent=-inf",
           "step_exponent"),
          ("step_kind_removed", "step_kind=horizon_constant", "step_kind"),
          ("batch_n0_past_ceiling", f"batch_kind=constant batch_n0={2**53 + 1}",
           "batch_n0"),
          ("batch_exponent_16", "batch_kind=polynomial batch_exponent=16",
           "batch_exponent"),
          ("batch_exponent_20", "batch_kind=polynomial batch_exponent=20",
           "batch_exponent"),
          ("batch_exponent_1000", "batch_kind=polynomial batch_exponent=1000",
           "batch_exponent"),
          ("batch_rate_0.01", "batch_kind=geometric batch_rate=0.01", "batch_rate")]),
    _fault("schedule_batch_exponent_1000_budget",
           f"{_APG} batch_kind=polynomial batch_exponent=1000 budget=1000000",
           "batch_exponent"),
    _fault("schedule_batch_rate_1e-20_budget",
           f"{_APG} batch_kind=geometric batch_rate=1e-20 budget=1000000",
           "batch_rate"),
    # a solver key out of range
    _fault("m_0", f"{_QSC} scheme=vs_sqn m=0 horizon=10", "m"),
    _fault("budget_0", f"{_QSC} scheme=sgd budget=0", "budget"),
    _fault("seed_negative", f"{_QSC} scheme=sgd budget=10 seed=-1", "seed"),
    _fault("sparsity_threshold_negative",
           f"{_QSC} scheme=sgd sparsity_threshold=-1 horizon=5", "sparsity_threshold"),
    _fault("c_gamma_negative", f"{_LOC} scheme=rsvs_sqn c_gamma=-1 horizon=5",
           "c_gamma"),
    _fault("c_gamma_nan", f"{_LOC} scheme=rsvs_sqn c_gamma=nan horizon=5", "c_gamma"),
    _fault("epsilon_nan", f"{_QSC} scheme=rvs_sqn epsilon=nan horizon=5", "epsilon"),
    _fault("eta_0", f"{_LOC} scheme=rsvs_sqn eta=0 horizon=10", "eta",
           "smoothing level must be finite and > 0"),
    _fault("x0_value_without_n", f"{_QSC} scheme=vs_sqn x0_value=3 horizon=10",
           "x0_value"),
    # a problem key out of range, or an array past the allocation limit
    _fault("kappa_nan", f"{_QSC} kappa=nan scheme=sgd horizon=5", "kappa"),
    _fault("density_2", f"{_LOG} density=2 scheme=sgd horizon=5", "density"),
    _fault("lewis_overton_n_3", "problem=lewis_overton n=3 x0_value=1 scheme=vs_sqn "
           "step_base=0.5 horizon=10", "n"),
    *(_fault(id, f"{config} step_base=0.01 horizon=5", *key) for id, config, *key in [
        ("noise_1.5", f"{_QSC} noise=1.5 scheme=vs_sqn", "noise"),
        ("l1_quadratic_noise_1", "problem=l1_quadratic noise=1.0 scheme=svs_sqn_moreau",
         "noise"),
        ("loc_width_0", "problem=l1_location loc_width=0 scheme=vs_sqn", "loc_width"),
        ("loc_width_1e308", "problem=l1_location loc_width=1e308 scheme=vs_sqn",
         "loc_width"),
        ("loc_sc_negative", "problem=l1_location loc_sc=-1 scheme=vs_sqn", "loc_sc"),
        ("x0_value_nan", f"{_QSC} n=5 x0_value=nan scheme=vs_sqn", "x0_value"),
        ("l1_weight_negative", "problem=l1_quadratic l1_weight=-1 "
         "scheme=svs_sqn_moreau", "l1_weight"),
        ("iso_eta_0", "problem=isotonic iso_eta=0 scheme=vs_sqn", "iso_eta"),
        ("lo_eta_negative", "problem=lewis_overton lo_eta=-1 scheme=vs_sqn", "lo_eta"),
        ("l1_eta_0", f"{_LOG} lambda_l1=0.1 l1_smoothing=huber l1_eta=0 scheme=vs_sqn",
         "l1_eta"),
        ("l1_smoothing_unknown", f"{_LOG} l1_smoothing=soft scheme=vs_sqn",
         "l1_smoothing"),
        ("quadratic_c_n_1", "problem=quadratic_c n=1 scheme=vs_sqn", "n"),
        ("isotonic_n_3", "problem=isotonic n=3 scheme=vs_sqn", "n"),
        ("lambda_l1_negative", f"{_LOG} lambda_l1=-1 scheme=vs_sqn", "lambda_l1"),
        ("mu_l2_negative", f"{_LOG} mu_l2=-1 scheme=vs_sqn", "mu_l2"),
        ("mu_l2_nan", f"{_LOG} mu_l2=nan scheme=vs_sqn", "mu_l2"),
        ("support_frac_2", f"{_LOG} support_frac=2 scheme=vs_sqn", "support_frac"),
        ("num_samples_0", f"{_LOG} num_samples=0 scheme=vs_sqn", "num_samples"),
        ("isotonic_p_0", "problem=isotonic p=0 scheme=vs_sqn", "p"),
        ("l1_location_n_0", "problem=l1_location n=0 scheme=vs_sqn", "n"),
        ("logistic_synth_n_0", f"{_LOG} n=0 scheme=vs_sqn", "n"),
        ("logistic_synth_n_negative", f"{_LOG} n=-1 scheme=vs_sqn", "n"),
        ("l1_location_n_negative", "problem=l1_location n=-1 scheme=vs_sqn", "n"),
        ("l1_location_n_negative_x0",
         "problem=l1_location n=-1 x0_value=1 scheme=vs_sqn", "n"),
        ("isotonic_p_2**40", f"problem=isotonic p={_BIG} scheme=sgd", "p", "(p <= "),
        ("isotonic_n_2**40", f"problem=isotonic n={_BIG} scheme=sgd", "n", "(n <= "),
        ("logistic_num_samples_2**40", f"{_LOG} num_samples={_BIG} scheme=sgd",
         "num_samples", "(num_samples <= "),
        ("logistic_n_2**40", f"{_LOG} n={_BIG} scheme=sgd", "n", "(n <= "),
        ("l1_location_n_2**40", f"problem=l1_location n={_BIG} scheme=sgd", "n",
         "(n <= "),
        ("l1_location_n_2**40_x0",
         f"problem=l1_location n={_BIG} x0_value=1 scheme=sgd", "n", "(n <= "),
        ("repeats_2**40", f"{_QSC} repeats={_BIG} scheme=sgd", "repeats", "256 MiB"),
    ]),
    # a default step the problem's constants cannot give: lipschitz_L
    # overflows, or the theorem's eigenvalue envelope is empty or past float
    # range (tau = 1e-308, 2**40 and 1e308)
    *(_fault(f"default_step_{id}", f"{config} horizon=5", "step", says)
      for id, config, says in [
          ("huge_L_sgd", f"{_HUGE_L} scheme=sgd", ""),
          ("huge_L_apg", f"{_HUGE_L} scheme=apg_baseline", ""),
          ("huge_L_rvs_sqn", f"{_HUGE_L} scheme=rvs_sqn", ""),
          ("isotonic", "problem=isotonic iso_eta=1e-320 scheme=sgd", ""),
          ("lewis_overton", "problem=lewis_overton lo_eta=1e-320 scheme=vs_sqn", ""),
          ("mu_l2_1e308", f"{_LOG} n=5 mu_l2=1e308 scheme=vs_sqn", ""),
          ("empty_vs_sqn", f"{_EMPTY} scheme=vs_sqn", "no eigenvalue envelope"),
          ("empty_sqn_unit", f"{_EMPTY} scheme=sqn_unit", "no eigenvalue envelope"),
          ("underflow_loc_sc", "problem=l1_location loc_sc=1e-308 "
           "scheme=svs_sqn_diminishing", "leaves float range"),
          ("underflow_mu_l2", f"{_LOG} mu_l2=1e-308 scheme=svs_sqn_diminishing",
           "leaves float range"),
          ("empty_loc_sc_2**40", f"problem=l1_location loc_sc={_BIG} "
           "scheme=svs_sqn_diminishing", "no eigenvalue envelope"),
          ("empty_loc_sc_1e308", "problem=l1_location loc_sc=1e308 "
           "scheme=svs_sqn_diminishing", "no eigenvalue envelope")]),
    # a scheme's default past its range
    _fault("vs_sqn_default_batch", f"{_QSC} n=5 scheme=vs_sqn horizon=1000",
           "batch_rate", "vs_sqn's default batch schedule"),
    _fault("svs_sqn_diminishing_default_batch",
           f"{_LOC} scheme=svs_sqn_diminishing horizon=1000000000 step_base=0.01",
           "batch_exponent", "svs_sqn_diminishing's default batch"),
    _fault("rsvs_sqn_c_gamma", f"{_RSVS} c_gamma=1e308 epsilon=1", "step",
           "c_gamma K^(-1/3"),
    _fault("rsvs_sqn_epsilon", f"{_RSVS} epsilon=1000 batch_kind=constant", "step",
           "c_gamma K^(-1/3"),
    _fault("rsvs_sqn_epsilon_default_batch", f"{_RSVS} epsilon=1000", "batch_exponent",
           "rsvs_sqn's default batch"),
    _fault("rsvs_sqn_default_delta", f"{_LOC} scheme=rsvs_sqn horizon=50 epsilon=20 "
           "batch_kind=constant step_base=0.01", "epsilon", "default delta"),
]


def _run_config(tmp, config):
    """``vsqn run`` on one config, its lines joined by spaces, in directory
    ``tmp``: its exit code, its stderr and its --out directory."""
    cfg, out, err = Path(tmp) / "cfg.txt", Path(tmp) / "o", io.StringIO()
    cfg.write_text(config.replace(" ", "\n") + "\n")
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(cfg), "--out", str(out)])
    return code, err.getvalue(), out


@pytest.mark.parametrize("config, key, says", CONFIG_FAULTS)
def test_config_fault_exits_2_naming_its_key(tmp_path, config, key, says):
    start = time.perf_counter()
    code, err, out = _run_config(tmp_path, config)
    assert code == 2 and time.perf_counter() - start < 1.0
    assert f"error: {key}:" in err and says in err
    assert not out.exists()


@pytest.mark.parametrize("config, key, says",
                         [row for row in CONFIG_FAULTS if "seed=" not in row.values[0]])
def test_config_fault_is_the_same_at_a_large_seed(tmp_path, config, key, says):
    # a cell is checked at its smallest seed only (ExperimentConfig), which
    # holds while seed >= 0 is the one check that reads the seed
    code, err, _ = _run_config(tmp_path, config)
    assert code == 2
    assert _run_config(tmp_path, f"{config} seed={2**31 - 1}")[:2] == (2, err)


@pytest.mark.parametrize("config, theoretical", [
    # lipschitz_L overflows: the theorem step's bounds take lo = 0, hi = inf
    (f"{_HUGE_L} scheme=rvs_sqn step_base=0.01", 0.0),
    ("problem=lewis_overton lo_eta=1e-320 scheme=vs_sqn step_base=0.01", 0.0),
    # rvs_sqn's lambda_hi is finite, but its square is not
    (f"{_LOG} density=0.5 scheme=rvs_sqn", 0.0),
    (f"{_EMPTY} scheme=vs_sqn step_base=0.1", None),
    (f"{_EMPTY} scheme=sqn_unit step_base=0.1", None),
    ("problem=l1_location loc_sc=1e-308 scheme=svs_sqn_diminishing step_base=0.1", 0.0),
    (f"{_LOG} mu_l2=1e-308 scheme=svs_sqn_diminishing step_base=0.1", 0.0),
    (f"problem=l1_location loc_sc={_BIG} scheme=svs_sqn_diminishing step_base=0.1",
     None),
], ids=["rvs_sqn_huge_L", "lewis_overton", "rvs_sqn_hi_squared", "empty_vs_sqn",
        "empty_sqn_unit", "underflow_loc_sc", "underflow_mu_l2", "empty_loc_sc_2**40"])
def test_cli_records_the_theorem_step_it_cannot_take(tmp_path, config, theoretical):
    code, err, out = _run_config(tmp_path, f"{config} name=cell budget=100")
    assert code == 0, err
    summary = read_summary(out / "cell_seed0_summary.txt")
    assert summary["theoretical_step"] == str(theoretical)


# every key beyond the problem, the scheme and the stop, but dataset_path
# (the logistic_file kind needs a file) and name; edge values only, and for
# a batch key only values refused or small: a valid batch_n0 = 2**40 asks
# for 2**40 samples, which is no fault, but takes hours
_EXTRA_KEYS = sorted(KNOWN_KEYS - {"problem", "scheme", "horizon", "budget", "name",
                                   "dataset_path"})
_VALUES = {
    "batch_n0": (0, -1, 1, 2, 2**53 + 1), "batch_offset": (-1, 0, 1, 2),
    "batch_exponent": ("nan", "inf", -1, 0, 1.5, 1e308),
    "batch_rate": ("nan", -1, 0, 0.5, 1, 1e-308),
    "batch_kind": (*BATCH_READS, "warp"), "step_kind": (*SCALAR_READS, "warp"),
    "l1_smoothing": ("none", "huber", "warp"),
}
_FLOATS = ("nan", "inf", "-inf", 0, -1, 1e-308, 1e308, 0.5, 2.0**40)
_INTS = (0, -1, 1, 2, _BIG, "nan")


@st.composite
def _configs(draw):
    kinds = [kind for kind in PROBLEM_KINDS if kind != "logistic_file"]
    config = [f"problem={draw(st.sampled_from(kinds))}",
              f"scheme={draw(st.sampled_from(SCHEMES))}",
              draw(st.one_of(st.integers(1, 60).map("horizon={}".format),
                             st.integers(1, 50_000).map("budget={}".format)))]
    for key in draw(st.lists(st.sampled_from(_EXTRA_KEYS), max_size=4, unique=True)):
        values = _VALUES.get(key, _FLOATS if key in _FLOAT_KEYS else _INTS)
        config.append(f"{key}={draw(st.sampled_from(values))}")
    return " ".join(config)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_configs())
def test_config_contract(config):
    # exit 0; or 2 naming a key (or step or batch, a whole schedule) with no
    # --out; or 3 with the log and summary of the run that broke down.  An
    # exit 1, an escaped exception or a RuntimeWarning fails the test
    with tempfile.TemporaryDirectory() as tmp:  # tmp_path is not reset per example
        code, err, out = _run_config(tmp, config)
        if code == 2:
            key = re.match(r"error: (\w+):", err)
            assert key and key[1] in KNOWN_KEYS | {"step", "batch"}, err
            assert not out.exists()
        elif code == 3:
            name, seed, termination = re.match(
                r"error: (\w+) seed (\d+): ([\w-]+) at k", err).groups()
            assert termination in ("diverged", *BREAKDOWNS.values())
            summary = read_summary(out / f"{name}_seed{seed}_summary.txt")
            assert summary["termination"] == termination
            assert read_csv(out / f"{name}_seed{seed}.csv")
        else:
            assert code == 0, err


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


@pytest.mark.parametrize("problem, scheme, m", [
    ("problem = quadratic_sc\nn = 10\nkappa = 100", "vs_sqn", 100),
    ("problem = quadratic_sc\nn = 10\nkappa = 100", "sqn_unit", 100),
    ("problem = l1_quadratic", "svs_sqn_moreau", 100),
    ("problem = l1_location\nloc_sc = 0.5", "svs_sqn_diminishing", 400),
], ids=["vs_sqn", "sqn_unit", "svs_sqn_moreau", "svs_sqn_diminishing"])
def test_cli_theorem_step_past_float_range_needs_an_explicit_step(
        tmp_path, capsys, problem, scheme, m):
    # at this m the eigenvalue bound in the theorem step overflows a float
    text = f"{problem}\nscheme = {scheme}\nm = {m}\nhorizon = 4\n"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text + "step_base = 0.001\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "error: step:" in err and f"m = {m}" in err
    assert not (tmp_path / "b").exists()


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


def test_x0_value_sets_the_start_point(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nn = 5\nscheme = vs_sqn\n"
                   "x0_value = 3\nhorizon = 10\n")
    solver = load_config(cfg).solver_config(seed=0)
    assert np.array_equal(solver.x0, np.full(5, 3.0))


def _strip_wall(path):
    """A CSV log's lines without the wall-clock column."""
    lines = path.read_text().splitlines()
    return ["\x1f".join(line.split(",")[:-1]) for line in lines]


def test_cli_diverging_run_exits_3_naming_cell_and_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nkappa = 100\n"
                   "scheme = vs_sqn\nstep_base = 50\nhorizon = 500\n")
    logs = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        # the partial log and summary are written, and one line names the run
        log = out / "quadratic_sc_vs_sqn_seed0.csv"
        k = read_csv(log)[-1]["k"]
        summary = read_summary(out / "quadratic_sc_vs_sqn_seed0_summary.txt")
        assert summary["termination"] == "diverged"
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: quadratic_sc_vs_sqn seed 0: diverged at k = {k}:")
        logs.append(_strip_wall(log))
    # a diverging run reruns byte-identical outside the wall-clock column
    assert logs[0] == logs[1]
    # row 89's vectors are finite, though their squared norms overflow
    (row,) = [r for r in read_csv(log) if r["k"] == 89]
    assert row["grad_norm"] > 1e154 and row["step_norm"] > 1e154
    assert math.isfinite(row["grad_norm"]) and math.isfinite(row["step_norm"])


def test_cli_secant_breakdown_exits_3_keeping_its_message(tmp_path, capsys):
    # l1_location's subgradient is piecewise constant, so a pair's s.y is 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = l1_location\nscheme = vs_sqn\nstep_kind = constant\n"
                   "step_base = 0.001\nhorizon = 4\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    k = read_csv(out / "l1_location_vs_sqn_seed0.csv")[-1]["k"]
    summary = read_summary(out / "l1_location_vs_sqn_seed0_summary.txt")
    assert summary["termination"] == "secant"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    # the line keeps the caught SecantError's message, which carries s.y,
    # and so does the summary
    assert err[0] == (f"error: l1_location_vs_sqn seed 0: secant at k = {k}: "
                      f"{summary['breakdown']}")
    assert summary["breakdown"].startswith("curvature pair at iteration ")
    assert "s.y = " in err[0]


def test_cli_interrupted_run_keeps_its_log_and_exits_130(tmp_path, capsys, monkeypatch):
    # sgd's oracle is interrupted in its fifth call, at k = 5 of seed 0
    calls = itertools.count()
    evaluate = QuadraticEnsemble.batch_gradient

    def interrupted(*args, **kwargs):
        if next(calls) == 4:
            raise KeyboardInterrupt
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(QuadraticEnsemble, "batch_gradient", interrupted)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("name = cut\nproblem = quadratic_sc\nn = 4\nscheme = sgd\n"
                   "step_base = 0.01\nhorizon = 50\nrepeats = 2\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 130
    assert read_csv(out / "cut_seed0.csv")[-1]["k"] == 5
    summary = read_summary(out / "cut_seed0_summary.txt")
    assert summary["termination"] == "interrupted"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cut seed 0: interrupted at k = 5: {summary['breakdown']}"]
    # no later run starts
    assert sorted(p.name for p in out.iterdir()) == ["cut_seed0.csv",
                                                     "cut_seed0_summary.txt"]


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
    assert _strip_wall(out1 / "smoke_seed0.csv") == _strip_wall(out2 / "smoke_seed0.csv")


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


def test_cli_summary_reports_the_scheme_constants(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("name = c\nproblem = l1_location\nloc_sc = 0.5\nscheme = rsvs_sqn\n"
                   "horizon = 8\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out / "c_seed0_summary.txt")
    cell = load_config(cfg)
    extras = run(build_problem(cell, 0), cell.solver_config(0)).extras
    assert set(extras) >= {"mu", "eta", "gamma", "delta", "delta_bar"}
    for key, value in extras.items():
        assert float(summary[key]) == value, key


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
