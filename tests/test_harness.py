import math
import time
import warnings

import numpy as np
import pytest

from vsqn.harness.checks import fd_check, rate_fit, sparsity_count
from vsqn.harness.cli import main
from vsqn.harness.config import (
    ExperimentConfig,
    build_problem,
    config_from_keys,
    load_config,
    parse_config_text,
)
from vsqn.harness.logs import CSV_HEADER, read_csv, read_summary, write_csv
from vsqn.harness.presets import PRESET_NAMES, preset_cells
from vsqn.solvers import ConfigError, IterateLog, run


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


_SVS = {"problem": "l1_location", "loc_sc": 0.5,
        "scheme": "svs_sqn_diminishing", "horizon": 10}


def _config_error_field(keys: dict) -> str:
    with pytest.raises(ConfigError) as info:
        config_from_keys(keys)
    return info.value.field


def test_batch_key_without_batch_kind_is_rejected():
    assert _config_error_field({**_SVS, "batch_n0": 50}) == "batch_n0"


@pytest.mark.parametrize("key, value", [("step_exponent", -1.0),
                                        ("step_offset", 2)])
def test_scalar_schedule_shape_key_without_kind_is_rejected(key, value):
    assert _config_error_field({**_SVS, "step_base": 0.1, key: value}) == key


@pytest.mark.parametrize("kind_keys, unread", [
    ({"step_kind": "constant", "step_base": 0.1}, "step_exponent"),
    ({"batch_kind": "constant"}, "batch_rate"),
    ({"batch_kind": "geometric", "batch_rate": 0.9}, "batch_exponent"),
    ({"batch_kind": "polynomial", "batch_exponent": 1.5}, "batch_rate"),
])
def test_schedule_key_its_kind_does_not_read_is_rejected(kind_keys, unread):
    assert _config_error_field({**_SVS, **kind_keys, unread: 0.5}) == unread


@pytest.mark.parametrize("bad_keys, key", [
    ({"batch_kind": "polynomial", "batch_n0": 0, "batch_exponent": 1.5}, "batch_n0"),
    ({"step_kind": "power", "step_base": -1.0}, "step_base"),
    ({"batch_kind": "geometric", "batch_rate": 1.5}, "batch_rate"),
    ({"batch_kind": "polynomial", "batch_exponent": -1.0}, "batch_exponent"),
    ({"batch_kind": "nope"}, "batch_kind"),
    ({"batch_kind": "polynomial", "batch_exponent": math.inf}, "batch_exponent"),
    ({"batch_kind": "polynomial", "batch_exponent": math.nan}, "batch_exponent"),
    ({"batch_kind": "geometric", "batch_rate": math.nan}, "batch_rate"),
    ({"step_kind": "constant", "step_base": math.inf}, "step_base"),
    ({"step_kind": "power", "step_base": 0.1, "step_exponent": math.nan},
     "step_exponent"),
    ({"step_kind": "power", "step_base": 0.1, "step_exponent": -math.inf},
     "step_exponent"),
    # N_k past 2**53: N0 itself, and within the horizon of 10
    ({"batch_kind": "constant", "batch_n0": 2**53 + 1}, "batch_n0"),
    ({"batch_kind": "polynomial", "batch_exponent": 20.0}, "batch_exponent"),
    ({"batch_kind": "geometric", "batch_rate": 0.01}, "batch_rate"),
])
def test_schedule_value_error_names_the_key_that_holds_it(bad_keys, key):
    keys = {"problem": "quadratic_sc", "scheme": "apg_baseline", "horizon": 10}
    assert _config_error_field({**keys, **bad_keys}) == key


def test_batch_ceiling_is_checked_over_a_horizon_only_run():
    # 10**16 > 2**53 at k = 10; a budget may end the run first, so a run
    # with one is left to the schedule's own check when it gets there
    keys = {"problem": "quadratic_sc", "scheme": "apg_baseline", "horizon": 10,
            "batch_kind": "polynomial", "batch_exponent": 16.0}
    assert _config_error_field(keys) == "batch_exponent"
    config_from_keys({**keys, "budget": 1000})
    assert config_from_keys({**keys, "horizon": 9}).solver_config(0).batch.eval(9) \
        == 9**16


@pytest.mark.parametrize("lines, key", [
    # N_2 = 2**1000 (N_5 overflows a float): before, it streamed for ever
    ("problem = quadratic_sc\nscheme = apg_baseline\nbatch_kind = polynomial\n"
     "batch_exponent = 1000\nhorizon = 5\n", "batch_exponent"),
    # the same past the ceiling before a budget ends the run, met mid-run:
    # before, it named the schedule's field (exponent, rate), not the key
    ("problem = quadratic_sc\nscheme = apg_baseline\nbatch_kind = polynomial\n"
     "batch_exponent = 1000\nbudget = 1000000\n", "batch_exponent"),
    ("problem = quadratic_sc\nscheme = apg_baseline\nbatch_kind = geometric\n"
     "batch_rate = 1e-20\nbudget = 1000000\n", "batch_rate"),
    # before, an OverflowError traceback from the eigenvalue draw
    ("problem = quadratic_sc\nkappa = nan\nscheme = sgd\nhorizon = 5\n", "kappa"),
    # before, a run on all-ones features
    ("problem = logistic_synth\ndensity = 2\nscheme = sgd\nhorizon = 5\n",
     "density"),
    # before, a run with a negative step (exit 0), a non-finite gradient
    # (exit 3), and a ConfigError naming the mu schedule's exponent
    ("problem = l1_location\nloc_sc = 0.5\nscheme = rsvs_sqn\nc_gamma = -1\n"
     "horizon = 5\n", "c_gamma"),
    ("problem = l1_location\nloc_sc = 0.5\nscheme = rsvs_sqn\nc_gamma = nan\n"
     "horizon = 5\n", "c_gamma"),
    ("problem = quadratic_sc\nscheme = rvs_sqn\nepsilon = nan\nhorizon = 5\n",
     "epsilon"),
    # before, accepted
    ("problem = quadratic_sc\nscheme = sgd\nsparsity_threshold = -1\n"
     "horizon = 5\n", "sparsity_threshold"),
    # before, named the SolverConfig field sample_budget
    ("problem = quadratic_sc\nscheme = sgd\nbudget = 0\n", "budget"),
    # a schedule kind that no longer exists
    ("problem = quadratic_sc\nscheme = sgd\nstep_kind = horizon_constant\n"
     "horizon = 5\n", "step_kind"),
])
def test_cli_out_of_range_value_exits_2_naming_its_key(tmp_path, capsys, lines, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(lines)
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"error: {key}:" in capsys.readouterr().err
    assert not out.exists()


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
    solver = config_from_keys({**_SVS, "step_base": 0.1}).solver_config(0)
    assert solver.step.kind == "constant" and solver.step.base == 0.1


def test_cli_batch_key_without_batch_kind_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nscheme = vs_sqn\nbatch_n0 = 50\n"
                   "horizon = 10\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: batch_n0:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("kappa", 5.0), ("loc_sc", 3.0)])
def test_problem_key_its_kind_does_not_read_is_rejected(key, value):
    assert _config_error_field({"problem": "logistic_synth", "scheme": "sgd",
                                "budget": 10, key: value}) == key
    with pytest.raises(ConfigError) as info:
        ExperimentConfig("cell", "logistic_synth", problem_params={key: value},
                         solver_params={"scheme": "sgd", "sample_budget": 10})
    assert info.value.field == key


@pytest.mark.parametrize("line, key", [
    ("average_iterates = true", "average_iterates"), ("max_iters = 7", "max_iters"),
    *((f"{key} = 1", key) for key in (
        "mu_kind", "mu_base", "mu_exponent", "mu_offset",
        "eta_kind", "eta_base", "eta_exponent", "eta_offset")),
])
def test_load_config_rejects_removed_knobs(tmp_path, line, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"problem = quadratic_sc\nscheme = sgd\nbudget = 100\n{line}\n")
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert info.value.field == key


def test_field_the_scheme_does_not_read_is_rejected_at_load(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nscheme = vs_sqn\neta = 0.1\n"
                   "horizon = 10\n")
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert info.value.field == "eta"


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


def test_cli_logistic_file_with_n_below_its_largest_index_exits_2_naming_n(
        tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("+1 1:0.5 3:1.0\n-1 2:2.0\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"problem = logistic_file\ndataset_path = {data}\nn = 2\n"
                   "scheme = sgd\nstep_base = 0.1\nbudget = 10\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "error: n:" in capsys.readouterr().err


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


def test_negative_seed_in_a_config_is_rejected_at_load():
    with pytest.raises(ConfigError) as info:
        config_from_keys({"problem": "quadratic_sc", "scheme": "sgd",
                          "budget": 10, "seed": -1})
    assert info.value.field == "seed"


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


@pytest.mark.parametrize("line, key", [
    ("epsilon = 2", "epsilon"),  # rvs_sqn's theorem weight mu_k would grow
    ("delta_bar = 0.5", "delta_bar"),  # rvs_sqn's delta_bar is the theorem's
    ("mu_kind = constant", "mu_kind"), ("eta_base = 0.1", "eta_base"),
])
def test_cli_rvs_sqn_fault_exits_2_naming_its_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"problem = quadratic_c\nscheme = rvs_sqn\n{line}\nhorizon = 10\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_HUGE_L = "problem = logistic_synth\nn = 5\nlambda_l1 = 1\nl1_smoothing = huber\nl1_eta = 1e-320"


@pytest.mark.parametrize("problem, scheme", [
    (_HUGE_L, "sgd"), (_HUGE_L, "apg_baseline"), (_HUGE_L, "rvs_sqn"),
    ("problem = isotonic\niso_eta = 1e-320", "sgd"),
    ("problem = lewis_overton\nlo_eta = 1e-320", "vs_sqn"),
    ("problem = logistic_synth\nn = 5\nmu_l2 = 1e308", "vs_sqn"),
], ids=["sgd", "apg_baseline", "rvs_sqn", "isotonic", "lewis_overton", "mu_l2"])
def test_cli_default_step_past_float_range_exits_2_naming_step(
        tmp_path, capsys, problem, scheme):
    # a smoothing level near 0 or a huge weight makes lipschitz_L overflow
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{problem}\nscheme = {scheme}\nhorizon = 5\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "error: step:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("problem, scheme", [
    (_HUGE_L, "rvs_sqn"), ("problem = lewis_overton\nlo_eta = 1e-320", "vs_sqn"),
], ids=["rvs_sqn", "lewis_overton"])
def test_cli_explicit_step_runs_where_lipschitz_L_overflows(tmp_path, problem, scheme):
    # the recorded theorem step's bounds take lo = 0 and hi = inf
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{problem}\nscheme = {scheme}\nhorizon = 5\nstep_base = 0.01\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_cli_non_positive_eta_exits_2_naming_eta(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = l1_location\nloc_sc = 0.5\n"
                   "scheme = rsvs_sqn\neta = 0\nhorizon = 10\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: eta: smoothing level must be finite and > 0" in capsys.readouterr().err


_LOCATION = "problem = l1_location\nloc_sc = 0.5"
_RSVS = f"{_LOCATION}\nscheme = rsvs_sqn\nhorizon = 1000"


@pytest.mark.parametrize("lines, key, says", [
    # a default batch past 2**53 samples by k = K: before, the run drew
    # batches growing toward the ceiling (killed after 30 s)
    ("problem = quadratic_sc\nn = 5\nscheme = vs_sqn\nhorizon = 1000",
     "batch_rate", "vs_sqn's default batch schedule"),
    (f"{_LOCATION}\nscheme = svs_sqn_diminishing\nhorizon = 1000000000\n"
     "step_base = 0.01", "batch_exponent", "svs_sqn_diminishing's default batch"),
    # rsvs_sqn's default step past float range: before, a run diverged at
    # k = 0 (exit 3), or an OverflowError traceback (exit 1)
    (f"{_RSVS}\nc_gamma = 1e308\nepsilon = 1", "step", "c_gamma K^(-1/3"),
    (f"{_RSVS}\nepsilon = 1000\nbatch_kind = constant", "step", "c_gamma K^(-1/3"),
    (f"{_RSVS}\nepsilon = 1000", "batch_exponent", "rsvs_sqn's default batch"),
], ids=["vs_sqn", "svs_sqn_diminishing", "rsvs_sqn_c_gamma", "rsvs_sqn_epsilon",
        "rsvs_sqn_epsilon_default_batch"])
def test_cli_scheme_default_past_its_range_exits_2_naming_its_key(
        tmp_path, capsys, lines, key, says):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(lines + "\n")
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"error: {key}:" in err and says in err
    assert not out.exists()


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


def test_cli_field_the_scheme_does_not_read_exits_2_before_creating_out(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = quadratic_sc\nscheme = sgd\nm = 40\nbudget = 10\n")
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "error: m:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("problem, key", [
    ("problem = quadratic_sc; noise = 1.5; scheme = vs_sqn", "noise"),
    ("problem = l1_quadratic; noise = 1.0; scheme = svs_sqn_moreau", "noise"),
    ("problem = l1_location; loc_width = 0; scheme = vs_sqn", "loc_width"),
    ("problem = l1_location; loc_sc = -1; scheme = vs_sqn", "loc_sc"),
    ("problem = quadratic_sc; n = 5; x0_value = nan; scheme = vs_sqn", "x0_value"),
    ("problem = l1_quadratic; l1_weight = -1; scheme = svs_sqn_moreau", "l1_weight"),
    ("problem = isotonic; iso_eta = 0; scheme = vs_sqn", "iso_eta"),
    ("problem = lewis_overton; lo_eta = -1; scheme = vs_sqn", "lo_eta"),
    ("problem = logistic_synth; lambda_l1 = 0.1; l1_smoothing = huber; "
     "l1_eta = 0; scheme = vs_sqn", "l1_eta"),
    ("problem = logistic_synth; l1_smoothing = soft; scheme = vs_sqn", "l1_smoothing"),
    ("problem = quadratic_c; n = 1; scheme = vs_sqn", "n"),
    ("problem = isotonic; n = 3; scheme = vs_sqn", "n"),
    # these ran and broke down (exit 3): s.y <= 0 on a negative weight, a
    # non-finite gradient on mu_l2 = nan
    ("problem = logistic_synth; lambda_l1 = -1; scheme = vs_sqn", "lambda_l1"),
    ("problem = logistic_synth; mu_l2 = -1; scheme = vs_sqn", "mu_l2"),
    ("problem = logistic_synth; mu_l2 = nan; scheme = vs_sqn", "mu_l2"),
    # these exited 1 with a message from inside numpy or Python
    ("problem = logistic_synth; support_frac = 2; scheme = vs_sqn", "support_frac"),
    ("problem = logistic_synth; num_samples = 0; scheme = vs_sqn", "num_samples"),
    ("problem = isotonic; p = 0; scheme = vs_sqn", "p"),
    ("problem = l1_location; n = 0; scheme = vs_sqn", "n"),
    ("problem = logistic_synth; n = 0; scheme = vs_sqn", "n"),
    ("problem = logistic_synth; n = -1; scheme = vs_sqn", "n"),
    ("problem = l1_location; n = -1; scheme = vs_sqn", "n"),
    ("problem = l1_location; n = -1; x0_value = 1; scheme = vs_sqn", "n"),
])
def test_cli_problem_key_fault_exits_2_naming_the_key(tmp_path, capsys,
                                                      problem, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(problem.replace("; ", "\n") + "\nstep_base = 0.01\nhorizon = 5\n")
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert f"error: {key}:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_lewis_overton_with_n_3_exits_2_before_creating_out(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = lewis_overton\nn = 3\nx0_value = 1\n"
                   "scheme = vs_sqn\nstep_base = 0.5\nhorizon = 10\n")
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "error: n:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rsvs_sqn_step_schedule_exits_2_naming_step(tmp_path, capsys):
    # rsvs_sqn holds its step fixed over the run
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem = l1_location\nloc_sc = 0.5\nscheme = rsvs_sqn\n"
                   "horizon = 50\nstep_kind = power\nstep_base = 0.01\n"
                   "step_exponent = -1\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: step:" in capsys.readouterr().err


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
    # the line keeps the caught SecantError's message, which carries s.y
    assert err[0].startswith(f"error: l1_location_vs_sqn seed 0: secant at k = {k}: "
                             "curvature pair at iteration ")
    assert "s.y = " in err[0]


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
