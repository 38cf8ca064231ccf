import math
import tracemalloc
import warnings
import weakref
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from vsqn.core import (
    _INDEX_BLOCK,
    BatchSchedule,
    ProblemMeta,
    RngStream,
    SampleHandle,
    ScalarSchedule,
)
from vsqn.harness import cli
from vsqn.harness.config import PROBLEM_KINDS, build_problem, config_from_keys
from vsqn.harness.logs import read_csv, read_summary
from vsqn.harness.presets import preset_cells
from vsqn.hessian import LbfgsMemory, collect_pair
from vsqn.problems import (
    _DRAW_CHUNK,
    CompositeProblem,
    L1LocationProblem,
    LewisOvertonProblem,
    quad_make,
)
from vsqn.smoothing import L1Function, eta_schedule_diminishing
from vsqn.solvers import (
    FULL_FIDELITY_ROWS,
    SCHEMES,
    _SCHEMES,
    ConfigError,
    IterateLog,
    IterateRecord,
    SolverConfig,
    _norm,
    run,
)


def sc_quad(seed=0, n=6, kappa=10.0, noise=0.5):
    return quad_make(n, kappa, "SC", RngStream(seed, 1), noise_half_width=noise)


# --- config validation ---------------------------------------------------------

def test_unknown_scheme_names_field():
    with pytest.raises(ConfigError) as info:
        SolverConfig("warp_drive", horizon=5)
    assert info.value.field == "scheme"


def test_rsvs_requires_horizon():
    with pytest.raises(ConfigError) as info:
        SolverConfig("rsvs_sqn", sample_budget=100)
    assert info.value.field == "horizon"


_NON_DEFAULT = {"m": 3, "eta": 0.1, "epsilon": 0.7, "c_gamma": 9.0, "delta": 0.5,
                "delta_bar": 0.5}
_READS = {"vs_sqn": ("m",), "svs_sqn_moreau": ("m", "eta"),
          "svs_sqn_diminishing": ("m",), "rvs_sqn": ("m", "epsilon"),
          "rsvs_sqn": tuple(_NON_DEFAULT), "sgd": (), "sqn_unit": ("m",),
          "apg_baseline": ()}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_field_its_scheme_does_not_read_is_rejected(scheme):
    for name, value in _NON_DEFAULT.items():
        if name in _READS[scheme]:
            SolverConfig(scheme, horizon=10, **{name: value})
            continue
        with pytest.raises(ConfigError) as info:
            SolverConfig(scheme, horizon=10, **{name: value})
        assert info.value.field == name
    # an unread field at its default is no fault
    SolverConfig(scheme, horizon=10, m=5, epsilon=0.1, c_gamma=1.0)


# each scheme's default batch as its plan built it before the defaults moved
# into _SCHEMES, at epsilon = 0.7 where the scheme reads epsilon
_DEFAULT_BATCH = {
    "vs_sqn": BatchSchedule("geometric", N0=1, rate=0.95),
    "svs_sqn_moreau": BatchSchedule("geometric", N0=1, rate=0.9),
    "svs_sqn_diminishing": BatchSchedule("polynomial", N0=1,
                                         exponent=1.5 + 2.0 / 3.0, offset=2),
    "rvs_sqn": BatchSchedule("polynomial", N0=1, exponent=2.0 + 0.7, offset=0),
    "rsvs_sqn": BatchSchedule("polynomial", N0=1, exponent=1.0 + 0.7, offset=1),
    "sgd": BatchSchedule("constant", N0=1),
    "sqn_unit": BatchSchedule("constant", N0=1),
    "apg_baseline": BatchSchedule("constant", N0=1),
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_unset_batch_is_the_schemes_default(scheme):
    eps = {"epsilon": 0.7} if "epsilon" in _READS[scheme] else {}
    config = SolverConfig(scheme, horizon=10, **eps)
    assert config.batch == _DEFAULT_BATCH[scheme]
    assert config.batch.kind in _SCHEMES[scheme][1]
    # an explicit batch is kept as given
    unit = BatchSchedule("constant", N0=3)
    assert SolverConfig(scheme, horizon=10, batch=unit, **eps).batch is unit


def test_incompatible_batch_kind_rejected():
    with pytest.raises(ConfigError) as info:
        SolverConfig("vs_sqn", horizon=5,
                     batch=BatchSchedule("polynomial", 1, exponent=2.0))
    assert info.value.field == "batch"


def test_rsvs_sqn_step_must_be_constant():
    power = ScalarSchedule("power", base=0.5, exponent=-1.0)
    with pytest.raises(ConfigError) as info:
        SolverConfig("rsvs_sqn", horizon=100, step=power)
    assert info.value.field == "step"
    SolverConfig("rsvs_sqn", horizon=100, step=ScalarSchedule("constant", 0.5))


def test_sqn_unit_honours_a_constant_batch():
    res = run(sc_quad(), SolverConfig("sqn_unit", horizon=10, seed=0,
                                      batch=BatchSchedule("constant", N0=5)))
    # ten steps of 5 samples, then the closing record
    assert [r.samples_cum for r in res.records] == [5, 10, 15, 20, 25, 30, 35, 40,
                                                    45, 50, 50]


def test_moreau_eta_cap_enforced():
    quad = sc_quad(kappa=20.0)
    prob = CompositeProblem(L1Function(0.5), quad)
    cfg = SolverConfig("svs_sqn_moreau", horizon=10, eta=5.0,
                       batch=BatchSchedule("geometric", 1, rate=0.9))
    with pytest.raises(ConfigError) as info:
        run(prob, cfg)
    assert info.value.field == "eta"


def test_moreau_needs_the_constants_of_its_eta_cap():
    quad = quad_make(6, 10.0, "C", RngStream(0, 1))
    prob = CompositeProblem(L1Function(0.5), quad)
    cfg = SolverConfig("svs_sqn_moreau", horizon=10, eta=0.1,
                       step=ScalarSchedule("constant", 0.01))
    with pytest.raises(ConfigError) as info:
        run(prob, cfg)
    assert info.value.field == "scheme"


# the dataset-file kind needs a file on disk; its oracle is LogisticProblem's,
# which logistic_synth covers
CONTRACT_KINDS = [kind for kind in PROBLEM_KINDS if kind != "logistic_file"]
UNSMOOTHED_SCHEMES = ("vs_sqn", "rvs_sqn", "sgd", "sqn_unit", "apg_baseline")


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", CONTRACT_KINDS)
def test_every_scheme_runs_or_raises_a_vsqn_error_on_every_problem(kind, scheme):
    cfg = config_from_keys({"problem": kind, "scheme": scheme, "horizon": 4,
                            "step_kind": "constant", "step_base": 1e-3})
    problem = build_problem(cfg, 0)
    if kind == "l1_quadratic" and scheme in UNSMOOTHED_SCHEMES:
        with pytest.raises(ConfigError) as info:
            run(problem, cfg.solver_config(0))
        assert info.value.field == "scheme"
        return
    try:
        run(problem, cfg.solver_config(0))
    except ConfigError:  # a breakdown ends the run; it does not raise
        pass


# --- breakdowns: a run that leaves the paper's assumptions ends, not raises ----

def _assert_broke_down(res, termination, k):
    """The run ended on ``termination`` at iteration k: its log holds the
    rows of the iterations that stepped, each from a finite iterate, then
    the closing row at k, and it reports z_k, which is finite."""
    assert res.termination == termination and res.extras["breakdown"]
    first = res.records[0].k
    assert [r.k for r in res.records] == list(range(first, k + 1))
    assert [e["k"] for e in res.trace] == list(range(first, k))
    assert all(np.isfinite(e["x"]).all() for e in res.trace)
    closing = res.records[-1]
    assert math.isnan(closing.grad_norm) and closing.step_norm == 0.0
    assert np.isfinite(res.x_final).all()
    assert res.x_averaged is None or np.isfinite(res.x_averaged).all()


def test_an_overflowing_iterate_ends_the_run_diverged_without_a_warning():
    cell = config_from_keys({"problem": "quadratic_sc", "kappa": 100.0,
                             "scheme": "vs_sqn", "step_base": 50.0, "horizon": 500})
    cfg = replace(cell.solver_config(0), record_trace=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(build_problem(cell, 0), cfg)
    k = res.records[-1].k
    assert 0 < k < 500
    _assert_broke_down(res, "diverged", k)


class _NaNComposite(CompositeProblem):
    def batch_gradient(self, x, batch, eta):
        return super().batch_gradient(x, batch, eta) + np.nan


def test_a_non_finite_envelope_gradient_ends_the_run_diverged():
    prob = _NaNComposite(L1Function(0.5), sc_quad())
    cfg = SolverConfig("svs_sqn_moreau", horizon=3, eta=0.1, record_trace=True,
                       step=ScalarSchedule("constant", 0.5))
    res = run(prob, cfg)
    _assert_broke_down(res, "diverged", 0)
    assert np.array_equal(res.x_final, np.zeros(6))


class _GradientOf:
    """A problem whose batch gradient is ``grad(x)``; it draws nothing."""

    def __init__(self, n, grad):
        self.meta = ProblemMeta(n=n)
        self.grad = grad

    def draw(self, handle):
        return None

    def batch_gradient(self, x, batch, eta=None):
        return self.grad(x)


def test_a_run_that_diverges_before_its_first_step_has_no_average():
    # sgd reports the mean of the iterates it steps from, and there are none
    cfg = SolverConfig("sgd", horizon=5, record_trace=True,
                       step=ScalarSchedule("constant", 0.1))
    res = run(_GradientOf(3, lambda x: x + np.nan), cfg)
    _assert_broke_down(res, "diverged", 1)
    assert res.x_averaged is None


def test_a_pair_with_negative_curvature_ends_the_run_secant():
    # a concave objective: the pair at k = 1 has y = -s, so s.y < 0
    cfg = SolverConfig("vs_sqn", horizon=10, x0=np.ones(4), record_trace=True,
                       step=ScalarSchedule("constant", 0.1))
    res = run(_GradientOf(4, np.negative), cfg)
    _assert_broke_down(res, "secant", 1)
    assert "s.y" in res.extras["breakdown"]
    assert np.array_equal(res.x_final, np.full(4, 1.1))


def test_an_interrupt_ends_the_run_interrupted_at_the_last_iterate_that_stepped():
    # sgd steps at k = 1, 2, 3 and is interrupted in its oracle call at k = 4
    calls = iter(range(3))

    def grad(x):
        if next(calls, None) is None:
            raise KeyboardInterrupt
        return x

    cfg = SolverConfig("sgd", horizon=10, x0=np.ones(3), record_trace=True,
                       step=ScalarSchedule("constant", 0.5))
    res = run(_GradientOf(3, grad), cfg)
    _assert_broke_down(res, "interrupted", 4)
    assert np.array_equal(res.x_final, np.full(3, 0.125))


def test_a_stalled_inner_prox_solve_ends_the_run_prox_stall(monkeypatch):
    monkeypatch.setattr("vsqn.smoothing._PROX_MAX_ITERS", 1)
    prob = CompositeProblem(L1Function(0.5), sc_quad(kappa=10.0))
    cfg = SolverConfig("svs_sqn_moreau", horizon=20, eta=0.1, record_trace=True,
                       step=ScalarSchedule("constant", 0.05))
    res = run(prob, cfg)
    _assert_broke_down(res, "prox-stall", 1)
    assert "residual" in res.extras["breakdown"]


def test_a_finite_iterate_whose_square_overflows_runs_on_without_a_warning():
    # x . x is inf, so the finite check falls back to the entries, which are
    # finite; a zero gradient keeps every iterate at x0
    x0 = np.array([1e200, -3e200, 0.0, 5e-324, 1.7e308])
    cfg = SolverConfig("vs_sqn", horizon=4, x0=x0,
                       step=ScalarSchedule("constant", 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(_GradientOf(5, np.zeros_like), cfg)
    assert res.termination == "horizon"
    assert np.array_equal(res.x_final, x0)


def test_stopping_rule_required():
    with pytest.raises(ConfigError):
        SolverConfig("vs_sqn")


def test_horizon_is_the_iteration_cap():
    for horizon in (1, 1_000_000, 10**12):
        assert SolverConfig("sgd", horizon=horizon).horizon == horizon
    for horizon in (None, 0):
        with pytest.raises(ConfigError) as info:
            SolverConfig("sgd", horizon=horizon)
        assert info.value.field == "horizon"


def test_iteration_cap_stops_the_run():
    res = run(sc_quad(), SolverConfig("sgd", horizon=7, seed=0))
    assert res.termination == "horizon"
    assert len(res.records) == 8


# --- generic loop behavior ------------------------------------------------------

def test_identity_memory_regime_matches_gradient_descent():
    # deterministic isotropic quadratic: every pair has y = s, so the
    # represented matrix stays the identity and the run is plain descent
    prob = quad_make(4, 1.0, "SC", RngStream(0, 1), noise_half_width=0.0)
    gamma = 0.3
    cfg = SolverConfig("vs_sqn", m=2, horizon=10,
                       batch=BatchSchedule("constant", 1),
                       step=ScalarSchedule("constant", gamma),
                       x0=np.array([1.0, 2.0, -1.0, 0.5]), seed=0)
    res = run(prob, cfg)
    x = np.array([1.0, 2.0, -1.0, 0.5])
    for _ in range(10):
        x = x - gamma * prob.true_gradient(x)
    assert np.allclose(res.x_final, x, atol=1e-12)


def test_budget_respected_within_one_iteration():
    prob = sc_quad()
    batch = BatchSchedule("geometric", 1, rate=0.8)
    cfg = SolverConfig("vs_sqn", m=3, sample_budget=5000, batch=batch,
                       step=ScalarSchedule("constant", 0.05), seed=1)
    res = run(prob, cfg)
    assert res.termination == "budget"
    below = res.records[-2]
    # the last iteration overshoots the budget by less than its own batch
    assert res.records[-1].samples_cum - 5000 < batch.eval(below.k)
    # cumulative samples first reach the budget on the final iteration
    assert res.records[-1].samples_cum >= 5000
    prev = res.records[-3] if len(res.records) > 2 else None
    if prev is not None:
        assert prev.samples_cum < 5000


def test_pairs_form_only_at_odd_iterations():
    prob = sc_quad()
    cfg = SolverConfig("vs_sqn", m=4, horizon=9,
                       batch=BatchSchedule("constant", 2),
                       step=ScalarSchedule("constant", 0.05), seed=2,
                       record_trace=True)
    res = run(prob, cfg)
    for entry in res.trace:
        for pair in entry["pairs"]:
            assert pair.formed_at % 2 == 1
    # the memory content is frozen through even iterations
    by_k = {e["k"]: [p.formed_at for p in e["pairs"]] for e in res.trace}
    for k in by_k:
        if k % 2 == 0 and k - 1 in by_k:
            assert by_k[k] == by_k[k - 1]


def test_oracle_accounting_matches_pair_cadence():
    prob = sc_quad()
    batch = BatchSchedule("geometric", 2, rate=0.7)
    cfg = SolverConfig("vs_sqn", m=3, horizon=8, batch=batch,
                       step=ScalarSchedule("constant", 0.05), seed=3)
    res = run(prob, cfg)
    samples = sum(batch.eval(k) for k in range(8))
    # pairs at odd k = 1,3,5,7 replay the previous batch twice
    replays = sum(2 * batch.eval(k - 1) for k in (1, 3, 5, 7))
    assert res.records[-1].samples_cum == samples
    # the reused step gradient still counts in grad_evals_cum
    assert res.extras["pair_grads_reused"] == 4
    assert res.records[-1].grad_evals_cum == samples + replays


def test_update_rule_fidelity_bitwise():
    # x_{k+1} must be reproducible from the logged state and replayed batch
    prob = sc_quad(seed=5)
    cfg = SolverConfig("vs_sqn", m=3, horizon=12,
                       batch=BatchSchedule("geometric", 1, rate=0.8),
                       step=ScalarSchedule("constant", 0.07), seed=5,
                       record_trace=True)
    res = run(prob, cfg)
    for before, after in zip(res.trace, res.trace[1:]):
        mem = LbfgsMemory(3)
        for pair in before["pairs"]:
            mem.push(pair)
        g = prob.batch_gradient(before["x"], prob.draw(before["handle"]))
        x_next = before["x"] - before["gamma"] * mem.apply(g)
        assert np.array_equal(x_next, after["x"])


def test_zero_steps_skip_their_pairs_and_the_run_reaches_its_horizon():
    # zero steps leave x in place and skip their pairs; the run goes on
    prob = quad_make(3, 1.0, "SC", RngStream(0, 1), noise_half_width=0.0)
    cfg = SolverConfig("vs_sqn", m=1, horizon=50,
                       batch=BatchSchedule("constant", 1),
                       step=ScalarSchedule("constant", 0.5),
                       x0=prob.x_true.copy(), seed=0)
    res = run(prob, cfg)
    assert res.termination == "horizon"
    assert np.array_equal(res.x_final, prob.x_true)
    assert res.extras["pairs_skipped"] == 25       # k = 1, 3, ..., 49


@pytest.mark.parametrize("data_seed", [1, 2])
def test_zero_feature_row_does_not_end_the_run(data_seed):
    # these c_smooth data sets hold an all-zero feature row; drawing it
    # gives a zero sample gradient and so a zero unit-batch step
    cell = next(c for c in preset_cells("c_smooth")
                if c.name == "c_smooth_sqn_unit")
    problem = build_problem(cell, data_seed)
    assert not problem.features.any(axis=1).all()
    res = run(problem, replace(cell.solver_config(0), sample_budget=2000))
    assert res.termination == "budget"
    assert len(res.records) - 1 == 2000
    assert res.extras["pairs_skipped"] > 0
    # one pair opportunity at each odd k = 3, 5, ..., 1999
    assert res.extras["pairs_formed"] + res.extras["pairs_skipped"] == 999


def test_median_descent_after_burn_in():
    gaps = []
    for seed in range(10):
        prob = sc_quad(seed=seed, n=8, kappa=20.0)
        cfg = SolverConfig("vs_sqn", m=3, sample_budget=30_000,
                           batch=BatchSchedule("geometric", 1, rate=0.9),
                           step=ScalarSchedule("constant", 0.1), seed=seed)
        res = run(prob, cfg)
        gaps.append([r.gap for r in res.records if r.gap is not None])
    rows = min(len(g) for g in gaps)
    med = [float(np.median([g[i] for g in gaps])) for i in range(rows)]
    for a, b in zip(med[3:], med[4:]):
        assert b <= a * 1.05  # non-increasing up to small wiggle


# --- scheme specifics -----------------------------------------------------------

def test_vs_sqn_default_step_is_theoretical():
    prob = sc_quad(n=5, kappa=4.0, noise=0.0)
    cfg = SolverConfig("vs_sqn", m=1, horizon=4,
                       batch=BatchSchedule("constant", 1), seed=0)
    res = run(prob, cfg)
    L, tau = prob.meta.lipschitz_L, prob.meta.tau
    lam_hi = (L * (5 + 1) / tau) ** 1
    assert res.theoretical_step == pytest.approx(1.0 / (L * lam_hi))
    assert res.used_step == res.theoretical_step


def test_svs_diminishing_schedule_logged():
    prob = L1LocationProblem(np.array([1.0, -1.0, 0.5]), noise_half_width=1.0,
                             sc_weight=1.0)
    cfg = SolverConfig("svs_sqn_diminishing", m=1, horizon=12, seed=0,
                       record_trace=True)
    res = run(prob, cfg)
    n, tau = 3, 1.0
    steps = res.records[:-1]
    assert [r.k for r in steps] == list(range(12))
    # steplength follows eta_k^2 for m=1: gamma_k = tau eta_k^2 / (n + 1)
    for r in steps:
        eta = eta_schedule_diminishing(n, tau, r.k)
        assert r.gamma_k == pytest.approx(tau * eta**2 / (n + 1))
    assert all(a.gamma_k > b.gamma_k for a, b in zip(steps, steps[1:]))
    pairs = {p.formed_at: p for e in res.trace for p in e["pairs"]}
    assert sorted(pairs) == [1, 3, 5, 7, 9, 11]
    for k, pair in pairs.items():
        assert pair.eta_used == eta_schedule_diminishing(n, tau, k)


def test_rvs_sqn_schedules_and_monotone_mu():
    prob = quad_make(6, 5.0, "C", RngStream(7, 1))
    cfg = SolverConfig("rvs_sqn", m=2, horizon=20, epsilon=0.3, seed=0,
                       record_trace=True)
    res = run(prob, cfg)
    pairs = {p.formed_at: p for e in res.trace for p in e["pairs"]}
    # the loop starts at k = 1, so pairs form at k = 3, 5, ..., 19
    assert sorted(pairs) == list(range(3, 21, 2))
    # mu changes at even k only, so a pair at odd k holds mu(k - 1)
    c = 1 - 2 * 0.3 / 3
    for k, pair in pairs.items():
        assert pair.mu_used == ScalarSchedule("power", 1.0, exponent=-c).eval(k - 1)
    mus = [pairs[k].mu_used for k in sorted(pairs)]
    assert all(a > b for a, b in zip(mus, mus[1:]))
    assert res.extras["delta_bar"] == pytest.approx(0.3 / (2 * (6 + 2)))


@pytest.mark.parametrize("epsilon", [1.5, 2.0])
def test_rvs_sqn_rejects_non_decreasing_mu_before_the_loop(epsilon):
    # mu_k = k^-(1 - 2 epsilon/3) decreases only for epsilon < 1.5
    prob = quad_make(6, 5.0, "C", RngStream(7, 1))
    cfg = SolverConfig("rvs_sqn", m=2, horizon=20, seed=0, epsilon=epsilon)
    with pytest.raises(ConfigError) as info:
        run(prob, cfg)
    assert info.value.field == "epsilon"


@pytest.mark.parametrize("eta", [0.0, -0.1, math.inf])
@pytest.mark.parametrize("scheme", ["svs_sqn_moreau", "svs_sqn_diminishing", "rsvs_sqn"])
def test_smoothed_schemes_reject_non_positive_eta(scheme, eta):
    if scheme == "svs_sqn_moreau":
        prob = CompositeProblem(L1Function(0.5), sc_quad())
    else:
        prob = L1LocationProblem(np.array([0.4, -0.8]), sc_weight=0.5)
    with pytest.raises(ConfigError) as info:
        run(prob, SolverConfig(scheme, horizon=5, eta=eta))
    assert info.value.field == "eta"


@pytest.mark.parametrize("scheme", ["sgd", "rsvs_sqn"])
def test_averaged_iterate_is_the_sequential_mean_of_its_iterates(scheme):
    K = 30
    if scheme == "sgd":
        prob = sc_quad(seed=3)
        cfg = SolverConfig("sgd", horizon=K, seed=3, record_trace=True,
                           step=ScalarSchedule("power", base=0.1, exponent=-0.5))
    else:
        prob = L1LocationProblem(np.array([0.4, -0.8]), noise_half_width=1.0)
        cfg = SolverConfig("rsvs_sqn", m=1, horizon=K, epsilon=0.1, seed=0,
                           record_trace=True)
    res = run(prob, cfg)
    total = np.zeros(prob.meta.n)
    for entry in res.trace:
        total += entry["x"]
    assert len(res.trace) == K
    assert np.array_equal(res.x_averaged, total / K)
    if scheme == "rsvs_sqn":
        assert res.extras["mu"] == pytest.approx(K ** (-1 / 3))
        assert res.extras["eta"] == pytest.approx(K ** (-1 / 3))


def test_rsvs_averaged_iterate_only_for_rsvs():
    prob = sc_quad()
    res = run(prob, SolverConfig("vs_sqn", m=1, horizon=5,
                                 batch=BatchSchedule("constant", 1),
                                 step=ScalarSchedule("constant", 0.05), seed=0))
    assert res.x_averaged is None


def test_sgd_matches_plain_descent_on_noiseless_problem():
    prob = quad_make(4, 5.0, "SC", RngStream(2, 1), noise_half_width=0.0)
    cfg = SolverConfig("sgd", horizon=40, seed=0,
                       x0=np.array([2.0, -1.0, 0.5, 1.0]))
    res = run(prob, cfg)
    L = prob.meta.lipschitz_L
    x = np.array([2.0, -1.0, 0.5, 1.0])
    for _ in range(40):
        x = x - (1.0 / L) * prob.true_gradient(x)
    assert np.allclose(res.x_final, x, atol=1e-12)
    assert res.records[-1].gap == pytest.approx(prob.true_value(x))


class _AdditiveNoiseQuadratic:
    """Strongly convex quadratic whose gradient noise persists at the
    optimum (needed to observe the 1/k floor of unit-batch runs)."""

    def __init__(self, base, sigma):
        self.base = base
        self.sigma = sigma
        self.meta = base.meta

    def draw(self, handle):
        gen = handle.generator()
        return gen.standard_normal((handle.batch, self.meta.n))

    def batch_gradient(self, x, noise, eta=None):
        extra = self.sigma * noise.mean(axis=0)
        return self.base.true_gradient(x) + extra

    def true_value(self, x):
        return self.base.true_value(x)


def test_sqn_unit_rate_close_to_one_over_k():
    # unit batches with gamma/k steplength: gap decays like 1/k
    gaps_by_seed = []
    for seed in range(8):
        base = quad_make(5, 2.0, "SC", RngStream(seed, 1), noise_half_width=0.0)
        prob = _AdditiveNoiseQuadratic(base, sigma=0.5)
        cfg = SolverConfig("sqn_unit", m=2, horizon=2000, seed=seed,
                           step=ScalarSchedule("power", base=2.0, exponent=-1.0),
                           value_every=1)
        res = run(prob, cfg)
        gaps_by_seed.append([r.gap for r in res.records[:-1]])
    ks = np.arange(1, 2001)
    med = np.median(np.array(gaps_by_seed), axis=0)
    keep = ks >= 50
    slope = np.polyfit(np.log(ks[keep]), np.log(med[keep]), 1)[0]
    assert -1.25 <= slope <= -0.75


def test_apg_beats_plain_descent_on_noiseless_quadratic():
    prob = quad_make(10, 50.0, "SC", RngStream(4, 1), noise_half_width=0.0)

    def iterations_to(scheme, tol=1e-6):
        cfg = SolverConfig(scheme, horizon=4000, seed=0,
                           batch=BatchSchedule("constant", 1),
                           x0=np.ones(10))
        res = run(prob, cfg)
        for r in res.records:
            if r.gap is not None and r.gap <= tol:
                return r.k
        return np.inf

    assert iterations_to("apg_baseline") < iterations_to("sgd")


def _apg_reference(problem, x0, batch, seed, horizon, beta_at):
    """Two-sequence accelerated gradient: z_{k+1} = x_k - g_k / L and
    x_{k+1} = z_{k+1} + beta_k (z_{k+1} - z_k); returns z and step norms."""
    gamma = 1.0 / problem.meta.lipschitz_L
    x, z = x0.copy(), x0.copy()
    rng = RngStream(seed, stream_id=0)
    step_norms = []
    for k in range(horizon):
        g = problem.batch_gradient(x, problem.draw(rng.next_handle(batch.eval(k))))
        z_next = x - gamma * g
        step_norms.append(float(np.linalg.norm(gamma * g)))
        x = z_next + beta_at(k) * (z_next - z)
        z = z_next
    return z, step_norms


def _vanishing_betas():
    betas, t = [], 1.0
    for _ in range(100):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        betas.append((t - 1.0) / t_next)
        t = t_next
    return betas


@pytest.mark.parametrize("convexity", ["SC", "C"])
def test_apg_matches_reference_loop(convexity):
    prob = quad_make(6, 25.0, convexity, RngStream(13, 1))
    if convexity == "SC":
        root = math.sqrt(prob.meta.lipschitz_L / prob.meta.tau)
        beta_at = lambda k: (root - 1.0) / (root + 1.0)
    else:
        assert prob.meta.tau is None
        betas = _vanishing_betas()
        beta_at = lambda k: betas[k]
    batch = BatchSchedule("geometric", 1, rate=0.9)
    x0 = np.linspace(-1.0, 1.0, 6)
    res = run(prob, SolverConfig("apg_baseline", horizon=40, batch=batch,
                                 x0=x0, seed=3))
    z, step_norms = _apg_reference(prob, x0, batch, 3, 40, beta_at)
    assert res.termination == "horizon"
    assert np.array_equal(res.x_final, z)
    closing = res.records[-1]
    samples = sum(batch.eval(k) for k in range(40))
    assert (closing.k, closing.samples_cum, closing.grad_evals_cum) == (
        40, samples, samples)
    assert closing.f_value == prob.true_value(z)
    assert closing.step_norm == 0.0
    assert res.records[0].f_value == prob.true_value(x0)
    assert [r.step_norm for r in res.records[:-1]] == step_norms
    assert res.extras == {"pairs_formed": 0, "pairs_skipped": 0,
                          "pair_grads_reused": 0}


def test_results_have_closing_record():
    prob = sc_quad()
    res = run(prob, SolverConfig("vs_sqn", m=1, horizon=5,
                                 batch=BatchSchedule("constant", 1),
                                 step=ScalarSchedule("constant", 0.05), seed=0))
    assert len(res.records) == 6
    assert res.records[-1].step_norm == 0.0
    assert res.records[-1].gap == pytest.approx(prob.true_value(res.x_final))


# --- curvature pairs: one draw per batch, step-gradient reuse ---------------------

def _quad_factory(convexity="SC"):
    return lambda: quad_make(6, 10.0, convexity, RngStream(11, 1))


def _location_factory(sc_weight=0.0):
    return lambda: L1LocationProblem(np.array([0.4, -0.8, 1.2]),
                                     noise_half_width=1.0, sc_weight=sc_weight)


def _composite_factory():
    return lambda: CompositeProblem(L1Function(0.5), quad_make(
        6, 10.0, "SC", RngStream(11, 1)))


def _grow(rate=0.8):
    return BatchSchedule("geometric", 2, rate=rate)


# (label, problem factory, config, pair level from a pair and the run's extras)
PAIR_CASES = [
    ("vs_sqn", _quad_factory(), SolverConfig(
        "vs_sqn", m=3, horizon=12, batch=_grow(),
        step=ScalarSchedule("constant", 0.05), seed=1, record_trace=True),
     lambda pair, extras: None),
    ("sqn_unit", _quad_factory(), SolverConfig(
        "sqn_unit", m=3, horizon=12, seed=2, record_trace=True,
        step=ScalarSchedule("power", base=0.1, exponent=-1.0)),
     lambda pair, extras: None),
    ("svs_sqn_moreau", _composite_factory(), SolverConfig(
        "svs_sqn_moreau", m=2, horizon=10, eta=0.1, batch=_grow(0.9),
        step=ScalarSchedule("constant", 0.5), seed=3, record_trace=True),
     lambda pair, extras: pair.eta_used),
    ("svs_sqn_diminishing", _location_factory(1.0), SolverConfig(
        "svs_sqn_diminishing", m=2, horizon=12, seed=4, record_trace=True),
     lambda pair, extras: pair.eta_used),
    ("rvs_sqn", _quad_factory("C"), SolverConfig(
        "rvs_sqn", m=2, horizon=12, epsilon=0.3, seed=6, record_trace=True),
     lambda pair, extras: None),
    ("rsvs_sqn_delta_lt_1", _location_factory(), SolverConfig(
        "rsvs_sqn", m=2, horizon=12, epsilon=0.1, seed=7, record_trace=True),
     lambda pair, extras: pair.eta_used ** extras["delta"]),
    ("rsvs_sqn_delta_1", _location_factory(), SolverConfig(
        "rsvs_sqn", m=2, horizon=12, epsilon=0.1, delta=1.0, seed=8,
        record_trace=True),
     lambda pair, extras: pair.eta_used ** extras["delta"]),
]

# cases whose pairs are taken at another smoothing level than the step
NO_REUSE = {"svs_sqn_diminishing", "rsvs_sqn_delta_lt_1"}


def _fresh_gradient(factory, x, handle, level):
    """Batch gradient on a fresh draw of the handle by a newly built instance."""
    problem = factory()
    return problem.batch_gradient(x, problem.draw(handle), level)


@pytest.mark.parametrize("case", PAIR_CASES, ids=[c[0] for c in PAIR_CASES])
def test_pairs_bitwise_equal_fresh_two_point_evaluation(case):
    label, factory, cfg, pair_level = case
    res = run(factory(), cfg)
    by_k = {e["k"]: e for e in res.trace}
    pairs = {p.formed_at: p for e in res.trace for p in e["pairs"]}
    assert len(pairs) >= 3
    for k, pair in pairs.items():
        x_hi, before = by_k[k]["x"], by_k[k - 1]
        level = pair_level(pair, res.extras)
        g_hi = _fresh_gradient(factory, x_hi, before["handle"], level)
        g_lo = _fresh_gradient(factory, before["x"], before["handle"], level)
        expected = collect_pair(x_hi, before["x"], g_hi, g_lo, k,
                                mu_i=pair.mu_used, eta_i=pair.eta_used,
                                delta_bar=res.extras.get("delta_bar", 1.0))
        assert np.array_equal(pair.s, expected.s), (label, k)
        assert np.array_equal(pair.y, expected.y), (label, k)
    formed = res.extras["pairs_formed"]
    assert formed == len(pairs)
    assert res.extras["pairs_skipped"] == 0
    reused = 0 if label in NO_REUSE else formed
    assert res.extras["pair_grads_reused"] == reused


@pytest.mark.parametrize("case", PAIR_CASES, ids=[c[0] for c in PAIR_CASES])
def test_one_generator_call_per_handle(case, monkeypatch):
    label, factory, cfg, _ = case
    problem = factory()   # construction draws are not counted
    calls = {}
    original = SampleHandle.generator

    def counting(handle):
        calls[handle] = calls.get(handle, 0) + 1
        return original(handle)

    monkeypatch.setattr(SampleHandle, "generator", counting)
    res = run(problem, cfg)
    steps = len(res.records) - 1
    assert len(calls) == steps, label
    assert set(calls.values()) == {1}, label


class _Held:
    """One draw of ``_WeaklyHeld``: a fresh object around the base draw."""

    def __init__(self, batch):
        self.batch = batch


class _WeaklyHeld:
    """A problem that keeps only weak references to its draws and, at each
    draw, counts how many of the earlier ones are still alive."""

    def __init__(self, base):
        self.base = base
        self.meta = base.meta
        self.held = []
        self.live_at_draw = []

    def draw(self, handle):
        self.live_at_draw.append(sum(ref() is not None for ref in self.held))
        batch = _Held(self.base.draw(handle))
        self.held.append(weakref.ref(batch))
        return batch

    def batch_gradient(self, x, held, eta=None):
        return self.base.batch_gradient(x, held.batch, eta)


@pytest.mark.parametrize("case", PAIR_CASES, ids=[c[0] for c in PAIR_CASES])
def test_at_most_one_draw_is_live(case):
    # the loop lets go of the previous step's batch before each draw, under
    # every name it had, the pair's two evaluations on it included; these
    # batches stay under one chunk, so the stream memo keeps none of them
    label, factory, cfg, _ = case
    problem = _WeaklyHeld(factory())
    res = run(problem, cfg)
    assert all(b * problem.meta.n < _DRAW_CHUNK
               for b in map(cfg.batch.eval, range(cfg.horizon + 1))), label
    assert res.extras["pairs_formed"] >= 3, label
    assert problem.live_at_draw == [0] * (len(res.records) - 1), label


def test_record_norm_equals_numpy_norm_bitwise():
    gen = np.random.default_rng(3)
    for n in (1, 2, 6, 500, 5000):
        for scale in (1e-200, 1e-3, 1.0, 1e150):
            v = gen.standard_normal(n) * scale
            assert _norm(v) == float(np.linalg.norm(v))


def test_rounding_scale_steps_skip_pairs_and_count_them():
    prob = sc_quad()
    res = run(prob, SolverConfig("vs_sqn", m=2, horizon=6,
                                 batch=BatchSchedule("constant", 2),
                                 step=ScalarSchedule("constant", 1e-30),
                                 x0=np.ones(6), seed=0))
    assert res.termination == "horizon"
    assert res.extras["pairs_formed"] == 0
    assert res.extras["pairs_skipped"] == 3        # k = 1, 3, 5
    assert res.extras["pair_grads_reused"] == 0


class _GradientOnly:
    """The minimal oracle: meta, draw and batch_gradient, nothing else."""

    def __init__(self, base):
        self.base = base
        self.meta = base.meta

    def draw(self, handle):
        return self.base.draw(handle)

    def batch_gradient(self, x, batch, eta=None):
        return self.base.batch_gradient(x, batch, eta)


# (label, problem factory, config): every pair case, and svs_sqn_moreau at
# its default eta and step, which read the composite's constants
WRAPPER_CASES = [case[:3] for case in PAIR_CASES] + [
    ("svs_sqn_moreau_defaults",
     lambda: CompositeProblem(L1Function(0.5), quad_make(10, 10.0, "SC",
                                                         RngStream(0, 1), 0.5)),
     SolverConfig("svs_sqn_moreau", m=3, horizon=20,
                  batch=BatchSchedule("geometric", 2, rate=0.9))),
]


def test_problem_with_only_batch_gradient_runs():
    # a wrapper that forwards meta, draw and batch_gradient alone runs every
    # scheme as the bare problem does, bit for bit, its theorem step too
    for label, factory, cfg in WRAPPER_CASES:
        bare = run(factory(), cfg)
        res = run(_GradientOnly(factory()), cfg)
        assert res.termination == bare.termination == "horizon", label
        assert np.array_equal(res.x_final, bare.x_final), label
        assert res.theoretical_step == bare.theoretical_step, label
        assert res.used_step == bare.used_step, label
        assert res.extras == bare.extras, label
        assert res.records[-1].f_value is None, label


def _record_rows(result):
    """Every record but its wall time, as text: repr keeps each float's bits
    and lets the closing row's nan compare equal."""
    return [repr((r.k, r.samples_cum, r.grad_evals_cum, r.f_value, r.gap,
                  r.grad_norm, r.step_norm, r.gamma_k)) for r in result.records]


@pytest.mark.parametrize("preset,name", [("sparsity", "sparsity_sgd_avg"),
                                         ("c_smooth", "c_smooth_sqn_unit")])
def test_unit_batch_run_equals_the_run_on_the_generator_path(preset, name, monkeypatch):
    # a batch-1 logistic draw comes from the stream's index block; a run
    # longer than one block must equal, bit for bit, the run whose indices
    # come from generator().integers (this also catches a numpy release
    # that changes Philox or integers)
    cell = next(c for c in preset_cells(preset) if c.name == name)
    config = replace(cell.solver_config(3), sample_budget=None,
                     horizon=_INDEX_BLOCK + 500, value_every=100)
    block = run(build_problem(cell, 3), config)
    monkeypatch.setattr(SampleHandle, "index",
                        lambda h, N: int(h.generator().integers(0, N)))
    generator = run(build_problem(cell, 3), config)
    assert _record_rows(block) == _record_rows(generator)
    assert np.array_equal(block.x_final, generator.x_final)
    if block.x_averaged is not None:
        assert np.array_equal(block.x_averaged, generator.x_averaged)


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError) as info:
        SolverConfig("sgd", horizon=5, seed=-1)
    assert info.value.field == "seed"


# --- the columnar iterate log ------------------------------------------------------


def test_iterate_log_reads_back_the_rows_it_was_given():
    rows = [IterateRecord(0, 1, 1, 2.5, 1.5, 0.25, 0.125, 0.0, 0.1),
            IterateRecord(1, 3, 7, None, None, -0.0, 5e-324, 1e-6, 0.05),
            IterateRecord(2, 2**40, 2**62, 3.0, None, 1e300, 0.0, 2.0, None),
            IterateRecord(3, 5, 9, math.nan, -math.inf, math.nan, 0.0, 3.0)]
    log = IterateLog()
    for r in rows:
        log.append(*astuple(r))
    assert len(log) == 4
    assert [repr(astuple(r)) for r in log] == [repr(astuple(r)) for r in rows]
    for got, want in zip(log, rows):
        for f in fields(IterateRecord):  # ints stay ints, None stays None
            assert type(getattr(got, f.name)) is type(getattr(want, f.name)), f.name
    assert repr(log[-1]) == repr(rows[-1]) and repr(log[-4]) == repr(rows[0])
    assert repr(log[1:3]) == repr(rows[1:3]) and repr(log[::-2]) == repr(rows[::-2])
    for i in (4, -5):
        with pytest.raises(IndexError):
            log[i]


def test_run_records_are_typed_rows():
    # value_every = 3 takes the objective at rows 0, 3, ... and the closing
    # row; the quadratic states f_star, so gap is None exactly where f_value is
    res = run(sc_quad(), SolverConfig("vs_sqn", m=2, horizon=7, batch=_grow(),
                                      step=ScalarSchedule("constant", 0.05),
                                      value_every=3))
    assert isinstance(res.records, IterateLog) and len(res.records) == 8
    assert [r.f_value is None for r in res.records] == [
        False, True, True, False, True, True, False, False]
    for r in res.records:
        assert (r.gap is None) == (r.f_value is None)
        assert all(type(v) is int for v in (r.k, r.samples_cum, r.grad_evals_cum))
        assert all(type(v) is float for v in (r.grad_norm, r.step_norm, r.wall_time))
    assert [type(r.gamma_k) for r in res.records] == [float] * 7 + [type(None)]
    assert res.used_step == res.records[0].gamma_k == 0.05


def test_iterate_log_keeps_only_the_rows_the_csv_writes(tmp_path, monkeypatch):
    # thinned as rows arrive: loop rows 0..9,999, then the row at each index
    # ceil(10^4 1.05^j) below K, j >= 1, then the closing row
    K = 50_000
    results = []

    def run_and_keep(problem, config):
        results.append(run(problem, config))
        return results[-1]

    monkeypatch.setattr(cli, "run", run_and_keep)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"problem = lewis_overton\nscheme = sgd\nhorizon = {K}\n"
                   "value_every = 7\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    marks = [m for m in (math.ceil(10_000 * 1.05**j) for j in range(1, 100)) if m < K]
    assert marks[0] == 10_500 and len(marks) == 32
    (res,) = results
    assert len(res.records) == 10_000 + len(marks) + 1
    # past the full-fidelity head every row carries the objective, whatever
    # value_every says
    assert all(r.f_value is not None for r in res.records[10_000:])
    kept = [*range(10_000), *marks, K]
    rows = read_csv(tmp_path / "lewis_overton_sgd_seed0.csv")
    assert [row["k"] for row in rows] == [1 + i for i in kept]  # sgd starts at k = 1
    assert [row["k"] for row in rows] == [r.k for r in res.records]
    summary = read_summary(tmp_path / "lewis_overton_sgd_seed0_summary.txt")
    assert summary["iterations"] == str(K) and summary["termination"] == "horizon"


@pytest.mark.parametrize("K", [9_999, 10_000, 10_001, 25_000])
def test_iterate_log_keeps_next_the_head_the_marks_and_nothing_else(K):
    # keeps_next says yes for rows 0..9,999 and the rows at ceil(10^4 1.05^j),
    # j >= 1; appending what it keeps and skipping the rest, then appending
    # the closing row, leaves exactly those rows
    log = IterateLog()
    said = []
    for i in range(K):
        said.append(log.keeps_next())
        if said[-1]:
            log.append(i, i, i, None, None, 0.5, 0.25, 0.0, 0.1)
        else:
            log.skip()
    log.append(K, K, K, 1.0, None, math.nan, 0.0, 0.0)
    marks = [m for m in (math.ceil(10_000 * 1.05**j) for j in range(1, 40)) if m < K]
    kept = [*range(min(K, 10_000)), *marks]
    assert [i for i in range(K) if said[i]] == kept
    assert [r.k for r in log] == [*kept, K]


def test_iterate_log_holds_at_most_100_bytes_a_record():
    # the record bytes of the benchmark's record_bytes: live bytes while the
    # result is held, minus those after its records are dropped
    tracemalloc.start()
    try:
        res = run(LewisOvertonProblem(), SolverConfig("sgd", horizon=20_000))
        held = tracemalloc.get_traced_memory()[0]
        count = len(res.records)
        res.records = None
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 10^4 rows, the 14 marks below 20,000 (10,500 .. 19,800) and the closing row
    assert count == FULL_FIDELITY_ROWS + 14 + 1
    assert freed / count <= 100
