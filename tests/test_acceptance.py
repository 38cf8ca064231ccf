"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS line.  Everything is seeded, so outcomes are exactly
reproducible.  Desk-scale note: solver steplengths here are tuned override
values (recorded next to the theoretical defaults by the harness); scheme
structure, schedules, and certificates follow the shipped defaults.
"""

import itertools
import math
import time

import numpy as np
import pytest

from vsqn.core import BatchSchedule, RngStream, ScalarSchedule
from vsqn.harness.checks import fd_check, rate_fit, sparsity_count
from vsqn.harness.cli import main as cli_main
from vsqn.harness.logs import read_csv
from vsqn.hessian import (
    LbfgsMemory,
    collect_pair,
    materialize_dense,
    materialize_inverse,
    theoretical_bounds,
    verify_secant,
)
from vsqn.problems import (
    CompositeProblem,
    L1LocationProblem,
    LEWIS_OVERTON_OPT,
    LewisOvertonProblem,
    lewis_overton_oracle,
    make_isotonic,
    make_synthetic_sparse_logistic,
    pava_project,
    quad_make,
)
from vsqn.smoothing import (
    L1Function,
    check_smoothing_chain,
    huber_l1,
    indicator_smooth,
    lse_smooth_max,
    moreau_value_grad,
    norm2_smooth,
    prox_soft_threshold,
)
from vsqn.solvers import SolverConfig, run


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def random_walk_pairs(problem, gen, rng, count, grad, mode="SC", mus=None,
                      etas=None, delta_bar=1.0, m=3):
    """Fill a memory from a random walk with fresh replayable batches."""
    mem = LbfgsMemory(m)
    x = gen.standard_normal(problem.meta.n)
    for i in range(count):
        handle = rng.next_handle(int(gen.integers(1, 6)))
        x_new = x + 0.5 * gen.standard_normal(x.size)
        kwargs = {}
        if mode == "C":
            kwargs = {"mu_i": mus[i], "delta_bar": delta_bar}
            if etas is not None:
                kwargs["eta_i"] = etas[i]
        mem.push(collect_pair(x_new, x, grad(x_new, handle, i),
                              grad(x, handle, i), 2 * i + 1, **kwargs))
        x = x_new
    return mem


# -- 1 ------------------------------------------------------------------------

def test_criterion_1_secant_certificates():
    t0 = time.time()
    checked = 0
    for seed in range(200):
        gen = np.random.default_rng(seed)
        rng = RngStream(seed, 3)
        n = int(gen.integers(2, 11))
        m = int(gen.integers(1, 4))
        if seed % 2 == 0:
            prob = quad_make(n, float(gen.uniform(2, 50)), "SC",
                             RngStream(seed, 1), noise_half_width=0.4)
            grad = lambda x, h, i: prob.batch_gradient(x, h)
            mem = random_walk_pairs(prob, gen, rng, m + 2, grad, m=m)
        else:
            prob = quad_make(n, float(gen.uniform(2, 50)), "C",
                             RngStream(seed, 1), noise_half_width=0.4)
            mus = [1.0 * (i + 1) ** -0.9 for i in range(m + 2)]
            grad = lambda x, h, i: prob.batch_gradient(x, h)
            mem = random_walk_pairs(prob, gen, rng, m + 2, grad, mode="C",
                                    mus=mus, delta_bar=0.5, m=m)
        assert all(p.sy > 0 for p in mem.pairs)
        cert = verify_secant(mem)
        assert cert.passed, (seed, cert.rel_residual)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, f"{checked} problems, all pairs s.y>0 and newest-secant "
              f"residual <= 1e-9 ({elapsed:.1f}s)")


# -- 2 ------------------------------------------------------------------------

def test_criterion_2_eigenvalue_certificates():
    t0 = time.time()
    total = 0
    for regime in ("SC-smooth", "SC-Moreau", "C-smooth", "C-smoothed"):
        for seed in range(100):
            gen = np.random.default_rng(10_000 + seed)
            rng = RngStream(seed, 4)
            n = int(gen.integers(4, 11))
            m = int(gen.integers(1, 4))
            mus = [1.0 * (i + 1) ** -0.8 for i in range(m + 2)]
            etas = [1.0 * (i + 1) ** -0.5 for i in range(m + 2)]
            delta = delta_bar = 0.5
            if regime == "SC-smooth":
                prob = quad_make(n, float(gen.uniform(2, 30)), "SC",
                                 RngStream(seed, 1), 0.3)
                grad = lambda x, h, i: prob.batch_gradient(x, h)
                mem = random_walk_pairs(prob, gen, rng, m + 2, grad, m=m)
                bounds = theoretical_bounds(regime, m=m, n=n, L=prob.sample_L,
                                            tau=prob.sample_tau)
            elif regime == "SC-Moreau":
                quad = quad_make(n, float(gen.uniform(2, 20)), "SC",
                                 RngStream(seed, 1), 0.3)
                prob = CompositeProblem(L1Function(0.5), quad)
                eta = float(gen.uniform(0.05, 0.5))
                grad = lambda x, h, i: prob.batch_gradient(x, h, eta)
                mem = random_walk_pairs(prob, gen, rng, m + 2, grad, m=m)
                bounds = theoretical_bounds(regime, m=m, n=n, eta_k=eta,
                                            tau=prob.sample_tau)
            elif regime == "C-smooth":
                prob = quad_make(n, float(gen.uniform(2, 30)), "C",
                                 RngStream(seed, 1), 0.3)
                grad = lambda x, h, i: prob.batch_gradient(x, h)
                mem = random_walk_pairs(prob, gen, rng, m + 2, grad, mode="C",
                                        mus=mus, delta_bar=delta_bar, m=m)
                bounds = theoretical_bounds(regime, m=m, n=n, L=prob.sample_L,
                                            mu0=mus[0], mu_k=mus[m + 1],
                                            delta_bar=delta_bar)
            else:
                prob = L1LocationProblem(gen.uniform(-1, 1, n), 1.0)
                grad = lambda x, h, i: prob.batch_gradient(
                    x, h, etas[i] ** delta)
                mem = random_walk_pairs(prob, gen, rng, m + 2, grad, mode="C",
                                        mus=mus, etas=etas,
                                        delta_bar=delta_bar, m=m)
                bounds = theoretical_bounds(regime, m=m, n=n,
                                            eta_k=etas[m + 1], mu0=mus[0],
                                            mu_k=mus[m + 1], delta=delta,
                                            delta_bar=delta_bar)
            eigs = np.linalg.eigvalsh(materialize_dense(mem, n))
            assert eigs[0] >= bounds.lambda_lo * (1 - 1e-9), (regime, seed)
            assert eigs[-1] <= bounds.lambda_hi * (1 + 1e-9), (regime, seed)
            total += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"eigenvalues inside the lemma envelopes for {total} memories "
              f"across 4 regimes ({elapsed:.1f}s)")


# -- 3 ------------------------------------------------------------------------

def test_criterion_3_two_loop_vs_dense_and_inverse():
    t0 = time.time()
    gen = np.random.default_rng(77)
    for trial in range(100):
        m = int(gen.integers(1, 6))
        n = int(gen.integers(2, 51))
        mem = LbfgsMemory(m)
        for i in range(m):
            root = gen.standard_normal((n, n))
            spd = root @ root.T + np.eye(n)
            s = gen.standard_normal(n)
            mem.push(collect_pair(s, np.zeros(n), spd @ s, np.zeros(n),
                                  2 * i + 1))
        H = materialize_dense(mem, n)
        B = materialize_inverse(mem, n)
        v = gen.standard_normal(n)
        hv = H @ v
        rel = np.linalg.norm(mem.apply(v) - hv) / max(np.linalg.norm(hv), 1e-300)
        assert rel <= 1e-10
        assert np.linalg.norm(H @ B - np.eye(n)) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(3, f"100 memories: two-loop within 1e-10 of dense, H B = I within "
              f"1e-8 ({elapsed:.1f}s)")


# -- 4 ------------------------------------------------------------------------

def test_criterion_4_gradient_suites():
    t0 = time.time()
    gen = np.random.default_rng(5)
    halfline = lambda x: np.minimum(x, 0.0)
    A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]])
    moreau_l1 = L1Function(0.7)

    suites = {
        "norm2": (lambda x: norm2_smooth(x, 0.3),
                  lambda: gen.standard_normal(4) + 0.2),
        "lse": (lambda x: lse_smooth_max(A, np.zeros(3), x, 0.2),
                lambda: gen.standard_normal(3)),
        "huber": (lambda x: huber_l1(x, 0.5),
                  lambda: gen.standard_normal(4) * 3 + 0.511),
        "moreau_l1": (lambda x: moreau_value_grad(moreau_l1, x, 0.4),
                      lambda: gen.standard_normal(4) * 2 + 0.13),
        "indicator": (lambda x: indicator_smooth(x, halfline, 0.3),
                      lambda: gen.uniform(0.5, 2.5, size=4)),
    }

    quad = quad_make(6, 12.0, "SC", RngStream(0, 1), 0.4)
    suites["quadratic"] = (
        lambda x: (quad.true_value(x), quad.true_gradient(x)),
        lambda: gen.standard_normal(6) * 2,
    )
    from vsqn.problems import LogisticProblem
    X = gen.standard_normal((40, 5))
    labels = np.where(gen.random(40) < 0.5, 1.0, -1.0)
    logistic = LogisticProblem(X, labels, mu_l2=0.05, lambda_l1=0.03,
                               l1_smoothing="huber", l1_eta=0.2)
    suites["logistic"] = (
        lambda x: (logistic.true_value(x), logistic.full_gradient(x)),
        lambda: gen.standard_normal(5) + 0.21,
    )
    iso_eta = 0.05
    suites["isotonic_penalty"] = (
        lambda x: ((lambda d: (float(d @ d) / (2 * iso_eta), d / iso_eta))
                   (x - pava_project(x))),
        lambda: np.sort(gen.standard_normal(5))[::-1] * 2,
    )
    suites["benchmark_2d"] = (
        lambda x: lewis_overton_oracle(x, 0.1),
        lambda: gen.uniform(-2, 2, size=2),
    )

    for name, (value_grad, draw) in suites.items():
        points = [draw() for _ in range(50)]
        rep = fd_check(value_grad, points)
        assert rep.passed, (name, rep.max_rel_err)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(4, f"{len(suites)} oracles pass central differences at 1e-5 over "
              f"50 jittered points each ({elapsed:.1f}s)")


# -- 5 ------------------------------------------------------------------------

def test_criterion_5_smoothing_inequalities():
    t0 = time.time()
    gen = np.random.default_rng(6)
    A2 = np.eye(2)
    pts4 = [gen.standard_normal(4) * 3 for _ in range(1000)]
    pts2 = [gen.standard_normal(2) * 5 for _ in range(1000)]

    worst = 0.0
    for x in pts4:
        v, _ = norm2_smooth(x, 0.4)
        f = np.linalg.norm(x)
        worst = max(worst, v - f, f - (v + 0.4 * 1.0))
    for x in pts2:
        v, _ = lse_smooth_max(A2, np.zeros(2), x, 0.4)
        f = max(x)
        worst = max(worst, v - f, f - (v + 0.4 * math.log(2)))
    assert worst <= 1e-12

    chain_norm = check_smoothing_chain(
        (lambda x: norm2_smooth(x, 1.0)[0], lambda x: norm2_smooth(x, 0.5)[0]),
        1.0, 0.5, B=1.0, points=pts4)
    chain_lse = check_smoothing_chain(
        (lambda x: lse_smooth_max(A2, np.zeros(2), x, 1.0)[0],
         lambda x: lse_smooth_max(A2, np.zeros(2), x, 0.5)[0]),
        1.0, 0.5, B=1.0, points=pts2)
    assert chain_norm.passed and chain_lse.passed
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(5, f"sandwich and chain inequalities: zero violations over 1000 "
              f"points per smoother ({elapsed:.1f}s)")


# -- 6 ------------------------------------------------------------------------

def test_criterion_6_vs_sqn_linear_rate():
    t0 = time.time()
    rel_gaps, slopes, r2s = [], [], []
    for seed in range(5):
        prob = quad_make(20, 100.0, "SC", RngStream(seed, 1), noise_half_width=0.5)
        cfg = SolverConfig("vs_sqn", m=5, sample_budget=1_000_000,
                           batch=BatchSchedule("geometric", 1, rate=0.95),
                           step=ScalarSchedule("constant", 0.1), seed=seed)
        res = run(prob, cfg)
        pts = [(r.k, r.gap) for r in res.records if r.gap is not None and r.gap > 0]
        fit = rate_fit([p[0] for p in pts], [p[1] for p in pts], "linear_in_k")
        slopes.append(fit.slope)
        r2s.append(fit.r_squared)
        rel_gaps.append(res.records[-1].gap / res.records[0].gap)
    assert max(slopes) < 0
    assert min(r2s) >= 0.9
    assert np.median(rel_gaps) <= 1e-5
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(6, f"log-gap slope {np.median(slopes):+.3f} (R2 >= "
              f"{min(r2s):.3f}), median final/initial gap "
              f"{np.median(rel_gaps):.2e} <= 1e-5 ({elapsed:.1f}s)")


# -- 7 ------------------------------------------------------------------------

def _prox_gradient_reference(quad, lam, iters=30000):
    """Independent oracle: accelerated proximal gradient on the exact
    composite, run to far beyond the tested tolerance."""
    L, tau = quad.meta.lipschitz_L, quad.meta.tau
    x = np.zeros(quad.meta.n)
    z = x.copy()
    q = math.sqrt(tau / L)
    beta = (1 - q) / (1 + q)
    for _ in range(iters):
        g = quad.true_gradient(z)
        x_new = prox_soft_threshold(z - g / L, lam / L)
        z = x_new + beta * (x_new - x)
        x = x_new
    return x


def test_criterion_7_moreau_scheme_accuracy_and_rate():
    t0 = time.time()
    lam, burn_in = 0.5, 15
    errs, gap_rows = [], []
    for seed in range(20):
        quad = quad_make(10, 10.0, "SC", RngStream(seed, 1), noise_half_width=0.2)
        prob = CompositeProblem(L1Function(lam), quad)
        x_ref = _prox_gradient_reference(quad, lam)
        f_ref = prob.true_value(x_ref)
        cfg = SolverConfig("svs_sqn_moreau", m=3, sample_budget=3_000_000,
                           batch=BatchSchedule("geometric", 2, rate=0.9),
                           eta=0.12, step=ScalarSchedule("constant", 0.3),
                           seed=seed)
        res = run(prob, cfg)
        errs.append(float(np.linalg.norm(res.x_final - x_ref)))
        gap_rows.append([max(r.f_value - f_ref, 0.0) for r in res.records
                         if r.f_value is not None])
    assert max(errs) <= 1e-4, max(errs)
    rows = min(len(g) for g in gap_rows)
    mean_gap = np.array([np.mean([g[i] for g in gap_rows]) for i in range(rows)])
    ks = np.arange(rows)
    keep = ks >= burn_in  # identity-preconditioner burn-in excluded
    fit = rate_fit(ks[keep], mean_gap[keep], "linear_in_k")
    assert fit.slope < 0
    assert fit.r_squared >= 0.9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(7, f"max |x - x*| = {max(errs):.2e} <= 1e-4; seed-averaged "
              f"log-gap slope {fit.slope:+.4f}, R2 = {fit.r_squared:.3f} "
              f"({elapsed:.1f}s)")


# -- 8 ------------------------------------------------------------------------

def test_criterion_8_sublinear_rates():
    t0 = time.time()
    K = 240
    ratios_rvs = []
    for seed in range(5):
        prob = quad_make(20, 10.0, "C", RngStream(seed, 1), noise_half_width=0.5)
        cfg = SolverConfig("rvs_sqn", m=5, horizon=K, epsilon=0.1, seed=seed)
        res = run(prob, cfg)
        gap = {r.k: r.gap for r in res.records if r.gap is not None}
        ratios_rvs.append(gap[K] / gap[K // 2])
    assert np.median(ratios_rvs) <= 0.75

    K2 = 600
    ratios_rsvs = []
    for seed in range(5):
        gen = RngStream(seed, 1).generator()
        prob = L1LocationProblem(gen.uniform(-2, 2, size=10), noise_half_width=1.0)
        gaps = {}
        for horizon in (K2 // 2, K2):
            cfg = SolverConfig("rsvs_sqn", m=3, horizon=horizon, epsilon=0.1,
                               c_gamma=0.5, seed=seed)
            out = run(prob, cfg)
            gaps[horizon] = prob.true_value(out.x_averaged) - prob.meta.f_star
        ratios_rsvs.append(gaps[K2] / gaps[K2 // 2])
    assert np.median(ratios_rsvs) <= 0.85
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(8, f"gap(K)/gap(K/2): regularized {np.median(ratios_rvs):.3f} <= "
              f"0.75; regularized-smoothed {np.median(ratios_rsvs):.3f} <= "
              f"0.85 ({elapsed:.1f}s)")


# -- 9 ------------------------------------------------------------------------

def test_criterion_9_nonsmooth_benchmark_all_starts():
    t0 = time.time()
    starts = [np.array([math.cos(t), math.sin(t)])
              for t in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    starts.append(np.array([2.0, 2.0]))
    dists = []
    for x0 in starts:
        prob = LewisOvertonProblem(eta=0.05)
        cfg = SolverConfig("vs_sqn", m=5, horizon=500,
                           batch=BatchSchedule("constant", 1),
                           step=ScalarSchedule("constant", 0.5),
                           x0=x0, seed=0, value_every=10)
        res = run(prob, cfg)
        dists.append(float(np.linalg.norm(res.x_final - LEWIS_OVERTON_OPT)))
    assert max(dists) <= 1e-2
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(9, f"9 starting points converge to the known optimum; worst "
              f"distance {max(dists):.2e} <= 1e-2 ({elapsed:.1f}s)")


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_ill_conditioning_ordering():
    t0 = time.time()
    budget = 2_000_000
    batch = BatchSchedule("geometric", 1, rate=0.98)
    ramp = ScalarSchedule("power", base=1e-5, exponent=1.5, offset=1)
    finals = {"m1": [], "m10": [], "apg": []}
    for seed in range(5):
        prob = quad_make(20, 1e5, "SC", RngStream(seed, 1), noise_half_width=0.5)
        for key, scheme, kw in (
            ("m1", "vs_sqn", {"m": 1, "step": ramp}),
            ("m10", "vs_sqn", {"m": 10, "step": ramp}),
            ("apg", "apg_baseline", {}),
        ):
            cfg = SolverConfig(scheme, sample_budget=budget, batch=batch,
                               seed=seed, value_every=25, **kw)
            finals[key].append(run(prob, cfg).final_gap)
    med = {k: float(np.median(v)) for k, v in finals.items()}
    assert med["m10"] <= med["m1"] <= med["apg"]
    elapsed = time.time() - t0
    assert elapsed < 180.0
    report(10, f"median final gaps ordered: m=10 ({med['m10']:.2e}) <= m=1 "
               f"({med['m1']:.2e}) <= accelerated baseline ({med['apg']:.2e}) "
               f"({elapsed:.1f}s)")


# -- 11 -----------------------------------------------------------------------

def test_criterion_11_sparsity_ordering():
    t0 = time.time()
    budget = 100_000
    qn_counts, sgd_counts = [], []
    for seed in range(5):
        prob, _ = make_synthetic_sparse_logistic(
            500, 1500, RngStream(seed, 1), support_frac=0.1, density=0.02,
            lambda_l1=0.05, l1_smoothing="huber", l1_eta=1e-3)
        qn = run(prob, SolverConfig(
            "rvs_sqn", m=5, sample_budget=budget, epsilon=0.1,
            step=ScalarSchedule("power", base=0.5, exponent=-0.1),
            seed=seed, value_every=50))
        qn_counts.append(sparsity_count(qn.x_final))
        sgd = run(prob, SolverConfig(
            "sgd", sample_budget=budget,
            step=ScalarSchedule("power", base=0.5, exponent=-0.5),
            average_iterates=True, seed=seed, value_every=20_000))
        sgd_counts.append(sparsity_count(sgd.x_averaged))
    assert np.median(qn_counts) > np.median(sgd_counts)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(11, f"median near-zero counts: quasi-Newton "
               f"{np.median(qn_counts):.0f} > averaged unit-batch descent "
               f"{np.median(sgd_counts):.0f} (n=500) ({elapsed:.1f}s)")


# -- 12 -----------------------------------------------------------------------

def _brute_force_monotone_projection(x):
    n = len(x)
    best, best_dist = None, np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        out = np.empty(n)
        start = 0
        boundaries = [i + 1 for i, c in enumerate(cuts) if c] + [n]
        means = []
        for end in boundaries:
            means.append(np.mean(x[start:end]))
            out[start:end] = means[-1]
            start = end
        if all(a <= b + 1e-12 for a, b in zip(means, means[1:])):
            dist = np.sum((out - x) ** 2)
            if dist < best_dist:
                best, best_dist = out, dist
    return best


def test_criterion_12_isotonic():
    t0 = time.time()
    gen = np.random.default_rng(9)
    checked = 0
    for n in range(2, 7):
        magnitudes = gen.uniform(0.5, 3.0, size=n)
        for signs in itertools.product([-1.0, 1.0], repeat=n):
            x = np.array(signs) * magnitudes
            brute = _brute_force_monotone_projection(x)
            assert np.linalg.norm(pava_project(x) - brute) <= 1e-8
            checked += 1

    violations, progress = [], []
    for seed in range(3):
        prob = make_isotonic(12, 24, RngStream(seed, 1), eta=1e-4)
        cfg = SolverConfig("rsvs_sqn", m=5, horizon=600, epsilon=0.1,
                           eta=1e-4, delta=1.0, delta_bar=1.0,
                           step=ScalarSchedule("constant", 0.05),
                           batch=BatchSchedule("polynomial", N0=2,
                                               exponent=1.1, offset=1),
                           seed=seed, value_every=5)
        res = run(prob, cfg)
        violations.append(prob.violation(res.x_final))
        values = [r.f_value for r in res.records if r.f_value is not None]
        best = np.minimum.accumulate(values)
        assert np.all(np.diff(best) <= 0.0)
        progress.append(best[-1] / values[0])
    assert max(violations) <= 1e-3
    assert max(progress) < 0.01
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(12, f"projection matches brute force on {checked} sign patterns; "
               f"worst final violation {max(violations):.2e} <= 1e-3, "
               f"objective reduced by >99% ({elapsed:.1f}s)")


# -- 13 -----------------------------------------------------------------------

def test_criterion_13_determinism(tmp_path):
    t0 = time.time()

    def strip_wall(path):
        return ["\x1f".join(line.split(",")[:-1])
                for line in path.read_text().splitlines()]

    for preset in ("lewis_overton", "isotonic"):
        out1, out2 = tmp_path / f"{preset}_a", tmp_path / f"{preset}_b"
        assert cli_main(["run", "--preset", preset, "--out", str(out1)]) == 0
        assert cli_main(["run", "--preset", preset, "--out", str(out2)]) == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert strip_wall(out1 / name) == strip_wall(out2 / name), name
    elapsed = time.time() - t0
    report(13, f"preset reruns byte-identical outside the wall-clock column "
               f"({elapsed:.1f}s)")
