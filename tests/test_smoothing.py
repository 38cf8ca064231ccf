import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsqn import smoothing
from vsqn.core import RngStream
from vsqn.harness.checks import fd_check
from vsqn.problems import quad_make
from vsqn.smoothing import (
    CompositeProxFunction,
    L1Function,
    ProxSolverError,
    check_smoothing_chain,
    eta_schedule_diminishing,
    huber_l1,
    huber_l1_grad,
    indicator_smooth,
    lse_smooth_max,
    moreau_value_grad,
    norm2_smooth,
    prox_soft_threshold,
)

TWO_TERM_A = np.array([[1.0, 0.0], [0.0, 1.0]])


# --- soft threshold ----------------------------------------------------------

def test_soft_threshold_componentwise():
    out = prox_soft_threshold(np.array([3.0, -0.5]), 1.0)
    assert np.allclose(out, [2.0, 0.0])


def test_soft_threshold_zero_is_identity():
    x = np.array([0.3, -2.0, 1.5])
    assert np.array_equal(prox_soft_threshold(x, 0.0), x)


def test_soft_threshold_dominating():
    assert prox_soft_threshold(np.array([-2.0]), 5.0)[0] == 0.0


def test_soft_threshold_matches_grid_minimization():
    # scalar prox of lam|u| at x: argmin lam|u| + (u-x)^2/2
    x, lam = 1.7, 0.6
    grid = np.linspace(-4, 4, 160001)
    best = grid[np.argmin(lam * np.abs(grid) + 0.5 * (grid - x) ** 2)]
    assert abs(prox_soft_threshold(np.array([x]), lam)[0] - best) < 1e-4


def test_soft_threshold_is_the_formula_bit_for_bit():
    # computed in place, it must stay sign(x) * max(|x| - t, 0)
    x = np.array([3.0, -0.5, 0.0, -0.0, 1e-3, -1e-3, 5e-324, -5e-324,
                  np.inf, -np.inf, np.nan, 0.7, -0.7])
    bits = lambda a: a.view(np.uint64)
    for t in (0.0, 1e-3, 0.35, 1e300):
        want = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
        assert np.array_equal(bits(prox_soft_threshold(x, t)), bits(want)), t
        assert np.array_equal(bits(L1Function(0.5).prox(x, t)),
                              bits(prox_soft_threshold(x, t * 0.5))), t


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
       st.floats(0, 10))
def test_soft_threshold_shrinks(values, threshold):
    x = np.array(values)
    out = prox_soft_threshold(x, threshold)
    assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
    assert np.all(np.sign(out) * np.sign(x) >= 0)


# --- Moreau envelope ---------------------------------------------------------

def test_moreau_l1_at_origin():
    value, grad = moreau_value_grad(L1Function(1.0), np.zeros(1), 1.0)
    assert value == 0.0
    assert grad[0] == 0.0


def test_moreau_l1_scalar_closed_form():
    # prox of |.| at x=2, eta=1 soft-thresholds to 1
    value, grad = moreau_value_grad(L1Function(1.0), np.array([2.0]), 1.0)
    assert value == pytest.approx(1.5)
    assert grad[0] == pytest.approx(1.0)
    # cross-check by direct grid minimization of |u| + (u-2)^2/2
    grid = np.linspace(-3, 3, 240001)
    assert min(np.abs(grid) + 0.5 * (grid - 2.0) ** 2) == pytest.approx(1.5, abs=1e-8)


class _Box:
    """Indicator of [-1, 1]^n: value 0 inside, prox the projection."""

    def value(self, u):
        return 0.0 if np.all(np.abs(u) <= 1.0) else math.inf

    def prox(self, x, t):
        return np.clip(x, -1.0, 1.0)


def test_moreau_indicator_inside_set():
    box = _Box()
    value, grad = moreau_value_grad(box, np.array([0.5]), 0.7)
    assert value == 0.0
    assert grad[0] == 0.0


def test_moreau_optimality_condition_l1():
    # x - u* must lie in eta * subdifferential of lam|.| at u*
    f = L1Function(0.8)
    eta = 0.5
    x = np.array([2.0, -0.1, 0.3, -4.0])
    u = f.prox(x, eta)
    r = (x - u) / eta
    for ui, ri in zip(u, r):
        if ui != 0:
            assert ri == pytest.approx(0.8 * np.sign(ui))
        else:
            assert abs(ri) <= 0.8 + 1e-12


def test_moreau_requires_positive_eta():
    with pytest.raises(ValueError):
        moreau_value_grad(L1Function(1.0), np.zeros(2), 0.0)


def test_inner_prox_solver_matches_closed_form():
    # smooth part zero: composite prox must reduce to the l1 prox
    zero = lambda u: 0.0
    zero_grad = lambda u: np.zeros_like(u)
    f = CompositeProxFunction(L1Function(1.0), zero, zero_grad,
                              lipschitz_L=1.0)
    x = np.array([2.0, -0.3, 0.9])
    u = f.prox(x, 1.0)
    assert np.allclose(u, prox_soft_threshold(x, 1.0), atol=1e-9)


def test_inner_prox_solver_budget_error(monkeypatch):
    monkeypatch.setattr("vsqn.smoothing._PROX_TOLERANCE", 1e-14)
    monkeypatch.setattr("vsqn.smoothing._PROX_MAX_ITERS", 3)
    quad = quad_make(6, 50.0, "SC", RngStream(0, 1), noise_half_width=0.0)
    f = CompositeProxFunction(
        L1Function(1.0), quad.true_value, quad.true_gradient,
        lipschitz_L=quad.meta.lipschitz_L,
    )
    with pytest.raises(ProxSolverError) as info:
        f.prox(np.full(6, 5.0), 0.5)
    assert info.value.residual > 0


def _l1_quadratic_batch(n, kappa, seed, batch):
    """An l1 weight in [0.1, 1] and the l1 composite frozen on one batch of
    a noisy quadratic."""
    quad = quad_make(n, kappa, "SC", RngStream(seed, 1), noise_half_width=0.5)
    lam = 0.1 + 0.9 * np.random.default_rng(seed).random()
    batch = quad.draw(RngStream(seed, 0).next_handle(batch))
    return quad, lam, quad.frozen_batch(batch, L1Function(lam))


@pytest.mark.parametrize("n", [2, 10, 30])
@pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("finish", [False, True])
def test_inner_prox_matches_a_long_run_reference(n, eta, finish):
    # the reference is plain proximal gradient for a fixed 5000 steps, with
    # no momentum and no stopping test: at most (1 - 1/(1 + 15 eta))^5000
    # of the start's distance is left, below double precision; with the
    # Hessian the solve may end in the Newton finish, without it it may not
    for seed in range(3):
        quad, lam, bf = _l1_quadratic_batch(n, 10.0, seed, 3)
        x = quad.x_true + np.random.default_rng(100 + seed).standard_normal(n)
        step = 1.0 / (bf.lipschitz_L + 1.0 / eta)
        ref = x.copy()
        for _ in range(5000):
            ref = prox_soft_threshold(ref - step * (bf.smooth_grad(ref) + (ref - x) / eta),
                                      step * lam)
        comp = CompositeProxFunction(L1Function(lam), bf.smooth_value, bf.smooth_grad,
                                     bf.lipschitz_L,
                                     hessian=bf.hessian if finish else None)
        u = comp.prox(x, eta)
        assert np.linalg.norm(u - ref) <= 1e-9 * (1.0 + np.linalg.norm(x)), seed


@pytest.mark.parametrize("n", [2, 10, 30])
@pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
def test_inner_prox_finish_meets_the_inner_kkt_conditions(n, eta):
    # a finish returns the point of its last gradient call, which the loop's
    # T(y) never is; at the inner minimizer u the inner gradient
    # r = grad g(u) + (u - x)/eta is -lam sign(u_i) on the support (here to
    # rounding) and at most lam in size off it
    finished = 0
    for seed in range(10):
        quad, lam, bf = _l1_quadratic_batch(n, 10.0, seed, 3)
        x = quad.x_true + np.random.default_rng(200 + seed).standard_normal(n)
        seen = []

        def grad(u, grad=bf.smooth_grad):
            seen.append(u)
            return grad(u)

        comp = CompositeProxFunction(L1Function(lam), bf.smooth_value, grad,
                                     bf.lipschitz_L, hessian=bf.hessian)
        u = comp.prox(x, eta)
        if u is not seen[-1]:
            continue
        finished += 1
        r = bf.smooth_grad(u) + (u - x) / eta
        on = u != 0
        scale = (np.linalg.norm(bf.hessian, 2) * np.linalg.norm(u)
                 + np.linalg.norm(u - x) / eta + lam)
        assert np.abs(r[on] + lam * np.sign(u[on])).max(initial=0.0) \
            <= 1e-14 * scale, seed
        assert np.abs(r[~on]).max(initial=0.0) <= lam, seed
    assert finished >= 8


def test_inner_prox_with_a_wrong_hessian_falls_back_to_the_loop():
    # Q + I in place of Q: the Newton point misses the inner minimizer, so
    # the KKT test rejects it until the loop itself is within tolerance; a
    # rejected pattern is not solved again, so the finish costs at most 2
    # gradients a distinct pattern, far from the loop's one a step
    loop_grads = extra_grads = 0
    for n, eta, seed in itertools.product((2, 10, 30), (0.01, 0.1, 1.0), range(3)):
        quad, lam, bf = _l1_quadratic_batch(n, 10.0, seed, 3)
        x = quad.x_true + np.random.default_rng(100 + seed).standard_normal(n)
        calls = 0

        def grad(u, grad=bf.smooth_grad):
            nonlocal calls
            calls += 1
            return grad(u)

        results = []
        for hessian in (None, bf.hessian + np.eye(n)):
            calls = 0
            comp = CompositeProxFunction(L1Function(lam), bf.smooth_value, grad,
                                         bf.lipschitz_L, hessian=hessian)
            results.append((comp.prox(x, eta), calls))
        (u_loop, loop), (u, wrong) = results
        assert np.linalg.norm(u - u_loop) <= 1e-9 * (1.0 + np.linalg.norm(x))
        loop_grads += loop
        extra_grads += wrong - loop
    assert extra_grads <= 0.2 * loop_grads


def _loop_prox(comp, x, eta):
    """The momentum loop alone, step for step: what a solve without the
    Newton finish computes."""
    step = 1.0 / (comp.lipschitz_L + 1.0 / eta)
    q = math.sqrt(step / eta)
    beta = (1.0 - q) / (1.0 + q)
    keep, shift = 1.0 - step / eta, (step / eta) * x
    tol = smoothing._PROX_TOLERANCE * (1.0 + math.sqrt(x @ x))
    u = y = x
    for _ in range(smoothing._PROX_MAX_ITERS):
        v = keep * y
        v += shift
        v -= step * comp.smooth_grad(y)
        u_next = comp.h.prox(v, step)
        d = u_next - y
        if math.sqrt(d @ d) / step <= tol:
            return u_next
        y = u_next - u
        y *= beta
        y += u_next
        u = u_next
    raise AssertionError("reference loop stalled")


class _DuckL1:
    """lam * |u|_1 by duck typing: l1's prox, but not an ``L1Function``,
    so the finish does not know it."""

    def __init__(self, lam):
        self.lam = lam

    def prox(self, x, t):
        return prox_soft_threshold(x, t * self.lam)


def test_inner_prox_without_a_usable_hessian_keeps_the_loops_bits():
    # without a Hessian, or with an h other than L1Function, the solve is
    # the momentum loop alone and returns its bits
    for seed in range(6):
        quad, lam, bf = _l1_quadratic_batch(10, 10.0, seed, 5)
        x = quad.x_true + np.random.default_rng(300 + seed).standard_normal(10)
        for h, hessian in ((L1Function(lam), None), (_DuckL1(lam), bf.hessian)):
            comp = CompositeProxFunction(h, bf.smooth_value, bf.smooth_grad, bf.lipschitz_L,
                                         hessian=hessian)
            for eta in (0.01, 0.1, 1.0):
                assert np.array_equal(comp.prox(x, eta), _loop_prox(comp, x, eta))


def test_inner_prox_takes_at_most_3_5_gradients_a_call():
    # sc_nonsmooth's shape: n = 10, kappa = 10, l1 weight 0.5, noise 0.5,
    # eta = 0.1, geometric batches N_k = ceil(2 / 0.9^k), and points near
    # the composite's minimizer x*, a fixed point of the mean's prox; the
    # momentum loop alone takes about 17 a call here, proximal gradient
    # without momentum about 26, and a call that finishes after its first
    # step takes 3 (the step, the Newton residual and the KKT test)
    eta, calls, proxes = 0.1, 0, 0
    for seed in range(4):
        quad = quad_make(10, 10.0, "SC", RngStream(seed, 1), noise_half_width=0.5)
        mean = CompositeProxFunction(L1Function(0.5), quad.true_value,
                                     quad.true_gradient, quad.meta.lipschitz_L)
        x_star = np.zeros(10)
        for _ in range(400):  # proximal point: contracts by 1/(1 + eta)
            x_star = mean.prox(x_star, eta)
        stream, gen = RngStream(seed, 0), np.random.default_rng(seed)
        for k in range(0, 40, 4):
            handle = stream.next_handle(math.ceil(2 * 0.9 ** -k))
            bf = quad.frozen_batch(quad.draw(handle), L1Function(0.5))

            def counted(u, grad=bf.smooth_grad):
                nonlocal calls
                calls += 1
                return grad(u)

            comp = CompositeProxFunction(L1Function(0.5), bf.smooth_value, counted,
                                         bf.lipschitz_L, hessian=bf.hessian)
            comp.prox(x_star + 0.1 * gen.standard_normal(10), eta)
            proxes += 1
    assert calls / proxes <= 3.5


def test_moreau_fixed_eta_preserves_minimizer():
    # for l1 + strongly convex quadratic, minimizing the envelope must give
    # the same point as minimizing the original composite
    quad = quad_make(5, 8.0, "SC", RngStream(21, 1), noise_half_width=0.0)
    lam = 0.4
    comp = CompositeProxFunction(
        L1Function(lam), quad.true_value, quad.true_gradient,
        lipschitz_L=quad.meta.lipschitz_L,
    )
    # proximal gradient on the composite to high precision
    L = quad.meta.lipschitz_L
    x = np.zeros(5)
    for _ in range(60000):
        x = prox_soft_threshold(x - quad.true_gradient(x) / L, lam / L)
    # gradient descent on the envelope (1/eta-smooth)
    eta = 0.2
    y = np.zeros(5)
    for _ in range(8000):
        _, g = moreau_value_grad(comp, y, eta)
        y = y - eta * g
    assert np.linalg.norm(x - y) < 1e-8


# --- log-sum-exp max ---------------------------------------------------------

def test_lse_symmetric_zero():
    value, grad = lse_smooth_max(TWO_TERM_A, np.zeros(2), np.zeros(2), 1.0)
    assert value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grad, [0.5, 0.5])


def test_lse_sharp_limit():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = np.array([10.0, 0.0])
    value, grad = lse_smooth_max(A, np.zeros(2), x, 0.01)
    exact = 10.0 + 0.01 * math.log((1.0 + math.exp(-1000.0)) / 2.0)
    assert value == pytest.approx(exact, abs=1e-12)
    assert np.allclose(grad, A[0], atol=1e-12)


def test_lse_overflow_safe():
    value, grad = lse_smooth_max(TWO_TERM_A, np.zeros(2),
                                 np.array([1e6, -1e6]), 1e-4)
    assert np.isfinite(value) and np.all(np.isfinite(grad))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=2),
       st.floats(0.01, 5.0))
def test_lse_sandwich(z, eta):
    x = np.array(z)
    value, _ = lse_smooth_max(TWO_TERM_A, np.zeros(2), x, eta)
    top = max(z)
    assert top - eta * math.log(2) - 1e-9 <= value <= top + 1e-9


def test_lse_needs_two_terms():
    with pytest.raises(ValueError):
        lse_smooth_max(np.array([[1.0, 0.0]]), np.zeros(1), np.zeros(2), 1.0)


# --- Huber and norm smoothing ------------------------------------------------

def test_huber_zero():
    value, grad = huber_l1(np.zeros(3), 1.0)
    assert value == 0.0
    assert np.all(grad == 0)


def test_huber_branch_boundary_consistent():
    eta = 0.7
    value, grad = huber_l1(np.array([eta]), eta)
    assert value == pytest.approx(eta / 2)
    assert grad[0] == pytest.approx(1.0)


def test_huber_linear_branch():
    value, grad = huber_l1(np.array([3.0]), 1.0)
    assert value == pytest.approx(2.5)
    assert grad[0] == pytest.approx(1.0)


def _piecewise_huber_grad(x, eta):
    return np.where(np.abs(x) <= eta, x / eta, np.sign(x))


@settings(max_examples=100, deadline=None)
@given(
    x=st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=8),
    eta=st.floats(min_value=1e-300, max_value=1e300),
)
def test_huber_grad_is_the_piecewise_formula_bitwise(x, eta):
    x = np.array(x + [eta, -eta, np.nextafter(eta, 0.0), np.nextafter(eta, np.inf),
                      -np.nextafter(eta, np.inf), 0.0, -0.0])
    with np.errstate(over="ignore"):     # x/eta may overflow to +-inf
        got, want = huber_l1_grad(x, eta), _piecewise_huber_grad(x, eta)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_huber_grad_propagates_nan():
    got = huber_l1_grad(np.array([np.nan, 1.0]), 0.5)
    assert np.isnan(got[0]) and got[1] == 1.0


def test_norm2_zero_and_unit():
    value, grad = norm2_smooth(np.zeros(3), 1.0)
    assert value == 0.0 and np.all(grad == 0)
    x = np.array([1.0, 0.0])
    value, grad = norm2_smooth(x, 1.0)
    assert value == pytest.approx(math.sqrt(2) - 1)
    assert np.linalg.norm(grad) == pytest.approx(1 / math.sqrt(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=1, max_size=5),
       st.floats(0.01, 3.0))
def test_norm2_sandwich(values, eta):
    x = np.array(values)
    value, _ = norm2_smooth(x, eta)
    norm = np.linalg.norm(x)
    assert norm - eta - 1e-9 <= value <= norm + 1e-12


# --- indicator smoothing -----------------------------------------------------

def test_indicator_smooth_inside():
    value, grad = indicator_smooth(np.array([-1.0]), lambda x: np.minimum(x, 0.0), 1.0)
    assert value == 0.0 and grad[0] == 0.0


def test_indicator_smooth_halfline():
    value, grad = indicator_smooth(np.array([3.0]), lambda x: np.minimum(x, 0.0), 1.0)
    assert value == pytest.approx(4.5)
    assert grad[0] == pytest.approx(3.0)


def test_indicator_smooth_fd():
    project = lambda x: np.minimum(x, 0.0)
    gen = np.random.default_rng(0)
    points = [gen.uniform(0.5, 3.0, size=3) for _ in range(20)]
    report = fd_check(lambda x: indicator_smooth(x, project, 0.7), points)
    assert report.passed, report


# --- schedules and chain inequality ------------------------------------------

def test_eta_diminishing_values():
    assert eta_schedule_diminishing(1, 2.0, 0) == pytest.approx(1.0)
    v6 = eta_schedule_diminishing(1, 2.0, 6)
    assert v6 == pytest.approx((8.0 / 32.0) ** (1 / 3))


def test_eta_diminishing_monotone():
    values = [eta_schedule_diminishing(4, 1.5, k) for k in range(40)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_chain_norm2_zero_violations():
    gen = np.random.default_rng(1)
    points = [gen.standard_normal(4) * 3 for _ in range(1000)]
    report = check_smoothing_chain(
        (lambda x: norm2_smooth(x, 1.0)[0], lambda x: norm2_smooth(x, 0.5)[0]),
        1.0, 0.5, B=1.0, points=points)
    assert report.passed and report.points_checked == 1000


def test_chain_lse_zero_violations():
    gen = np.random.default_rng(2)
    points = [gen.standard_normal(2) * 5 for _ in range(1000)]
    pair = (lambda x: lse_smooth_max(TWO_TERM_A, np.zeros(2), x, 1.0)[0],
            lambda x: lse_smooth_max(TWO_TERM_A, np.zeros(2), x, 0.5)[0])
    report = check_smoothing_chain(pair, 1.0, 0.5, B=1.0, points=points)
    assert report.passed


def test_chain_equal_levels_trivially_pass():
    gen = np.random.default_rng(3)
    points = [gen.standard_normal(3) for _ in range(50)]
    pair = (lambda x: norm2_smooth(x, 0.8)[0], lambda x: norm2_smooth(x, 0.8)[0])
    report = check_smoothing_chain(pair, 0.8, 0.8, B=1.0, points=points)
    assert report.passed


def test_chain_rejects_increasing_levels():
    with pytest.raises(ValueError):
        check_smoothing_chain((None, None), 0.5, 1.0, 1.0, [])


# --- smoothing constants ------------------------------------------------------

# view: (eta, beta, dimension, value and gradient of the eta-smoothed
# function), checked against f_eta <= f <= f_eta + eta*beta
@pytest.mark.parametrize("view,original", [
    ((0.3, 1.0, 4, lambda x: norm2_smooth(x, 0.3)), lambda x: np.linalg.norm(x)),
    ((0.3, 4 / 2, 4, lambda x: huber_l1(x, 0.3)), lambda x: np.sum(np.abs(x))),
    ((0.3, math.log(2), 2, lambda x: lse_smooth_max(TWO_TERM_A, np.zeros(2), x, 0.3)),
     lambda x: max(x[0], x[1])),
])
def test_view_sandwich_and_gradient(view, original):
    eta, beta, dim, value_grad = view
    gen = np.random.default_rng(7)
    for _ in range(200):
        x = gen.standard_normal(dim) * 2
        v = value_grad(x)[0]
        f = original(x)
        assert v <= f + 1e-12
        assert f <= v + eta * beta + 1e-12
    points = [gen.standard_normal(dim) * 2 + 0.31 for _ in range(25)]
    report = fd_check(value_grad, points)
    assert report.passed, report


def test_view_gradient_lipschitz_certificate():
    # the norm smoother's gradient is (alpha/eta)-Lipschitz with alpha = 1
    eta = 0.25
    gen = np.random.default_rng(9)
    bound = 1.0 / eta
    for _ in range(300):
        x, y = gen.standard_normal(3), gen.standard_normal(3)
        lhs = np.linalg.norm(norm2_smooth(x, eta)[1] - norm2_smooth(y, eta)[1])
        assert lhs <= bound * np.linalg.norm(x - y) + 1e-12
