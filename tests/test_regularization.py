import numpy as np
import pytest

from vsqn.core import RngStream, ScalarSchedule
from vsqn.problems import quad_make
from vsqn.regularization import (
    AlternationError,
    AlternationState,
    alternation_step,
)


def test_strong_convexity_transfer():
    # a convex base plus mu (x - x0), the regularized schemes' step term,
    # is mu-strongly monotone
    quad = quad_make(5, 3.0, "C", RngStream(1, 1), noise_half_width=0.0)
    mu = 0.4
    x0 = np.full(5, 0.5)
    gen = np.random.default_rng(0)
    for _ in range(100):
        x, y = gen.standard_normal(5), gen.standard_normal(5)
        gx = quad.true_gradient(x) + mu * (x - x0)
        gy = quad.true_gradient(y) + mu * (y - x0)
        assert (gx - gy) @ (x - y) >= mu * np.sum((x - y) ** 2) - 1e-10


def test_gradient_bounds_around_regularized_optimum():
    # 2 mu (f_mu(x) - f_mu(x*)) <= |grad f_mu(x)|^2 <= 2 (L + mu) (...),
    # with the regularized minimizer known in closed form for quadratics
    quad = quad_make(4, 5.0, "SC", RngStream(3, 1), noise_half_width=0.0)
    mu = 0.7
    x0 = np.full(4, 0.5)
    A = quad.frame @ np.diag(quad.eigs) @ quad.frame.T
    L = quad.meta.lipschitz_L
    x_star_mu = np.linalg.solve(A + mu * np.eye(4), A @ quad.x_true + mu * x0)

    def f_mu(x):
        return quad.true_value(x) + 0.5 * mu * np.sum((x - x0) ** 2)

    def grad_mu(x):
        return quad.true_gradient(x) + mu * (x - x0)

    gen = np.random.default_rng(5)
    fm_star = f_mu(x_star_mu)
    for _ in range(100):
        x = gen.standard_normal(4) * 2
        gap = f_mu(x) - fm_star
        g2 = float(grad_mu(x) @ grad_mu(x))
        assert 2 * mu * gap <= g2 + 1e-9
        assert g2 <= 2 * (L + mu) * gap + 1e-9


def test_alternation_holds_at_odd():
    state = AlternationState(1.0, 1.0, last_update_k=1)
    sched = ScalarSchedule("power", base=1.0, exponent=-0.5)
    after = alternation_step(state, 3, sched, sched)
    assert after is state


def test_alternation_decreases_at_even():
    state = AlternationState(1.0, 1.0, last_update_k=1)
    mu_sched = ScalarSchedule("power", base=1.0, exponent=-0.5)
    eta_sched = ScalarSchedule("power", base=1.0, exponent=-0.25)
    after = alternation_step(state, 2, mu_sched, eta_sched)
    assert after.mu_current == pytest.approx(2.0 ** -0.5)
    assert after.eta_current == pytest.approx(2.0 ** -0.25)
    assert after.mu_current < state.mu_current
    assert after.last_update_k == 2


def test_alternation_rejects_constant_schedule_at_even():
    state = AlternationState(1.0, 1.0)
    with pytest.raises(AlternationError):
        alternation_step(state, 2, ScalarSchedule("constant", 1.0), None)


def test_alternation_none_holds_that_parameter():
    state = AlternationState(1.0, 0.9, last_update_k=1)
    after = alternation_step(state, 4, ScalarSchedule("power", 1.0, exponent=-1.0),
                             None)
    assert after.eta_current == 0.9
    assert after.mu_current == 0.25
