import numpy as np

from vsqn.core import RngStream
from vsqn.problems import quad_make


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

