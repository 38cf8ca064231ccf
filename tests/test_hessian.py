import numpy as np
import pytest

from vsqn.core import RngStream
from vsqn.hessian import (
    CurvaturePair,
    LbfgsMemory,
    SecantError,
    collect_pair,
    materialize_dense,
    materialize_inverse,
    theoretical_bounds,
    verify_secant,
)
from vsqn.problems import quad_make


def random_memory(gen, m, n):
    """Memory filled from random SPD maps; pairs always satisfy s.y > 0."""
    mem = LbfgsMemory(m)
    for i in range(m):
        root = gen.standard_normal((n, n))
        spd = root @ root.T + np.eye(n)
        s = gen.standard_normal(n)
        mem.push(CurvaturePair(s, spd @ s, 2 * i + 1))
    return mem


# --- pair collection ---------------------------------------------------------

def test_pair_zero_function_convex_mode():
    s_from, s_to = np.zeros(3), np.array([1.0, -2.0, 0.5])
    pair = collect_pair(s_to, s_from, np.zeros(3), np.zeros(3), 1,
                        mu_i=0.25, delta_bar=0.5)
    s = s_to - s_from
    assert np.allclose(pair.y, 0.25**0.5 * s)
    assert pair.sy == pytest.approx(0.25**0.5 * s @ s)


def test_pair_quadratic_exact_difference():
    quad = quad_make(5, 6.0, "SC", RngStream(0, 1), noise_half_width=0.0)
    x0, x1 = np.zeros(5), np.array([1.0, 0.0, -1.0, 2.0, 0.5])
    pair = collect_pair(x1, x0, quad.true_gradient(x1),
                        quad.true_gradient(x0), 1)
    A = quad.frame @ np.diag(quad.eigs) @ quad.frame.T
    assert np.allclose(pair.y, A @ (x1 - x0), atol=1e-12)


def test_pair_convex_mode_secant_floor():
    quad = quad_make(6, 4.0, "C", RngStream(1, 1), noise_half_width=0.0)
    gen = np.random.default_rng(2)
    for _ in range(50):
        x0, x1 = gen.standard_normal(6), gen.standard_normal(6)
        pair = collect_pair(x1, x0, quad.true_gradient(x1),
                            quad.true_gradient(x0), 1, mu_i=0.3, delta_bar=0.7)
        assert pair.sy >= 0.3**0.7 * np.sum((x1 - x0) ** 2) - 1e-12


def test_pair_rejects_zero_step():
    x = np.ones(3)
    with pytest.raises(ValueError, match="zero step"):
        collect_pair(x, x, x, x, 1)


def test_pair_rejects_negative_curvature():
    s = np.array([1.0, 0.0])
    with pytest.raises(SecantError):
        collect_pair(s, np.zeros(2), -s, np.zeros(2), 1)


def test_convex_mode_needs_positive_mu():
    with pytest.raises(ValueError, match="mu_i > 0"):
        collect_pair(np.ones(2), np.zeros(2), np.ones(2), np.zeros(2), 1,
                     mu_i=0.0)


# --- applying the approximation ----------------------------------------------

def test_empty_memory_is_identity():
    mem = LbfgsMemory(3)
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(mem.apply(v), v)
    assert np.allclose(materialize_dense(mem, 3), np.eye(3))
    assert np.allclose(materialize_inverse(mem, 3), np.eye(3))


def test_pair_with_s_equal_y_collapses_to_identity():
    mem = LbfgsMemory(1)
    s = np.array([1.0, 2.0])
    mem.push(CurvaturePair(s, s.copy(), 1))
    assert np.allclose(materialize_dense(mem, 2), np.eye(2), atol=1e-14)
    v = np.array([0.4, -1.1])
    assert np.allclose(mem.apply(v), v, atol=1e-14)


def test_single_pair_scaled_identity_map():
    # pair from A = 2 I determines H = I/2 everywhere
    mem = LbfgsMemory(1)
    s = np.array([1.0, 2.0])
    mem.push(CurvaturePair(s, 2.0 * s, 1))
    v = np.array([3.0, -0.5])
    assert np.allclose(mem.apply(v), v / 2, atol=1e-14)


def test_two_loop_matches_dense_many_memories():
    gen = np.random.default_rng(0)
    for trial in range(100):
        m = int(gen.integers(1, 6))
        n = int(gen.integers(2, 51))
        mem = random_memory(gen, m, n)
        H = materialize_dense(mem, n)
        v = gen.standard_normal(n)
        hv = H @ v
        assert np.linalg.norm(mem.apply(v) - hv) <= 1e-10 * max(np.linalg.norm(hv), 1e-30)


def test_dense_and_inverse_recursions_agree():
    gen = np.random.default_rng(1)
    for trial in range(100):
        m = int(gen.integers(1, 6))
        n = int(gen.integers(2, 20))
        mem = random_memory(gen, m, n)
        H = materialize_dense(mem, n)
        B = materialize_inverse(mem, n)
        assert np.linalg.norm(H @ B - np.eye(n)) < 1e-8


def test_materialized_matrix_symmetric_positive_definite():
    gen = np.random.default_rng(2)
    for trial in range(30):
        mem = random_memory(gen, int(gen.integers(1, 5)), 8)
        H = materialize_dense(mem, 8)
        assert np.max(np.abs(H - H.T)) <= 1e-12
        for _ in range(5):
            v = gen.standard_normal(8)
            assert v @ (H @ v) > 0


def test_newest_secant_equation():
    gen = np.random.default_rng(3)
    for trial in range(30):
        mem = random_memory(gen, int(gen.integers(1, 4)), 6)
        newest = mem.pairs[-1]
        assert np.allclose(mem.apply(newest.y), newest.s, atol=1e-9)


def test_push_requires_increasing_iteration():
    mem = LbfgsMemory(2)
    s = np.array([1.0, 0.0])
    mem.push(CurvaturePair(s, s, 3))
    with pytest.raises(ValueError):
        mem.push(CurvaturePair(s, s, 3))


# --- certificates ------------------------------------------------------------

def test_verify_secant_randomized_suite():
    gen = np.random.default_rng(4)
    for seed in range(100):
        mem = random_memory(gen, 3, 7)
        report = verify_secant(mem)
        assert report.passed
        assert all(d > 0 for d in report.s_dot_y)


def test_verify_secant_flags_injected_negative_pair():
    gen = np.random.default_rng(5)
    mem = random_memory(gen, 2, 5)
    s = gen.standard_normal(5)
    mem.pairs.append(CurvaturePair(s, -s, 99))   # s.y < 0, past collect_pair
    report = verify_secant(mem)
    assert not report.passed


def test_verify_secant_needs_pairs():
    with pytest.raises(ValueError):
        verify_secant(LbfgsMemory(2))


# --- eigenvalue envelopes ----------------------------------------------------

def test_bounds_sc_smooth_example():
    b = theoretical_bounds("SC-smooth", m=1, n=3, L=2.0, tau=1.0)
    assert b.lambda_lo == pytest.approx(1 / 8)
    assert b.lambda_hi == pytest.approx(8.0)


def test_bounds_sc_moreau_example():
    b = theoretical_bounds("SC-Moreau", m=1, n=3, eta_k=0.5, tau=1.0)
    assert b.lambda_lo == pytest.approx(0.125)
    assert b.lambda_hi == pytest.approx(8.0)


def test_bounds_c_smooth_example():
    b = theoretical_bounds("C-smooth", m=1, n=2, L=1.0, mu0=1.0, mu_k=1.0,
                           delta_bar=1.0)
    assert b.lambda_lo == pytest.approx(1 / 6)
    assert b.lambda_hi == pytest.approx(36.0)
    shrunk = theoretical_bounds("C-smooth", m=1, n=2, L=1.0, mu0=1.0,
                                mu_k=0.5, delta_bar=1.0)
    assert shrunk.lambda_hi == pytest.approx(36.0 * 0.5 ** -3)


def test_bounds_c_smoothed_formula():
    b = theoretical_bounds("C-smoothed", m=1, n=3, eta_k=0.25, mu0=1.0,
                           mu_k=0.5, delta=1.0, delta_bar=1.0)
    edge = 1 / 0.25 + 1.0
    lam = 4.0**3 * edge**3 / 2.0
    assert b.lambda_lo == pytest.approx(1 / (4 * edge))
    assert b.lambda_hi == pytest.approx(lam / 0.5**4)


def test_bounds_missing_parameter_rejected():
    with pytest.raises(ValueError):
        theoretical_bounds("SC-smooth", m=1, n=3, L=2.0)
    with pytest.raises(ValueError):
        theoretical_bounds("C-smooth", m=1, n=3, L=2.0, mu0=1.0)
    with pytest.raises(ValueError):
        theoretical_bounds("bogus", m=1, n=3)


def test_memory_eigenvalues_within_sc_bounds():
    # pairs from sampled gradients of a strongly convex ensemble stay inside
    # the envelope computed from the per-sample curvature range
    gen = np.random.default_rng(6)
    for seed in range(25):
        prob = quad_make(6, 10.0, "SC", RngStream(seed, 1), noise_half_width=0.3)
        rng = RngStream(seed, 0)
        mem = LbfgsMemory(3)
        x = gen.standard_normal(6)
        for i in range(5):
            handle = rng.next_handle(int(gen.integers(1, 5)))
            x_new = x + gen.standard_normal(6)
            mem.push(collect_pair(x_new, x,
                                  prob.batch_gradient(x_new, handle),
                                  prob.batch_gradient(x, handle), 2 * i + 1))
            x = x_new
        b = theoretical_bounds("SC-smooth", m=3, n=6, L=prob.sample_L,
                               tau=prob.sample_tau)
        eigs = np.linalg.eigvalsh(materialize_dense(mem, 6))
        assert eigs[0] >= b.lambda_lo * (1 - 1e-9)
        assert eigs[-1] <= b.lambda_hi * (1 + 1e-9)
