import inspect
import itertools
import math
import threading
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsqn import problems
from vsqn.core import (BatchSchedule, RngStream, SampleHandle, ScalarSchedule,
                       StochasticProblem)
from vsqn.harness.checks import fd_check
from vsqn.harness.config import build_problem
from vsqn.harness.presets import preset_cells
from vsqn.problems import (
    CompositeProblem,
    IsotonicLasso,
    L1LocationProblem,
    LEWIS_OVERTON_OPT,
    LewisOvertonProblem,
    LogisticProblem,
    QuadraticEnsemble,
    _COUNT_FRACTION,
    _DRAW_CHUNK,
    _EXACT_ROWS,
    _FOLD,
    _RowCounts,
    _SPLIT_WORDS,
    _STREAM_MEMO,
    _noise_factors,
    lewis_overton_oracle,
    load_sparse_dataset,
    make_isotonic,
    make_synthetic_sparse_logistic,
    monotone_violation,
    pava_project,
    quad_make,
)
from vsqn.smoothing import L1Function
from vsqn.solvers import SolverConfig, run


# --- quadratic ensembles -----------------------------------------------------

def test_quad_identity_at_condition_one():
    prob = quad_make(5, 1.0, "SC", RngStream(0, 1))
    A = prob.frame @ np.diag(prob.eigs) @ prob.frame.T
    assert np.allclose(A, np.eye(5), atol=1e-12)


def test_quad_spectrum_pinned():
    prob = quad_make(20, 100.0, "SC", RngStream(1, 1))
    A = prob.frame @ np.diag(prob.eigs) @ prob.frame.T
    eigs = np.linalg.eigvalsh(A)
    assert abs(eigs[0] - 1.0) < 1e-10
    assert abs(eigs[-1] - 100.0) < 1e-10
    convex = quad_make(20, 100.0, "C", RngStream(2, 1))
    assert abs(np.linalg.eigvalsh(
        convex.frame @ np.diag(convex.eigs) @ convex.frame.T)[0]) < 1e-10


def test_quad_gradient_vanishes_at_planted_point():
    prob = quad_make(8, 30.0, "SC", RngStream(3, 1), noise_half_width=0.5)
    g = prob.batch_gradient(prob.x_true, prob.draw(RngStream(0, 0).next_handle(7)))
    assert np.allclose(g, 0.0)
    assert prob.true_value(prob.x_true) == 0.0


def test_quad_noise_variance_scales_inversely_with_batch():
    # regression of log E|g - grad f|^2 on log N should have slope -1
    prob = quad_make(10, 20.0, "SC", RngStream(4, 1), noise_half_width=0.5)
    rng = RngStream(5, 0)
    x = np.full(10, 1.5)
    exact = prob.true_gradient(x)
    sizes = [1, 10, 100, 1000]
    mses = []
    for batch in sizes:
        errs = []
        for _ in range(120):
            g = prob.batch_gradient(x, prob.draw(rng.next_handle(batch)))
            errs.append(np.sum((g - exact) ** 2))
        mses.append(np.mean(errs))
    slope = np.polyfit(np.log(sizes), np.log(mses), 1)[0]
    assert -1.15 <= slope <= -0.85


def test_quad_frozen_batch_consistent():
    prob = quad_make(5, 12.0, "SC", RngStream(8, 1), noise_half_width=0.5)
    factors = prob.draw(RngStream(9, 0).next_handle(20))
    frozen = prob.frozen_batch(factors, L1Function(0.5))
    x = np.array([0.5, -1.0, 2.0, 0.0, 1.0])
    assert np.allclose(frozen.smooth_grad(x), prob.batch_gradient(x, factors),
                       atol=1e-12)
    assert 0 < frozen.lipschitz_L <= prob.sample_L


def test_quad_frozen_batch_reports_its_largest_eigenvalue():
    # the noise factors reorder the eigenvalues: on these 80 batches the
    # last scaled eigenvalue fell short of the largest one 11 times, down
    # to 0.75x; the batch Hessian is read off the gradient at x_true + e_i
    prob = quad_make(10, 10.0, "SC", RngStream(1835504127, 1), noise_half_width=0.5)
    stream = RngStream(7, 0)
    for k in range(80):
        factors = prob.draw(stream.next_handle(math.ceil(2 * 0.9 ** -k)))
        hessian = np.array([prob.batch_gradient(prob.x_true + e, factors)
                            for e in np.eye(10)])
        top = np.linalg.eigvalsh(0.5 * (hessian + hessian.T))[-1]
        frozen = prob.frozen_batch(factors, L1Function(0.5))
        assert frozen.lipschitz_L == pytest.approx(top, rel=1e-12), k


def test_quad_rejects_bad_arguments():
    with pytest.raises(ValueError):
        quad_make(1, 10.0, "SC", RngStream(0, 1))
    with pytest.raises(ValueError):
        quad_make(5, 0.5, "SC", RngStream(0, 1))
    with pytest.raises(ValueError):
        quad_make(5, 10.0, "X", RngStream(0, 1))


class _WholeBatchQuadratic(QuadraticEnsemble):
    """The reference draw: all (batch, n) ``gen.random`` doubles at once, and
    the exact mean of each column, as its integer numerators u 2^53 summed
    in Python ints, taken to ``lo + width * mean`` with one rounding."""

    def draw(self, handle):
        u = handle.generator().random((handle.batch, self.eigs.size))
        lo = 1.0 - self.noise
        width = (1.0 + self.noise) - lo
        numerators = (u * 2.0**53).astype(np.uint64)  # exact: u is k 2^-53
        return np.array([lo + width * (sum(column.tolist()) / (handle.batch << 53))
                         for column in numerators.T])


def _ensemble(n, noise, cls=QuadraticEnsemble):
    return cls(np.eye(n), np.linspace(1.0, 4.0, n), np.zeros(n), noise)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 60])
@pytest.mark.parametrize("noise", [0.0, 0.1, 0.4, 0.5, 0.9, 0.123456])
def test_quad_streamed_draw_bitwise_equals_whole_batch(noise, n):
    # the width must be numpy's (1 + noise) - (1 - noise): at 0.4 that is
    # 0.7999999999999999, not 2 * 0.4; the batches sit on each side of the
    # fold, of the 2^11 rows a uint64 sums exactly, of the chunk's rows and
    # of the two-span split (on two CPUs or more): a half of 2 split + 1
    # rows is no multiple of 4, and 3 split + 7 rows run past several chunks
    rows = _DRAW_CHUNK // n
    split = -(-_SPLIT_WORDS // n)  # the fewest rows that split
    random_batch = int(np.random.default_rng(n).integers(2, 5 * rows))
    whole = _ensemble(n, noise, _WholeBatchQuadratic)
    for batch in (1, _FOLD - 1, _FOLD, _FOLD + 1, _EXACT_ROWS - 1, _EXACT_ROWS,
                  _EXACT_ROWS + 1, rows - 1, rows, rows + 1, 2 * rows + 3,
                  random_batch, split - 1, split, split + 1, 4 * split + 2,
                  3 * split + 7):
        handle = RngStream(7, 0).next_handle(batch)
        got, want = _noise_factors(handle, n, noise), whole.draw(handle)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), batch


def _counted_spans(monkeypatch, fail_on=None):
    """Count ``_numerator_sums`` calls in ``calls``; raise on a worker's call
    (fail_on "worker") or on the caller's (fail_on "caller")."""
    calls, spans = [], problems._numerator_sums

    def counted(*args):
        worker = threading.current_thread() is not threading.main_thread()
        calls.append(worker)
        if fail_on == ("worker" if worker else "caller"):
            raise RuntimeError(f"{fail_on} span")
        return spans(*args)

    monkeypatch.setattr(problems, "_numerator_sums", counted)
    return calls


@pytest.mark.parametrize("n", [1, 3, 20])
def test_quad_split_draw_is_bitwise_the_serial_draw(monkeypatch, n):
    # above the threshold, with a half of 2 split + 3 rows (no multiple of 4)
    batch = 4 * -(-_SPLIT_WORDS // n) + 6
    handle = RngStream(11, 2).next_handle(batch)
    want = _ensemble(n, 0.3, _WholeBatchQuadratic).draw(handle).view(np.uint64)
    for cpus, spans in ((1, 1), (2, 2), (3, 2)):  # never more than two spans
        monkeypatch.setattr(problems, "_CPUS", cpus)
        calls = _counted_spans(monkeypatch)
        assert np.array_equal(_noise_factors(handle, n, 0.3).view(np.uint64), want)
        assert len(calls) == spans, cpus
        monkeypatch.undo()
    assert batch * n >= _SPLIT_WORDS and (batch // 2) % 4


@pytest.mark.parametrize("fail_on", ["worker", "caller"])
def test_quad_split_draw_raises_a_failed_span(monkeypatch, fail_on):
    # a failed span is an error, never a mean over the other span's rows;
    # the worker has ended whether the draw returns or raises
    monkeypatch.setattr(problems, "_CPUS", 2)
    handle = RngStream(11, 3).next_handle(2 * _SPLIT_WORDS)
    threads = threading.active_count()
    _noise_factors(handle, 1, 0.5)
    assert threading.active_count() == threads
    calls = _counted_spans(monkeypatch, fail_on)
    with pytest.raises(RuntimeError, match=f"{fail_on} span"):
        _noise_factors(handle, 1, 0.5)
    assert sorted(calls) == [False, True]
    assert threading.active_count() == threads


def _same_run(a, b):
    """Equal records (but the clock) and x_final; a closing row's grad_norm
    is nan, so records compare as numpy does."""
    np.testing.assert_equal([astuple(replace(r, wall_time=0.0)) for r in a.records],
                            [astuple(replace(r, wall_time=0.0)) for r in b.records])
    assert np.array_equal(a.x_final, b.x_final)


def test_quad_streamed_draw_keeps_the_vs_sqn_trajectory(monkeypatch):
    # batches 100 * 2^k cross the 819-row chunk of n = 20 from k = 4 on
    base = quad_make(20, 50.0, "SC", RngStream(3, 1), noise_half_width=0.4)
    config = SolverConfig("vs_sqn", horizon=8, seed=4,
                          batch=BatchSchedule("geometric", N0=100, rate=0.5))
    drawn = []
    reference = _WholeBatchQuadratic.draw
    monkeypatch.setattr(_WholeBatchQuadratic, "draw",
                        lambda self, h: drawn.append(h.batch) or reference(self, h))
    streamed, whole = (
        run(cls(base.frame, base.eigs, base.x_true, base.noise), config)
        for cls in (QuadraticEnsemble, _WholeBatchQuadratic))
    assert config.batch.eval(7) > 2 * (_DRAW_CHUNK // 20)
    # the reference drew each batch of a chunk or more itself: its draw
    # override bypasses the stream memo, so the streamed run's draws are not hits
    chunked = [b for b in map(config.batch.eval, range(8)) if b * 20 >= _DRAW_CHUNK]
    assert len(chunked) == 4
    assert [b for b in drawn if b * 20 >= _DRAW_CHUNK] == chunked
    _same_run(streamed, whole)


@pytest.mark.parametrize("n", [1, 20])
def test_quad_draw_memory_is_bounded_by_the_chunk(n):
    handle = RngStream(2, 0).next_handle(400_000)  # 64 MB as one array at n = 20
    assert handle.batch * n >= _SPLIT_WORDS  # the two-span path on two CPUs
    # a process's first raw draw allocates once, untraced
    _noise_factors(handle, n, 0.5)
    tracemalloc.start()
    try:
        _noise_factors(handle, n, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * _DRAW_CHUNK


# --- the stream memo ---------------------------------------------------------

def _empty_the_memo():
    """A draw of one chunk on a stream no other test uses."""
    _ensemble(20, 0.5).draw(RngStream(2**31, 9).next_handle(_DRAW_CHUNK))
    assert _STREAM_MEMO.stream == (2**31, 9)


def _counted_runs(monkeypatch, runs):
    """For each (problem, config): the result, the handles of one chunk or
    more that the run asked for, and those it drew through a generator."""
    asked, drawn, out = [], [], []
    draw, generator = QuadraticEnsemble.draw, SampleHandle.generator
    with monkeypatch.context() as patch:
        patch.setattr(QuadraticEnsemble, "draw",
                      lambda self, h: asked.append(h) or draw(self, h))
        patch.setattr(SampleHandle, "generator",
                      lambda h: drawn.append(h) or generator(h))
        for problem, config in runs:
            asked.clear()
            drawn.clear()
            result = run(problem, config)
            n = problem.meta.n
            out.append((result, {h for h in asked if h.batch * n >= _DRAW_CHUNK},
                        [h for h in drawn if h.batch * n >= _DRAW_CHUNK]))
    return out


def test_illcond_cells_draw_a_shared_batch_once(monkeypatch):
    cells = preset_cells("illcond_sweep")
    assert [c.name for c in cells] == ["illcond_vs_sqn_m1", "illcond_vs_sqn_m10",
                                       "illcond_apg"]
    _empty_the_memo()
    shared = _counted_runs(monkeypatch, [(build_problem(c, 0), c.solver_config(0))
                                         for c in cells])
    (_, m1_asked, m1_drawn), *replays = shared
    assert m1_asked and sorted(h.start for h in m1_drawn) == sorted(
        h.start for h in m1_asked)
    for _, asked, drawn in replays:
        assert asked == m1_asked and drawn == []
    for cell, (result, asked, _) in zip(cells, shared):
        _empty_the_memo()
        [(alone, _, drawn)] = _counted_runs(
            monkeypatch, [(build_problem(cell, 0), cell.solver_config(0))])
        assert set(drawn) == asked
        _same_run(result, alone)


def test_memo_keeps_one_stream():
    handle = RngStream(5, 0).next_handle(2 * _DRAW_CHUNK // 20)
    first = _ensemble(20, 0.5).draw(handle)
    assert _ensemble(20, 0.5).draw(handle) is first  # another instance hits
    _empty_the_memo()
    again = _ensemble(20, 0.5).draw(handle)
    assert again is not first
    assert np.array_equal(again.view(np.uint64), first.view(np.uint64))
    # n, noise and a batch under one chunk are drawn, not recalled
    assert _ensemble(20, 0.4).draw(handle) is not again
    assert _ensemble(21, 0.5).draw(handle) is not again
    small = RngStream(5, 0).next_handle(_DRAW_CHUNK // 20 - 1)
    assert _ensemble(20, 0.5).draw(small) is not _ensemble(20, 0.5).draw(small)


def test_memo_stays_within_its_bytes_and_keeps_the_run(monkeypatch):
    base = _ensemble(20, 0.5)
    config = SolverConfig("vs_sqn", m=3, horizon=40, seed=6,
                          batch=BatchSchedule("constant", _DRAW_CHUNK // 20 + 1),
                          step=ScalarSchedule("constant", 0.1), x0=np.ones(20))
    _empty_the_memo()
    [(free, _, _)] = _counted_runs(monkeypatch, [(base, config)])
    cap = 10 * 20 * 8  # ten draws' factors
    monkeypatch.setattr("vsqn.problems._MEMO_BYTES", cap)
    _empty_the_memo()
    [(capped, asked, drawn), (replay, _, redrawn)] = _counted_runs(
        monkeypatch, [(_ensemble(20, 0.5), config), (_ensemble(20, 0.5), config)])
    assert len(drawn) == len(asked) == 40
    assert 0 < _STREAM_MEMO.nbytes <= cap and len(_STREAM_MEMO.draws) == 10
    assert len(redrawn) == 30  # the ten kept are hits, the rest are drawn again
    _same_run(capped, free)
    _same_run(replay, free)


def test_recalled_factors_are_read_only():
    handle = RngStream(5, 0).next_handle(_DRAW_CHUNK)
    for _ in range(2):  # the miss and the hit
        factors = _ensemble(20, 0.5).draw(handle)
        with pytest.raises(ValueError):
            factors[0] = 1.0


# --- logistic ----------------------------------------------------------------

def test_logistic_at_zero():
    gen = np.random.default_rng(0)
    X = gen.standard_normal((40, 6))
    v = np.where(gen.random(40) < 0.5, 1.0, -1.0)
    prob = LogisticProblem(X, v)
    assert prob.true_value(np.zeros(6)) == pytest.approx(np.log(2.0))
    g = prob.full_gradient(np.zeros(6))
    assert np.allclose(g, -(X * v[:, None]).mean(axis=0) / 2.0, atol=1e-12)


def test_logistic_saturation():
    X = np.array([[1.0, 0.0]])
    prob = LogisticProblem(X, np.array([1.0]))
    x = np.array([500.0, 0.0])
    assert prob.true_value(x) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(prob.full_gradient(x), 0.0, atol=1e-12)


def test_logistic_full_gradient_fd():
    gen = np.random.default_rng(1)
    X = gen.standard_normal((30, 5))
    v = np.where(gen.random(30) < 0.5, 1.0, -1.0)
    prob = LogisticProblem(X, v, mu_l2=0.05, lambda_l1=0.02,
                           l1_smoothing="huber", l1_eta=0.1)
    points = [gen.standard_normal(5) + 0.5 for _ in range(15)]
    report = fd_check(lambda x: (prob.true_value(x), prob.full_gradient(x)), points)
    assert report.passed, report


def _masked_sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _counted(N, batch):
    """Whether a draw of ``batch`` rows out of N is held as counts."""
    return batch > 1 and _COUNT_FRACTION * batch >= N


def _reference_logistic_gradient(prob, x, rows, eta, counted=False):
    """The batch gradient by its plain formula: masked sigmoid, np.mean of
    the gathered rows (counted: one pass over the data weighted by
    np.bincount of the rows), and the piecewise Huber gradient."""
    X, v = prob.features, prob.labels
    if counted:
        c = np.bincount(rows, minlength=prob.N)
        loss = -(X.T @ (c * v * _masked_sigmoid(-v * (X @ x)))) / len(rows)
    else:
        xb, vb = X[rows], v[rows]
        loss = (-(xb * (vb * _masked_sigmoid(-vb * (xb @ x)))[:, None])).mean(axis=0)
    penalty = prob.mu_l2 * x
    if prob.l1_smoothing == "huber" or eta is not None:
        level = prob.l1_eta if eta is None else eta
        penalty = penalty + prob.lambda_l1 * np.where(
            np.abs(x) <= level, x / level, np.sign(x))
    else:
        penalty = penalty + prob.lambda_l1 * np.sign(x)
    return loss + penalty


@pytest.mark.parametrize("smoothing,eta", [("huber", None), ("none", 0.3), ("none", None)])
@pytest.mark.parametrize("batch", [1, 3, 7])
@pytest.mark.parametrize("copies", [1, 8])
def test_logistic_batch_gradient_bitwise_equals_reference(smoothing, eta, batch, copies):
    # rows with sigmoid inputs 0, -800 and 800, and entries of x exactly at
    # +-l1_eta and +-eta; 4 rows hold batches 3 and 7 as counts, 32 rows
    # (8 copies) gather them
    gen = np.random.default_rng(2)
    X = np.zeros((4, 7))
    X[1, 5] = X[2, 5] = -400.0
    X[3] = gen.standard_normal(7)
    v = np.array([1.0, 1.0, -1.0, -1.0])
    x = np.array([0.25, -0.25, 0.3, -0.3, -0.0, -2.0, 0.1])
    prob = LogisticProblem(np.tile(X, (copies, 1)), np.tile(v, copies), mu_l2=0.1,
                           lambda_l1=0.5, l1_smoothing=smoothing, l1_eta=0.25)
    assert sorted(-v[:3] * (X[:3] @ x)) == [-800.0, 0.0, 800.0]
    N = 4 * copies
    counted = _counted(N, batch)
    assert counted == (copies == 1 and batch > 1)
    stream = RngStream(4, 0)
    seen = set()
    for _ in range(40):
        handle = stream.next_handle(batch)
        got = prob.batch_gradient(x, prob.draw(handle), eta)
        rows = SampleHandle(4, 0, handle.start, batch).generator().integers(
            0, N, size=batch)
        seen.update((rows % 4).tolist())
        want = _reference_logistic_gradient(prob, x, rows, eta, counted)
        assert np.array_equal(got, want)
        if counted:  # the count-weighted sum moves by rounding only
            gathered = _reference_logistic_gradient(prob, x, rows, eta)
            assert np.linalg.norm(got - gathered) <= 1e-14 * np.linalg.norm(gathered)
    assert seen == {0, 1, 2, 3}


def test_logistic_gradient_keeps_the_sign_of_every_zero():
    # the one-row loss (0 - r), and the skipped 0 * x at mu_l2 = 0, against
    # the plain formula bit for bit: signed zeros and subnormals in x, zero
    # features times negative and positive weights
    gen = np.random.default_rng(5)
    X = np.where(gen.random((5, 8)) < 0.5, 0.0, gen.standard_normal((5, 8)))
    v = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 0.25, -0.25, 2.0, -1e-300])
    bits = lambda a: a.view(np.uint64)
    for mu_l2, lambda_l1, smoothing, eta in itertools.product(
            [0.0, 0.1], [0.0, 0.5], ["huber", "none"], [None, 0.3]):
        prob = LogisticProblem(X, v, mu_l2=mu_l2, lambda_l1=lambda_l1,
                               l1_smoothing=smoothing, l1_eta=0.25)
        stream = RngStream(6, 0)
        for batch in [1] * 8 + [3] * 4:  # 3 of 5 rows: held as counts
            handle = stream.next_handle(batch)
            rows = SampleHandle(6, 0, handle.start, batch).generator().integers(
                0, 5, size=batch)
            want = _reference_logistic_gradient(prob, x, rows, eta,
                                                _counted(5, batch))
            got = prob.batch_gradient(x, prob.draw(handle), eta)
            assert np.array_equal(bits(got), bits(want)), (mu_l2, lambda_l1, batch)


def test_logistic_one_row_gradient_equals_the_index_array_path():
    # margins of both signs, 0 and past exp's range: the one-row branch (a
    # sigmoid on a numpy scalar) against the masked sigmoid over the
    # gathered row, bit for bit up to the sign of a zero
    gen = np.random.default_rng(8)
    X = gen.standard_normal((6, 9))
    X[5] = 0.0
    v = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    prob = LogisticProblem(X, v)
    margins = []
    for scale in (0.0, 0.3, 3.0, 800.0):
        x = scale * gen.standard_normal(9)
        for i in range(6):
            margins.append(float(-v[i] * (X[i] @ x)))
            want = _reference_logistic_gradient(prob, x, np.array([i]), None)
            assert np.array_equal(prob._loss_grad(x, slice(i, i + 1)), want)
            assert np.array_equal(prob._loss_grad(x, np.array([i])), want)
    assert min(margins) < -745 and max(margins) > 745 and 0.0 in margins


# --- row draws held as counts --------------------------------------------------


def _row_problems():
    """(label, factory(N)) for each problem that samples N data rows."""
    def logistic(N):
        gen = np.random.default_rng(N)
        return LogisticProblem(gen.standard_normal((N, 6)),
                               np.where(gen.random(N) < 0.5, 1.0, -1.0),
                               mu_l2=0.1, lambda_l1=0.05, l1_smoothing="huber")

    def isotonic(N):
        gen = np.random.default_rng(N)
        return IsotonicLasso(gen.standard_normal((N, 6)), gen.standard_normal(N))

    return [("logistic", logistic), ("isotonic", isotonic)]


def _reference_isotonic_gradient(prob, x, rows, counted):
    """The plain formula: np.mean of the gathered rows' gradients or, counted,
    one pass over the data weighted by np.bincount of the rows."""
    if counted:
        c = np.bincount(rows, minlength=prob.p)
        data = prob.p * (prob.A.T @ (c * (prob.A @ x - prob.b))) / len(rows)
    else:
        ab = prob.A[rows]
        data = (prob.p * ab * (ab @ x - prob.b[rows])[:, None]).mean(axis=0)
    return data + (x - pava_project(x)) / prob.default_eta


@pytest.mark.parametrize("case", _row_problems(), ids=lambda c: c[0])
@pytest.mark.parametrize("N", [3, 24, 800])
def test_row_draw_counts_equal_the_bincount_of_one_whole_draw(case, N):
    # the counted regime starts at N/4 rows; the largest batches cross the
    # draw chunk once and twice
    prob = case[1](N)
    first = max(2, -(-N // _COUNT_FRACTION))
    stream = RngStream(11, 0)
    for batch in (first - 1, first, _DRAW_CHUNK - 1, _DRAW_CHUNK,
                  _DRAW_CHUNK + 1, 2 * _DRAW_CHUNK + 3):
        handle = stream.next_handle(batch)
        drawn = prob.draw(handle)
        whole = SampleHandle(11, 0, handle.start, batch).generator().integers(
            0, N, size=batch)
        if batch == 1:
            assert drawn == slice(whole[0], whole[0] + 1)
        elif not _counted(N, batch):
            assert np.array_equal(drawn, whole)
        else:
            assert isinstance(drawn, _RowCounts) and drawn.size == batch
            assert np.array_equal(drawn.counts, np.bincount(whole, minlength=N))


@pytest.mark.parametrize("N", [5, 24, 800])
def test_isotonic_batch_gradient_bitwise_equals_reference(N):
    prob = _row_problems()[1][1](N)
    x = np.linspace(1.0, -1.0, 6)
    stream = RngStream(12, 0)
    for batch in (1, 2, 7, 199, 200, 3000):
        handle = stream.next_handle(batch)
        rows = SampleHandle(12, 0, handle.start, batch).generator().integers(
            0, N, size=batch)
        want = _reference_isotonic_gradient(prob, x, rows, _counted(N, batch))
        assert np.array_equal(prob.batch_gradient(x, prob.draw(handle)), want), batch


@pytest.mark.parametrize("case", _row_problems(), ids=lambda c: c[0])
@pytest.mark.parametrize("N", [24, 800])
def test_counted_gradient_matches_the_gathered_and_the_exact_mean(case, N):
    # against the gathered reference up to 5N + 1 rows; at 20,000 rows that
    # reference's row-by-row sum drifts by 3e-14 on this Gaussian data, so
    # there the count-weighted gradient is held to the exactly rounded mean
    # (math.fsum per coordinate) instead
    label, factory = case
    prob = factory(N)
    x = np.linspace(-1.0, 1.5, 6)
    stream = RngStream(13, 0)
    for batch in (-(-N // _COUNT_FRACTION), N, 5 * N + 1, 20_000):
        handle = stream.next_handle(batch)
        rows = SampleHandle(13, 0, handle.start, batch).generator().integers(
            0, N, size=batch)
        if label == "logistic":
            gathered = _reference_logistic_gradient(prob, x, rows, None)
            xb, vb = prob.features[rows], prob.labels[rows]
            terms = -(xb * (vb * _masked_sigmoid(-vb * (xb @ x)))[:, None])
        else:
            gathered = _reference_isotonic_gradient(prob, x, rows, counted=False)
            terms = prob.p * prob.A[rows] * (prob.A[rows] @ x - prob.b[rows])[:, None]
        exact = (gathered - terms.mean(axis=0)
                 + np.array([math.fsum(col) for col in terms.T]) / batch)
        got = prob.batch_gradient(x, prob.draw(handle))
        size = np.linalg.norm(gathered)
        assert np.linalg.norm(got - exact) <= 1e-14 * size
        if batch <= 5 * N + 1:
            assert np.linalg.norm(got - gathered) <= 1e-14 * size


@pytest.mark.parametrize("kind", ["logistic", "isotonic"])
def test_large_row_draw_and_gradient_memory_is_bounded(kind):
    # N = 1500 rows, n = 500: 20,000 gathered rows would be 80 MB an array
    if kind == "logistic":
        prob, _ = make_synthetic_sparse_logistic(500, 1500, RngStream(1, 1),
                                                 lambda_l1=0.1, l1_smoothing="huber")
    else:
        prob = IsotonicLasso(np.random.default_rng(1).standard_normal((1500, 500)),
                             np.zeros(1500))
    x = np.full(500, 0.01)
    handle = RngStream(3, 0).next_handle(20_000)
    tracemalloc.start()
    try:
        prob.batch_gradient(x, prob.draw(handle))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_logistic_huber_level_must_be_positive():
    with pytest.raises(ValueError):
        LogisticProblem(np.ones((2, 2)), np.array([1.0, -1.0]), lambda_l1=0.1,
                        l1_smoothing="huber", l1_eta=0.0)


def test_logistic_labels_validated():
    with pytest.raises(ValueError):
        LogisticProblem(np.ones((3, 2)), np.array([1.0, 2.0, -1.0]))


def test_synthetic_sparse_logistic_shapes():
    prob, x_true = make_synthetic_sparse_logistic(50, 200, RngStream(0, 1),
                                                  support_frac=0.1)
    assert prob.features.shape == (200, 50)
    assert np.count_nonzero(x_true) == 5
    assert set(np.unique(prob.labels)) <= {-1.0, 1.0}


@pytest.mark.parametrize("shape", [(5000, 7), (800, 60), (1500, 500), (40, 3000)])
def test_logistic_build_equals_the_whole_array_formulas(shape):
    # the features are drawn and thresholded in place, and the row norms
    # summed in blocks; both must equal the one-array formulas bit for bit
    N, n = shape
    prob, _ = make_synthetic_sparse_logistic(n, N, RngStream(3, 1), density=0.3)
    draw = RngStream(3, 1).generator().random((N, n))
    assert np.array_equal(prob.features, (draw < 0.3).astype(float))
    F = np.random.default_rng(N).standard_normal(shape) * 1e3
    gaussian = LogisticProblem(F, np.ones(N), mu_l2=0.1)
    assert gaussian.meta.lipschitz_L == float(np.max(np.sum(F**2, axis=1))) / 4.0 + 0.1


# --- sparse text format -------------------------------------------------------

def test_loader_single_record(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("+1 1:0.5 3:2\n")
    prob = load_sparse_dataset(path)
    assert prob.features.shape == (1, 3)
    assert np.allclose(prob.features[0], [0.5, 0.0, 2.0])
    assert prob.labels[0] == 1.0


def test_loader_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="no records"):
        load_sparse_dataset(path)


def test_loader_malformed_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("+1 1:0.5\n-1 2:oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_sparse_dataset(path)


def test_loader_rejects_other_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("3 1:1.0\n")
    with pytest.raises(ValueError, match="label"):
        load_sparse_dataset(path)


def test_loader_maps_zero_one_labels(tmp_path):
    path = tmp_path / "zeroone.txt"
    path.write_text("1 1:1.0\n0 2:1.0\n")
    prob = load_sparse_dataset(path)
    assert list(prob.labels) == [1.0, -1.0]


def test_dataset_round_trip(tmp_path):
    gen = np.random.default_rng(2)
    X = np.where(gen.random((20, 9)) < 0.2, gen.standard_normal((20, 9)), 0.0)
    v = np.where(gen.random(20) < 0.5, 1.0, -1.0)
    path = tmp_path / "round.txt"
    # the loader's format: a label, then 1-based idx:val for each nonzero
    path.write_text("".join(
        " ".join([f"{int(label):+d}", *(f"{j + 1}:{float(row[j])!r}"
                                        for j in np.flatnonzero(row))]) + "\n"
        for row, label in zip(X, v)))
    prob = load_sparse_dataset(path, n=9)
    assert np.array_equal(prob.features, X)
    assert np.array_equal(prob.labels, v)


# --- isotonic projection and oracle -------------------------------------------

def brute_force_monotone_projection(x):
    """Exact projection by enumerating consecutive-block partitions."""
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


def test_pava_examples():
    assert np.array_equal(pava_project(np.array([1.0, 2.0, 3.0])),
                          np.array([1.0, 2.0, 3.0]))
    assert np.allclose(pava_project(np.array([2.0, 1.0])), [1.5, 1.5])
    assert np.allclose(pava_project(np.array([3.0, 1.0, 2.0])), [2.0, 2.0, 2.0])


def test_pava_matches_brute_force_small():
    gen = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        for _ in range(30):
            x = gen.standard_normal(n) * 3
            assert np.allclose(pava_project(x),
                               brute_force_monotone_projection(x), atol=1e-8)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=12))
def test_pava_output_monotone_and_idempotent(values):
    x = np.array(values)
    out = pava_project(x)
    assert np.all(np.diff(out) >= -1e-12)
    assert np.allclose(pava_project(out), out, atol=1e-12)


def test_pava_projection_is_nonexpansive():
    gen = np.random.default_rng(4)
    for _ in range(200):
        x, y = gen.standard_normal(8) * 4, gen.standard_normal(8) * 4
        assert (np.linalg.norm(pava_project(x) - pava_project(y))
                <= np.linalg.norm(x - y) + 1e-12)


def test_isotonic_zero_gradient_at_consistent_feasible_point():
    gen = np.random.default_rng(5)
    A = gen.standard_normal((12, 6))
    x_feasible = np.sort(gen.standard_normal(6))
    prob = IsotonicLasso(A, A @ x_feasible, eta=1e-2)
    g = prob.batch_gradient(x_feasible, prob.draw(RngStream(0, 0).next_handle(12)))
    assert np.allclose(g, 0.0, atol=1e-10)


def test_isotonic_penalty_fd_off_boundary():
    prob = make_isotonic(8, 16, RngStream(6, 1), eta=0.05)
    gen = np.random.default_rng(7)
    # strictly decreasing points keep us away from the projection kinks
    points = [np.sort(gen.standard_normal(8))[::-1] * 3 for _ in range(10)]

    def value_grad(x):
        d = x - pava_project(x)
        return float(d @ d) / (2 * 0.05), d / 0.05

    report = fd_check(value_grad, points)
    assert report.passed, report


def test_monotone_violation_measure():
    assert monotone_violation(np.array([1.0, 2.0, 3.0])) == 0.0
    assert monotone_violation(np.array([2.0, 1.0])) == pytest.approx(1.0)


# --- l1 location -------------------------------------------------------------

def test_l1_location_true_value_and_optimum():
    center = np.array([0.5, -1.0, 2.0])
    prob = L1LocationProblem(center, noise_half_width=1.0)
    assert prob.true_value(center) == pytest.approx(prob.meta.f_star)
    gen = np.random.default_rng(8)
    for _ in range(50):
        x = center + gen.standard_normal(3)
        assert prob.true_value(x) >= prob.meta.f_star - 1e-12


def test_l1_location_smoothed_gradient_unbiased_for_large_batch():
    center = np.zeros(4)
    prob = L1LocationProblem(center, noise_half_width=1.0)
    x = np.array([0.3, -0.2, 0.1, 0.6])
    g = prob.batch_gradient(x, prob.draw(RngStream(1, 0).next_handle(200_000)), 0.05)
    # d inside the noise band: E huber'(d - u) -> d/w for small eta
    assert np.allclose(g, x / 1.0, atol=0.02)


def _with_entry(array, value):
    array = np.array(array, dtype=float)
    array.flat[1] = value
    return array


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_non_finite_problem_data_rejected_at_construction(value):
    A, b = np.eye(3), np.ones(3)
    with pytest.raises(ValueError, match="^A has a non-finite"):
        IsotonicLasso(_with_entry(A, value), b)
    with pytest.raises(ValueError, match="^b has a non-finite"):
        IsotonicLasso(A, _with_entry(b, value))
    with pytest.raises(ValueError, match="^center has a non-finite"):
        L1LocationProblem(_with_entry(np.zeros(3), value))


# --- 2-D nonsmooth benchmark --------------------------------------------------

def test_lewis_overton_exact_values():
    value, _ = lewis_overton_oracle(np.array([0.0, -1.0]), 0.0)
    assert value == pytest.approx(-0.5)
    value, _ = lewis_overton_oracle(np.array([2.0, 2.0]), 0.0)
    assert value == pytest.approx(10.0)


def test_lewis_overton_global_minimum_spot_check():
    gen = np.random.default_rng(9)
    for _ in range(300):
        x = gen.uniform(-3, 3, size=2)
        assert lewis_overton_oracle(x, 0.0)[0] >= -0.5 - 1e-12


def test_lewis_overton_smoothed_sandwich():
    gen = np.random.default_rng(10)
    eta = 0.1
    for _ in range(100):
        x = gen.uniform(-3, 3, size=2)
        exact = lewis_overton_oracle(x, 0.0)[0]
        sm = lewis_overton_oracle(x, eta)[0]
        assert exact - eta * np.log(3) - 1e-12 <= sm <= exact + 1e-12


def test_lewis_overton_problem_interface():
    prob = LewisOvertonProblem(eta=0.05)
    assert np.allclose(prob.meta.x_star, LEWIS_OVERTON_OPT)
    h = RngStream(0, 0).next_handle(3)
    g = prob.batch_gradient(np.array([1.0, 1.0]), prob.draw(h))
    assert np.all(np.isfinite(g))


def test_lewis_overton_smoothed_gradient_fd():
    prob = LewisOvertonProblem(eta=0.07)
    gen = np.random.default_rng(11)
    points = [gen.uniform(-2, 2, size=2) for _ in range(25)]
    report = fd_check(lambda x: lewis_overton_oracle(x, 0.07), points)
    assert report.passed, report


# --- composite ---------------------------------------------------------------

def test_composite_envelope_gradient_fixed_point():
    quad = quad_make(5, 6.0, "SC", RngStream(12, 1), noise_half_width=0.0)
    prob = CompositeProblem(L1Function(0.3), quad)
    handle = RngStream(0, 0).next_handle(4)
    # at the envelope's stationary point the prox returns x itself;
    # here just check consistency: grad = (x - prox)/eta with prox feasible
    x = np.array([1.0, -0.5, 0.2, 0.0, 2.0])
    g = prob.batch_gradient(x, prob.draw(handle), 0.2)
    assert np.all(np.isfinite(g))
    assert prob.true_value(x) == pytest.approx(
        quad.true_value(x) + 0.3 * np.sum(np.abs(x)))


# --- the draw contract --------------------------------------------------------

def _draw_cases():
    """(label, factory, oracle(problem, x, batch)) for every problem's draw."""
    logistic = lambda: make_synthetic_sparse_logistic(
        6, 40, RngStream(2, 1), density=0.3, lambda_l1=0.1,
        l1_smoothing="huber")[0]
    quad = lambda: quad_make(6, 10.0, "SC", RngStream(1, 1))
    return [
        ("quad_gradient", quad, lambda p, x, b: p.batch_gradient(x, b)),
        ("quad_value", quad,
         lambda p, x, b: np.array([p.frozen_batch(b, L1Function(0.5)).smooth_value(x)])),
        ("quad_frozen", quad,
         lambda p, x, b: p.frozen_batch(b, L1Function(0.5)).smooth_grad(x)),
        ("logistic", logistic, lambda p, x, b: p.batch_gradient(x, b)),
        ("logistic_smoothed", logistic, lambda p, x, b: p.batch_gradient(x, b, 0.05)),
        ("isotonic", lambda: make_isotonic(6, 12, RngStream(3, 1)),
         lambda p, x, b: p.batch_gradient(x, b)),
        ("l1_location", lambda: L1LocationProblem(np.linspace(-1, 1, 6)),
         lambda p, x, b: p.batch_gradient(x, b, 0.2)),
        ("composite", lambda: CompositeProblem(L1Function(0.5), quad()),
         lambda p, x, b: p.batch_gradient(x, b, 0.1)),
        ("lewis_overton", LewisOvertonProblem,
         lambda p, x, b: p.batch_gradient(x[:2], b)),
    ]


def test_every_problem_takes_one_batch_gradient_call_shape():
    # the solver loop calls batch_gradient(x, batch, eta) on every problem,
    # eta None where it smooths nothing; the draw table holds every kind
    kinds = {type(factory()) for _, factory, _ in _draw_cases()}
    assert kinds == {kind for kind in vars(problems).values()
                     if isinstance(kind, type) and hasattr(kind, "batch_gradient")}
    for kind in kinds:
        params = inspect.signature(kind.batch_gradient).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), kind
        names = [p.name for p in params]
        assert len(names) == 4 and names[0] == "self" and names[3] == "eta", kind


@pytest.mark.parametrize("case", _draw_cases(), ids=lambda c: c[0])
def test_a_drawn_batch_is_a_pure_function_of_its_handle(case):
    # a held batch answers as a fresh draw of its handle does, after another
    # handle was drawn too; a problem that draws nothing returns None
    _, factory, oracle = case
    stream = RngStream(9, 0)
    a, b = stream.next_handle(5), stream.next_handle(5)
    x, z = np.linspace(-1.0, 2.0, 6), np.linspace(0.5, -0.5, 6)
    problem = factory()
    assert isinstance(problem, StochasticProblem)
    batch_a, batch_b = problem.draw(a), problem.draw(b)
    seen = [oracle(problem, x, batch_a), oracle(problem, z, batch_b),
            oracle(problem, z, batch_a)]

    def fresh(point, handle):
        other = factory()
        return oracle(other, point, other.draw(handle))

    for got, want in zip(seen, [fresh(x, a), fresh(z, b), fresh(z, a)]):
        assert np.array_equal(got, want)
    if batch_a is None:
        assert batch_b is None and np.array_equal(seen[1], seen[2])
    else:
        assert not np.array_equal(seen[1], seen[2])

