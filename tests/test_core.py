import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vsqn
import vsqn.solvers
from vsqn.core import (
    _INDEX_BLOCK,
    MAX_BATCH,
    BatchSchedule,
    ConfigError,
    ProblemMeta,
    RngStream,
    SampleHandle,
    ScalarSchedule,
)
from vsqn.problems import quad_make
from vsqn.solvers import SolverConfig, run


# --- schedules ---------------------------------------------------------------

def test_geometric_schedule_values():
    assert BatchSchedule("geometric", 1, rate=0.99).eval(0) == 1
    assert BatchSchedule("geometric", 1, rate=0.5).eval(3) == 8


def test_polynomial_schedule_value():
    assert BatchSchedule("polynomial", 2, exponent=2).eval(3) == 18


def test_constant_schedule():
    assert BatchSchedule("constant", 7).eval(123) == 7


def test_batch_past_the_ceiling_is_a_config_error_before_its_draw():
    sched = BatchSchedule("polynomial", 1, exponent=1000.0)
    assert [sched.eval(0), sched.eval(1)] == [1, 1]
    for k in (2, 5):  # 2**1000 is a float; 5**1000 overflows one
        with pytest.raises(ConfigError) as info:
            sched.eval(k)
        assert info.value.field == "exponent"
    assert BatchSchedule("constant", MAX_BATCH).eval(0) == MAX_BATCH
    # a budget may end a run before any such k, so the run raises on its way
    prob = quad_make(4, 10.0, "SC", RngStream(0, 1))
    with pytest.raises(ConfigError) as info:
        run(prob, SolverConfig("apg_baseline", sample_budget=10**6, batch=sched))
    assert info.value.field == "exponent"


def test_invalid_schedules_rejected_at_construction():
    for build, field in [
        (lambda: BatchSchedule("geometric", 1, rate=1.5), "rate"),
        (lambda: BatchSchedule("geometric", 0, rate=0.5), "N0"),
        (lambda: BatchSchedule("constant", MAX_BATCH + 1), "N0"),
        (lambda: BatchSchedule("polynomial", 1, exponent=-1.0), "exponent"),
        (lambda: BatchSchedule("polynomial", 1, exponent=1.0, offset=-1), "offset"),
        (lambda: BatchSchedule("nope", 1), "kind"),
        (lambda: ScalarSchedule("constant", -1.0), "base"),
        (lambda: ScalarSchedule("nope", 1.0), "kind"),
    ]:
        with pytest.raises(ValueError) as info:
            build()
        assert isinstance(info.value, ConfigError) and info.value.field == field


@pytest.mark.parametrize("build, field", [
    (lambda: BatchSchedule("polynomial", 1, exponent=2.0, rate=0.5), "rate"),
    (lambda: BatchSchedule("geometric", 1, rate=0.5, exponent=2.0), "exponent"),
    (lambda: BatchSchedule("constant", 1, offset=2), "offset"),
    (lambda: ScalarSchedule("constant", 1.0, exponent=-1.0), "exponent"),
    (lambda: ScalarSchedule("constant", 1.0, offset=2), "offset"),
], ids=["polynomial-rate", "geometric-exponent", "batch-constant-offset",
        "constant-exponent", "constant-offset"])
def test_schedule_field_its_kind_does_not_read_is_rejected(build, field):
    with pytest.raises(ConfigError) as info:
        build()
    assert info.value.field == field


def test_config_error_is_one_class():
    assert vsqn.ConfigError is ConfigError is vsqn.solvers.ConfigError


def test_schedule_field_its_kind_does_not_read_may_keep_its_default():
    assert BatchSchedule("constant", 3, rate=None, exponent=None, offset=0).eval(9) == 3
    assert ScalarSchedule("constant", 2.0, exponent=0.0, offset=0).eval(9) == 2.0


@settings(max_examples=50, deadline=None)
@given(
    rate=st.floats(min_value=0.05, max_value=0.99),
    n0=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=0, max_value=60),
)
def test_geometric_batches_non_decreasing(rate, n0, k):
    sched = BatchSchedule("geometric", n0, rate=rate)
    if n0 * rate ** -(k + 1) > MAX_BATCH:  # N_{k+1} passes the ceiling
        with pytest.raises(ConfigError) as err:
            sched.eval(k + 1)
        assert err.value.field == "rate"
    else:
        assert sched.eval(k + 1) >= sched.eval(k) >= 1


@settings(max_examples=50, deadline=None)
@given(
    expo=st.floats(min_value=0.1, max_value=3.0),
    n0=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=0, max_value=200),
)
def test_polynomial_batches_non_decreasing(expo, n0, k):
    sched = BatchSchedule("polynomial", n0, exponent=expo, offset=1)
    assert sched.eval(k + 1) >= sched.eval(k) >= 1


def test_power_schedule_positive_and_non_increasing():
    sched = ScalarSchedule("power", base=2.0, exponent=-0.5)
    values = [sched.eval(k) for k in range(1, 50)]
    assert all(v > 0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


# --- random streams and the oracle contract ---------------------------------

def test_handles_are_disjoint_and_counted():
    rng = RngStream(1, 0)
    h1 = rng.next_handle(10)
    h2 = rng.next_handle(5)
    assert (h1.start, h1.batch) == (0, 10)
    assert (h2.start, h2.batch) == (10, 5)
    assert rng.counter == 15


def test_same_stream_coordinates_replay_bitwise():
    a = SampleHandle(42, 3, 17, 100).generator().standard_normal(100)
    b = SampleHandle(42, 3, 17, 100).generator().standard_normal(100)
    assert np.array_equal(a, b)


def _seed_sequence_generator(seed, stream_id, start):
    ss = np.random.SeedSequence(seed, spawn_key=(stream_id, start))
    return np.random.Generator(np.random.Philox(ss))


def _draws(gen):
    # an unbounded 32-bit draw first: a bounded one rejects zero words, so
    # it would not see a stale Philox buffer or a stale half word
    return (gen.random(3, dtype=np.float32), gen.uniform(size=3),
            gen.integers(0, 2**62, size=2), gen.integers(0, 1000, size=5),
            gen.standard_normal(4))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**130)),
    stream_id=st.one_of(st.integers(0, 3), st.integers(0, 2**32 + 1)),
    start=st.one_of(st.integers(1, 2**20), st.integers(2**32 - 3, 2**32 + 2)),
)
def test_reseated_stream_generator_matches_seed_sequence(seed, stream_id, start):
    # the first seat builds the generator; the later ones re-seat it, except
    # on the SeedSequence fallback (a word count change: seed >= 2**128,
    # stream_id or start >= 2**32)
    stream = RngStream(seed, stream_id)
    handles = [stream.next_handle(start)] + [stream.next_handle(1) for _ in range(4)]
    for h in handles:
        got = _draws(h.generator())
        want = _draws(_seed_sequence_generator(seed, stream_id, h.start))
        for a, b in zip(got, want):
            assert np.array_equal(a, b), h


def test_stream_reseats_one_generator_and_a_lone_handle_gets_its_own():
    stream = RngStream(5, 2)
    first, second, third = (stream.next_handle(3) for _ in range(3))
    gen = first.generator()
    assert second.generator() is gen and third.generator() is gen
    assert np.array_equal(first.generator().uniform(size=3),
                          _seed_sequence_generator(5, 2, 0).uniform(size=3))
    lone = SampleHandle(5, 2, 0, 3)
    assert lone == first and hash(lone) == hash(first)   # the stream is not compared
    a, b = lone.generator(), lone.generator()
    assert a is not b and a is not gen
    assert np.array_equal(a.uniform(size=3), b.uniform(size=3))


# --- the index block of one-slot handles --------------------------------------

INDEX_BOUNDS = [1, 3, 1500, 2**31 + 1]   # the last rejects about half its draws


@pytest.mark.parametrize("N", INDEX_BOUNDS)
@pytest.mark.parametrize("stream_id", [0, 1])
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 2**64 + 5, 2**127 + 9])
def test_index_block_matches_seed_sequence_integers(seed, stream_id, N):
    # a lone draw at 0, a block from 1, then one-slot handles across its
    # edge at _INDEX_BLOCK + 1 (the batch handle between is not indexed)
    stream = RngStream(seed, stream_id)
    handles = [stream.next_handle(1) for _ in range(5)]
    stream.next_handle(_INDEX_BLOCK - 8)
    handles += [stream.next_handle(1) for _ in range(6)]
    assert handles[-2].start == _INDEX_BLOCK + 1
    for h in handles:
        want = _seed_sequence_generator(seed, stream_id, h.start).integers(0, N)
        assert h.index(N) == want, h


def _seated_draws(stream, N, batches):
    """The starts at which the one-slot draws of handles of these batch
    sizes took the seated generator; each draw is checked on the way."""
    calls = []
    seat = stream._seat
    stream._seat = lambda start: calls.append(start) or seat(start)
    for batch in batches:
        h = stream.next_handle(batch)
        if batch == 1:
            assert h.index(N) == _seed_sequence_generator(
                h.seed, h.stream_id, h.start).integers(0, N)
    return calls


def test_index_takes_the_generator_only_where_the_block_cannot_answer(monkeypatch):
    # a run of one-slot handles: the first is lone, a block serves the rest
    assert _seated_draws(RngStream(3, 0), 1500, [1] * 40) == [0]
    # one-slot handles between batches are lone, and the run after them
    # starts a block again
    assert _seated_draws(RngStream(3, 0), 1500, [1, 5, 1, 5, 1, 1, 1]) == [0, 6, 12]
    # about half the draws at 2**31 + 1 fall in the rejection zone
    assert 5 < len(_seated_draws(RngStream(3, 0), 2**31 + 1, [1] * 40)) < 35
    # no prefix (seed >= 2**128, stream_id >= 2**32), a bound of 2**32 or
    # more, starts near 2**32: every draw through the seated generator
    for stream, N in [(RngStream(2**128 + 1, 0), 1500), (RngStream(3, 2**32), 1500),
                      (RngStream(3, 0), 2**32), (RngStream(3, 0), 2**40)]:
        assert len(_seated_draws(stream, N, [1] * 40)) == 40
    late = RngStream(3, 0)
    late.counter = 2**32 - 20
    assert len(_seated_draws(late, 1500, [1] * 40)) == 40
    # a handle built on its own draws from its own generator
    calls = []
    original = SampleHandle.generator
    monkeypatch.setattr(SampleHandle, "generator",
                        lambda h: calls.append(h) or original(h))
    lone = SampleHandle(3, 0, 11, 1)
    assert lone.index(1500) == _seed_sequence_generator(3, 0, 11).integers(0, 1500)
    assert calls == [lone]


def test_index_leaves_the_shared_generator_valid_for_the_next_handle():
    stream = RngStream(8, 0)
    one, batch = stream.next_handle(1), stream.next_handle(4)
    assert one.index(2**31 + 1) == _seed_sequence_generator(8, 0, 0).integers(0, 2**31 + 1)
    assert np.array_equal(batch.generator().integers(0, 9, size=4),
                          _seed_sequence_generator(8, 0, 1).integers(0, 9, size=4))


def test_different_streams_differ():
    a = SampleHandle(42, 3, 17, 8).generator().standard_normal(8)
    b = SampleHandle(42, 4, 17, 8).generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_batch_gradient_replays_bitwise():
    prob = quad_make(6, 10.0, "SC", RngStream(7, 1))
    handle = RngStream(3, 0).next_handle(40)
    x = np.ones(6)
    g = prob.batch_gradient(x, prob.draw(handle))
    other = quad_make(6, 10.0, "SC", RngStream(7, 1))
    again = other.batch_gradient(x, other.draw(handle))
    assert np.array_equal(g, again)


def test_handle_reusable_at_a_different_point():
    prob = quad_make(6, 10.0, "SC", RngStream(7, 1))
    x = np.ones(6)
    handle = RngStream(3, 0).next_handle(40)
    prob.batch_gradient(x, prob.draw(handle))
    y = x + 0.5
    g1 = prob.batch_gradient(y, prob.draw(handle))
    g2 = prob.batch_gradient(y, prob.draw(handle))
    assert np.array_equal(g1, g2)


def test_zero_noise_batch_equals_exact_gradient():
    prob = quad_make(5, 4.0, "SC", RngStream(11, 1), noise_half_width=0.0)
    x = np.arange(5, dtype=float)
    g = prob.batch_gradient(x, prob.draw(RngStream(0, 0).next_handle(3)))
    assert np.allclose(g, prob.true_gradient(x), atol=1e-14)


def test_single_draw_replayable_independently():
    # batch=1 noisy gradient equals exact gradient plus the seeded draw,
    # reconstructed here directly from the handle's noise recipe
    prob = quad_make(4, 8.0, "SC", RngStream(5, 1), noise_half_width=0.4)
    handle = RngStream(9, 0).next_handle(1)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    g = prob.batch_gradient(x, prob.draw(handle))
    factors = handle.generator().uniform(0.6, 1.4, size=(1, 4))[0]
    w = prob.frame.T @ (x - prob.x_true)
    expected = prob.frame @ (prob.eigs * factors * w)
    assert np.array_equal(g, expected)


def test_mean_consistency_statistical():
    # empirical mean over many batches approaches the exact gradient at
    # roughly 1/sqrt(M * batch); assert at 4 sigma
    prob = quad_make(6, 10.0, "SC", RngStream(2, 1), noise_half_width=0.5)
    rng = RngStream(4, 0)
    x = np.full(6, 2.0)
    M, batch = 400, 10
    sums = np.zeros(6)
    per_batch = np.zeros((M, 6))
    for i in range(M):
        g = prob.batch_gradient(x, prob.draw(rng.next_handle(batch)))
        per_batch[i] = g
        sums += g
    mean = sums / M
    err = np.linalg.norm(mean - prob.true_gradient(x))
    sigma = np.sqrt(np.sum(per_batch.var(axis=0)) / M)
    assert err <= 4.0 * sigma


def test_non_finite_query_rejected():
    prob = quad_make(4, 5.0, "SC", RngStream(1, 1))
    cfg = SolverConfig("vs_sqn", horizon=2, x0=np.array([1.0, np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        run(prob, cfg)


def test_wrong_length_start_point_is_a_config_error_naming_x0():
    prob = quad_make(6, 5.0, "SC", RngStream(1, 1))
    cfg = SolverConfig("vs_sqn", horizon=5, x0=np.zeros(3))
    with pytest.raises(ConfigError) as info:
        run(prob, cfg)
    assert info.value.field == "x0"


# --- problem metadata --------------------------------------------------------

def test_meta_validation():
    with pytest.raises(ValueError):
        ProblemMeta(n=3, tau=2.0, lipschitz_L=1.0)
    with pytest.raises(ValueError):
        ProblemMeta(n=0)
    with pytest.raises(ValueError):
        ProblemMeta(n=3, smoothing="huber")
