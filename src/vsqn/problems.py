"""Experiment problems: synthetic stochastic quadratics with controlled
conditioning, logistic regression with l1/l2 terms, isotonic-constrained
least squares, an l1 location family for nonsmooth runs, a 2-D nonsmooth
benchmark with a known optimum, and a sparse text dataset loader.

Every problem answers ``draw(handle)``, the reduced draw of one batch,
and ``batch_gradient(x, batch, eta)`` on it, at the smoothing levels its
``meta.smoothing`` declares (``core.StochasticProblem``); one that smooths
nothing takes eta and never reads it.  A composite's draw is the
sample-average composite frozen on the batch
(``QuadraticEnsemble.frozen_batch``).  All draws take
their randomness from a replayable SampleHandle and reduce in fixed index
order, so replays are bit-identical (a quadratic's noise draw is an exact
integer sum, which has no order: a large one is summed as two spans on
two threads where two CPUs are free, with the bits of the serial sum).
The solver loop holds the draw of the step before, so re-evaluating that
batch at another point (a curvature pair) draws nothing.  A quadratic's
draw, ``_noise_factors``, is a pure function of (handle, n, noise), and
one module-level memo (``_StreamMemo``) keeps its costly results for the
most recent sample stream: runs on common random numbers, such as the
ill-conditioning cells of one seed, each build their own problem, and
every run after the first takes a shared handle's noise factors from the
memo, bit for bit, instead of drawing them again.
The row-sampled problems (logistic, isotonic) hold a batch of at least a
quarter of their N data rows as per-row draw counts and reduce it in one
count-weighted pass over the data, so such a draw and its gradient take
O(N + n) memory whatever the batch size.
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple, Optional

import numpy as np

from .core import Array, ConfigError, ProblemMeta, SampleHandle, assert_finite
from .smoothing import (
    CompositeProxFunction,
    huber_l1,
    huber_l1_grad,
    lse_smooth_max,
)


# ---------------------------------------------------------------------------
# stochastic quadratics
# ---------------------------------------------------------------------------

# elements per streamed chunk of a draw: quadratic noise factors or counted
# row indices (128 KiB, an L2 fit)
_DRAW_CHUNK = 1 << 14
# rows of 53-bit uniform numerators a uint64 sum holds exactly: 2^11 2^53 = 2^64
_EXACT_ROWS = 1 << 11
# a quadratic chunk's rows are summed as (rows / _FOLD) rows of _FOLD * n
# words, then _FOLD rows of n: two reduces over few rows, not one over many
_FOLD = 32
# a row draw of at least N / _COUNT_FRACTION of N data rows is held as counts:
# past there one count-weighted pass over the N rows is cheaper than
# gathering the drawn ones (measured on the sparsity and c_smooth data sets)
_COUNT_FRACTION = 4
# a quadratic draw of at least this many words (about 0.5 ms) is summed as
# two spans on two threads when the process may run on two CPUs or more
_SPLIT_WORDS = 8 * _DRAW_CHUNK
try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform: serial draws
    _CPUS = 1
# bytes of noise factors the stream memo keeps at most (4 MiB); a 2M-sample
# geometric run at n = 20, as in criterion 10, keeps about 30 KB
_MEMO_BYTES = 1 << 22


class _RowCounts(NamedTuple):
    """A drawn batch as ``np.bincount(indices, minlength=N)`` and its size."""

    counts: Array
    size: int


def _draw_rows(handle: SampleHandle, N: int):
    """The rows of ``handle.batch`` draws with replacement from N, the
    indices ``integers(0, N, size=batch)`` gives: a slice for one row (a
    view of the data's layout), that index array below N / _COUNT_FRACTION
    rows, and from there its ``_RowCounts``.  Counts are accumulated over
    chunks of ``_DRAW_CHUNK`` indices, which continue one index stream: the
    bit generator carries its buffered half word from call to call."""
    batch = handle.batch
    if batch == 1:
        # through the stream's index block (SampleHandle.index)
        row = handle.index(N)
        return slice(row, row + 1)
    gen = handle.generator()
    if _COUNT_FRACTION * batch < N:
        return gen.integers(0, N, size=batch)
    counts = np.zeros(N, dtype=np.int64)
    for left in range(batch, 0, -_DRAW_CHUNK):
        counts += np.bincount(gen.integers(0, N, size=min(left, _DRAW_CHUNK)),
                              minlength=N)
    return _RowCounts(counts, batch)


def _numerator_sums(raw_words, batch: int, n: int) -> list:
    """The n exact column sums, as ints, of the (batch, n) numerators
    r >> 11 of the next batch * n words of ``raw_words`` (a bit generator's
    ``random_raw``): summed in uint64 over chunks of at most _EXACT_ROWS
    rows and _DRAW_CHUNK words, carried across chunks as a (high, low) word
    pair, so a span of any length streams in O(chunk) memory."""
    rows = max(1, min(_EXACT_ROWS, _DRAW_CHUNK // n))
    high, low = np.zeros(n, np.uint64), np.zeros(n, np.uint64)
    left = batch
    while left:
        c = min(left, rows)
        f = _FOLD if c >= _FOLD else 1
        c -= c % f  # a tail past the last whole fold is the next chunk
        block = raw_words(c * n)
        block >>= 11
        part = block.reshape(c // f, f * n).sum(axis=0).reshape(f, n).sum(axis=0)
        low += part
        high += low < part  # the carry out of the low word
        left -= c
    return [(h << 64) + l for h, l in zip(high.tolist(), low.tolist())]


def _two_span_sums(bit_generator, batch: int, n: int, split: int) -> list:
    """``_numerator_sums`` of the batch's rows as two spans: rows [0, split)
    on a handle's freshly seated ``bit_generator`` (its buffer is empty) in
    the caller, rows [split, batch) on a second thread, from a Philox of its
    own advanced to that span's first word (split is a multiple of 4 rows,
    so the span starts on a whole 4-word block for every n).  A worker's
    exception is raised here, and the worker has ended when this returns or
    raises."""
    state = bit_generator.state["state"]
    second = np.random.Philox(counter=state["counter"], key=state["key"])
    second.advance(split * n // 4)
    out = []

    def span():
        try:
            out.append(_numerator_sums(second.random_raw, batch - split, n))
        except BaseException as exc:
            out.append(exc)

    worker = threading.Thread(target=span)
    worker.start()
    try:
        head = _numerator_sums(bit_generator.random_raw, split, n)
    finally:
        worker.join()
    tail, = out
    if isinstance(tail, BaseException):
        raise tail
    return [a + b for a, b in zip(head, tail)]


def _noise_factors(handle: SampleHandle, n: int, noise: float) -> Array:
    """Mean of the batch's n noise factors as ``lo + width * ubar`` (numpy's
    uniform is ``lo + width * u``) rounded once, ubar the exact mean of the
    (batch, n) ``gen.random`` doubles u = (r >> 11) 2^-53 of the generator's
    raw words r.  The numerators r >> 11 are summed exactly
    (``_numerator_sums``); an exact sum has no order to reproduce, so every
    n streams in O(chunk) memory, and the rows may be summed in any split,
    on any thread, with the same bits.  A draw of at least _SPLIT_WORDS
    words on two or more CPUs is summed as two spans at once
    (``_two_span_sums``): two, because each live span holds a chunk and
    the memory test admits fewer than four live chunks.
    """
    gen = handle.generator()  # at noise 0 too: one generator per handle
    if noise == 0.0:
        return np.ones(n)
    lo = 1.0 - noise
    width = (1.0 + noise) - lo  # numpy's scale; may differ from 2*noise
    batch = handle.batch
    split = (batch // 2) & ~3 if _CPUS > 1 and batch * n >= _SPLIT_WORDS else 0
    if split:
        sums = _two_span_sums(gen.bit_generator, batch, n, split)
    else:
        sums = _numerator_sums(gen.bit_generator.random_raw, batch, n)
    scale = batch << 53  # int / int below is rounded once
    return np.array([lo + width * (s / scale) for s in sums])


class _StreamMemo:
    """``_noise_factors`` memoized for the most recent sample stream.

    Runs share no object, so runs on common random numbers (the illcond
    cells, criterion 10's roles) would each pay a shared handle's
    batch * n words; through the memo only the first does.  It holds one
    stream, the handle's (seed, stream_id): a draw from any other empties
    it first, so whether a draw hits never depends on how many runs came
    before.  It keeps the draws with noise > 0 and at least ``_DRAW_CHUNK``
    words, each made read-only, keyed on (start, batch, n, noise), and at
    most ``_MEMO_BYTES`` of factors: past that a draw is returned but not
    kept.  A hit returns the same bits a miss computes.
    """

    def __init__(self):
        self.stream: Optional[tuple] = None
        self.draws: dict = {}
        self.nbytes = 0

    def recall(self, handle: SampleHandle, n: int, noise: float) -> Array:
        stream = (handle.seed, handle.stream_id)
        if stream != self.stream:
            self.stream, self.draws, self.nbytes = stream, {}, 0
        if noise == 0.0 or handle.batch * n < _DRAW_CHUNK:
            return _noise_factors(handle, n, noise)
        key = (handle.start, handle.batch, n, noise)
        factors = self.draws.get(key)
        if factors is None:
            factors = _noise_factors(handle, n, noise)
            factors.flags.writeable = False
            if self.nbytes + factors.nbytes <= _MEMO_BYTES:
                self.draws[key] = factors
                self.nbytes += factors.nbytes
        return factors


_STREAM_MEMO = _StreamMemo()


class QuadraticEnsemble:
    """E[(1/2) x'Q(w)x + c(w)'x] with c(w) = -Q(w) x_true.

    The mean matrix has the requested spectrum (extremes pinned); each
    sample perturbs the eigenvalues multiplicatively with bounded mean-one
    noise, so every sample stays convex and the gradient noise scales with
    |x - x_true| (state-dependent).  Values are reported relative to the
    optimum, i.e. true_value(x) is exactly the optimality gap.  A batch's
    draw is its mean noise factors, ``_noise_factors`` through the stream
    memo (``_StreamMemo``), which may hand back a read-only array that
    another instance drew.
    """

    def __init__(self, frame: Array, eigs: Array, x_true: Array,
                 noise_half_width: float):
        self.frame = np.asarray(frame, dtype=float)
        self.eigs = np.asarray(eigs, dtype=float)
        self.x_true = np.asarray(x_true, dtype=float)
        self.noise = float(noise_half_width)
        if not (0 <= self.noise < 1):
            raise ConfigError("noise_half_width", f"must lie in [0, 1), got {self.noise!r}")
        n = self.eigs.size
        min_eig = float(self.eigs[0])
        max_eig = float(self.eigs[-1])
        self.meta = ProblemMeta(
            n=n,
            tau=min_eig if min_eig > 0 else None,
            lipschitz_L=max_eig,
            f_star=0.0,
            x_star=self.x_true.copy(),
        )

    # per-sample curvature range (noise widens the mean spectrum)
    @property
    def sample_tau(self) -> Optional[float]:
        t = self.meta.tau
        return None if t is None else t * (1.0 - self.noise)

    @property
    def sample_L(self) -> float:
        return self.meta.lipschitz_L * (1.0 + self.noise)

    def draw(self, handle: SampleHandle) -> Array:
        return _STREAM_MEMO.recall(handle, self.eigs.size, self.noise)

    def batch_gradient(self, x: Array, mean_factors: Array,
                       eta: Optional[float] = None) -> Array:
        """eta is taken and never read: ``meta.smoothing`` is None, so no
        scheme passes a level."""
        w = self.frame.T @ (np.asarray(x, float) - self.x_true)
        return self.frame @ (self.eigs * mean_factors * w)

    def frozen_batch(self, mean_factors: Array, h) -> CompositeProxFunction:
        """h plus the batch mean, the mean as Q = V diag(scaled) V' and
        c = Q x_true, built once a batch from its drawn factors, so a
        gradient is one product, Q u - c.  The noise factors reorder the
        eigenvalues: its ``lipschitz_L`` is the largest scaled one, which
        the inner prox solve's step must not pass.  Q is its ``hessian``:
        with it the prox of an l1 term ends in one exact Newton step on the
        support, which it returns only after an inner KKT test passes, and
        goes on with its momentum loop otherwise (``CompositeProxFunction``)."""
        scaled = self.eigs * mean_factors
        Q = (self.frame * scaled) @ self.frame.T
        c = Q @ self.x_true

        def grad(u):
            return Q @ u - c

        def value(u):
            d = np.asarray(u, float) - self.x_true
            return 0.5 * float(d @ (Q @ d))

        return CompositeProxFunction(h, value, grad, float(scaled.max()), Q)

    def true_gradient(self, x: Array) -> Array:
        w = self.frame.T @ (np.asarray(x, float) - self.x_true)
        return self.frame @ (self.eigs * w)

    def true_value(self, x: Array) -> float:
        w = self.frame.T @ (np.asarray(x, float) - self.x_true)
        return 0.5 * float(self.eigs @ (w * w))


def quad_make(n: int, kappa: float, convexity: str, rng,
              noise_half_width: float = 0.5) -> QuadraticEnsemble:
    """Random quadratic ensemble with pinned extreme eigenvalues.

    Strongly convex: spectrum uniform in [1, kappa] with 1 and kappa pinned.
    Merely convex: spectrum uniform in [0, kappa] with 0 and kappa pinned.
    """
    if n < 2:
        raise ConfigError("n", f"must be >= 2, got {n}")
    if not 1 <= kappa < np.inf:
        raise ConfigError("kappa", f"must be finite and >= 1, got {kappa!r}")
    if convexity not in ("SC", "C"):
        raise ValueError("convexity must be 'SC' or 'C'")
    gen = rng.generator()
    lo = 1.0 if convexity == "SC" else 0.0
    if n == 2:
        inner = np.empty(0)
    else:
        inner = gen.uniform(lo, kappa, size=n - 2)
    eigs = np.sort(np.concatenate([[lo, kappa], inner]))
    raw = gen.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    q *= np.sign(np.diag(r))
    x_true = gen.standard_normal(n)
    return QuadraticEnsemble(q, eigs, x_true, noise_half_width)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------


def _stable_sigmoid(t: Array) -> Array:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class LogisticProblem:
    """Sampled-average logistic loss with optional l2 and (smoothed) l1
    terms.  Sampling is with replacement over the data rows."""

    def __init__(self, features: Array, labels: Array, mu_l2: float = 0.0,
                 lambda_l1: float = 0.0, l1_smoothing: str = "none",
                 l1_eta: float = 1e-3):
        # C order: a row gathered by index or sliced has one layout
        self.features = np.ascontiguousarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if set(np.unique(self.labels)) - {-1.0, 1.0}:
            raise ValueError("labels must be -1/+1")
        if l1_smoothing not in ("huber", "none"):
            raise ConfigError("l1_smoothing", f"must be 'huber' or 'none', "
                                              f"got {l1_smoothing!r}")
        for name, weight in (("mu_l2", mu_l2), ("lambda_l1", lambda_l1)):
            if not 0 <= weight < np.inf:
                raise ConfigError(name, f"must be finite and >= 0, got {weight!r}")
        if lambda_l1 > 0 and l1_smoothing == "huber" and not 0 < l1_eta < np.inf:
            raise ConfigError("l1_eta", f"must be finite and > 0, got {l1_eta!r}")
        self.mu_l2 = float(mu_l2)
        self.lambda_l1 = float(lambda_l1)
        self.l1_smoothing = l1_smoothing
        self.l1_eta = float(l1_eta)
        self.N, n = self.features.shape
        # squared row norms block by block, with no second (N, n) array; a
        # row sums as it would in one whole np.sum(features**2, axis=1)
        rows = max(1, _DRAW_CHUNK // max(n, 1))
        row_norm_sq = max(float(np.max(np.sum(self.features[i:i + rows]**2, axis=1)))
                          for i in range(0, self.N, rows))
        L = row_norm_sq / 4.0 + self.mu_l2
        if self.lambda_l1 > 0 and l1_smoothing == "huber":
            L += self.lambda_l1 / self.l1_eta
        self.meta = ProblemMeta(
            n=n,
            tau=self.mu_l2 if self.mu_l2 > 0 else None,
            lipschitz_L=L if L > 0 else None,
            smoothing="smoothable",
        )

    def draw(self, handle: SampleHandle):
        return _draw_rows(handle, self.N)

    def _penalty_grad(self, x: Array, l1_eta: Optional[float] = None) -> Array:
        if self.lambda_l1 == 0:
            return self.mu_l2 * x
        eta = self.l1_eta if l1_eta is None else l1_eta
        if self.l1_smoothing == "huber" or l1_eta is not None:
            g = self.lambda_l1 * huber_l1_grad(x, eta)
        else:
            g = self.lambda_l1 * np.sign(x)
        # for finite x, 0 * x + g is g bit for bit, so mu_l2 = 0 skips it
        return g if self.mu_l2 == 0 else self.mu_l2 * x + g

    def _penalty_value(self, x: Array) -> float:
        v = 0.5 * self.mu_l2 * float(x @ x)
        if self.lambda_l1 > 0:
            if self.l1_smoothing == "huber":
                v += self.lambda_l1 * huber_l1(x, self.l1_eta)[0]
            else:
                v += self.lambda_l1 * float(np.sum(np.abs(x)))
        return v

    def _loss_grad(self, x: Array, rows) -> Array:
        """Mean loss gradient over the rows.  Of counts, one pass over the
        data weights row i by its count.  Of indices or a slice, as np.mean
        computes it (sum, then divide by the count) without its dispatch.
        Of one row, the sum is 0 + the row and the divide is by 1; 0 - r
        is 0 + (-r) bit for bit, a zero coming out as +0.  Its sigmoid is
        ``_stable_sigmoid``'s branch taken on a numpy scalar: the margin
        from the (1, n) product, which sums as the many-row one does, and
        ``np.exp``, which rounds as it does on an array."""
        if isinstance(rows, _RowCounts):
            s = _stable_sigmoid(-self.labels * (self.features @ x))
            return -(self.features.T @ (rows.counts * self.labels * s)) / rows.size
        xb = self.features[rows]
        vb = self.labels[rows]
        if len(vb) == 1:
            v = vb[0]
            t = -v * (xb @ x)[0]
            if t >= 0:
                s = 1.0 / (1.0 + np.exp(-t))
            else:
                e = np.exp(t)
                s = e / (1.0 + e)
            return 0.0 - xb[0] * (v * s)
        s = _stable_sigmoid(-vb * (xb @ x))
        return np.add.reduce(-(xb * (vb * s)[:, None]), axis=0) / len(vb)

    def batch_gradient(self, x: Array, rows,
                       eta: Optional[float] = None) -> Array:
        """eta, when given, Huber-smooths the l1 term in place of l1_eta."""
        x = np.asarray(x, dtype=float)
        return self._loss_grad(x, rows) + self._penalty_grad(x, eta)

    def full_gradient(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        rows = np.arange(self.N)
        return self._loss_grad(x, rows) + self._penalty_grad(x)

    def true_value(self, x: Array) -> float:
        x = np.asarray(x, dtype=float)
        margins = -self.labels * (self.features @ x)
        return float(np.mean(np.logaddexp(0.0, margins))) + self._penalty_value(x)


def make_synthetic_sparse_logistic(n: int, num_samples: int, rng,
                                   support_frac: float = 0.1,
                                   density: float = 0.05,
                                   mu_l2: float = 0.0,
                                   lambda_l1: float = 0.0,
                                   l1_smoothing: str = "none",
                                   l1_eta: float = 1e-3):
    """Binary sparse features with a planted sparse ground truth.

    Returns (problem, x_true); labels follow the logistic model at x_true.
    """
    if num_samples < 1:
        raise ConfigError("num_samples", f"must be >= 1, got {num_samples}")
    if not 0 <= density <= 1:
        raise ConfigError("density", f"a feature's chance of being 1 must lie "
                                     f"in [0, 1], got {density!r}")
    if not 0 <= support_frac <= 1:
        raise ConfigError("support_frac", f"must lie in [0, 1], got {support_frac!r}")
    gen = rng.generator()
    # the draw becomes the 0/1 features in place: no second (N, n) array
    features = gen.random((num_samples, n))
    np.less(features, density, out=features)
    support = round(support_frac * n)
    x_true = np.zeros(n)
    idx = gen.choice(n, size=support, replace=False)
    x_true[idx] = gen.uniform(1.0, 3.0, size=support) * gen.choice(
        [-1.0, 1.0], size=support
    )
    probs = _stable_sigmoid(features @ x_true)
    labels = np.where(gen.random(num_samples) < probs, 1.0, -1.0)
    problem = LogisticProblem(features, labels, mu_l2=mu_l2,
                              lambda_l1=lambda_l1, l1_smoothing=l1_smoothing,
                              l1_eta=l1_eta)
    return problem, x_true


def load_sparse_dataset(path, n: Optional[int] = None, **kwargs) -> LogisticProblem:
    """Parse 'label idx:val idx:val ...' rows (1-based indices).

    Labels must map onto {-1, +1}; 0/1 labels are mapped.  The dimension is
    inferred from the largest index unless given; a given n below that
    index is ConfigError("n").
    """
    rows = []
    labels = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad label {parts[0]!r}") from exc
            entries = []
            for token in parts[1:]:
                try:
                    idx_str, val_str = token.split(":")
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise ValueError(
                        f"line {lineno}: bad feature token {token!r}"
                    ) from exc
                if idx < 1:
                    raise ValueError(f"line {lineno}: indices are 1-based")
                entries.append((idx, val))
                max_index = max(max_index, idx)
            rows.append(entries)
            labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no records")
    if n is None:
        n = max_index
    elif max_index > n:
        raise ConfigError("n", f"{path}: feature index {max_index} exceeds n={n}")
    mapped = []
    for lineno, label in enumerate(labels, start=1):
        if label in (-1.0, 1.0):
            mapped.append(label)
        elif label == 0.0:
            mapped.append(-1.0)
        else:
            raise ValueError(f"record {lineno}: label {label} not in {{-1,+1,0,1}}")
    features = np.zeros((len(rows), n))
    for i, entries in enumerate(rows):
        for idx, val in entries:
            features[i, idx - 1] = val
    return LogisticProblem(features, np.asarray(mapped), **kwargs)


# ---------------------------------------------------------------------------
# isotonic-constrained least squares
# ---------------------------------------------------------------------------


def pava_project(x: Array) -> Array:
    """Euclidean projection onto {x_1 <= x_2 <= ... <= x_n} by pooling
    adjacent violating blocks."""
    x = np.asarray(x, dtype=float)
    means: list[float] = []
    counts: list[int] = []
    for v in x:
        means.append(float(v))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    out = np.empty_like(x)
    pos = 0
    for m, c in zip(means, counts):
        out[pos:pos + c] = m
        pos += c
    return out


def monotone_violation(x: Array) -> float:
    """max over i of (x_i - x_{i+1})_+ , zero when feasible."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return 0.0
    return float(np.maximum(x[:-1] - x[1:], 0.0).max())


class IsotonicLasso:
    """(1/2) sum_i |A_i x - b_i|^2 over the monotone cone, handled through
    squared-distance smoothing of the constraint indicator.

    Rows are sampled with replacement; the indicator penalty is
    deterministic and enters every sample, so per-sample functions remain
    convex with smoothness bounded by p*|A_i|^2 + 1/eta.
    """

    def __init__(self, A: Array, b: Array, eta: float = 1e-2):
        self.A = assert_finite(A, "A")
        self.b = assert_finite(b, "b")
        self.default_eta = float(eta)
        if not 0 < self.default_eta < np.inf:
            raise ConfigError("eta", f"must be finite and > 0, got {eta!r}")
        self.p, n = self.A.shape
        gram_norm = float(np.linalg.eigvalsh(self.A.T @ self.A)[-1])
        self.meta = ProblemMeta(n=n, lipschitz_L=gram_norm + 1.0 / self.default_eta,
                                smoothing="smoothable")

    def draw(self, handle: SampleHandle):
        return _draw_rows(handle, self.p)

    def _data_grad(self, x: Array, rows) -> Array:
        """Mean data gradient over the rows: of counts, one count-weighted
        pass over the data; of indices or a slice, over the gathered rows."""
        if isinstance(rows, _RowCounts):
            res = self.A @ x - self.b
            return self.p * (self.A.T @ (rows.counts * res)) / rows.size
        ab = self.A[rows]
        res = ab @ x - self.b[rows]
        return (self.p * ab * res[:, None]).mean(axis=0)

    def _penalty_grad(self, x: Array, eta: float) -> Array:
        return (x - pava_project(x)) / eta

    def batch_gradient(self, x: Array, rows,
                       eta: Optional[float] = None) -> Array:
        """eta, when given, smooths the constraint indicator in place of
        the problem's own level."""
        x = np.asarray(x, dtype=float)
        eta = self.default_eta if eta is None else eta
        return self._data_grad(x, rows) + self._penalty_grad(x, eta)

    def true_value(self, x: Array) -> float:
        x = np.asarray(x, dtype=float)
        res = self.A @ x - self.b
        d = x - pava_project(x)
        return 0.5 * float(res @ res) + float(d @ d) / (2.0 * self.default_eta)

    def violation(self, x: Array) -> float:
        return monotone_violation(x)


def make_isotonic(n: int, p: int, rng, eta: float = 1e-2) -> IsotonicLasso:
    """Design with a planted monotone signal: the first and last quarters
    of x0 ascend over [-10,0] and [0,10], the middle is zero, and
    b = A(x0 + noise), the noise normal with standard deviation 0.01."""
    if n < 4:
        raise ConfigError("n", f"must be >= 4, got {n}")
    if p < 1:
        raise ConfigError("p", f"must be >= 1, got {p}")
    gen = rng.generator()
    quarter = n // 4
    x0 = np.zeros(n)
    x0[:quarter] = np.sort(gen.uniform(-10.0, 0.0, size=quarter))
    x0[n - quarter:] = np.sort(gen.uniform(0.0, 10.0, size=quarter))
    A = gen.standard_normal((p, n))
    noise = gen.normal(0.0, 0.01, size=n)
    b = A @ (x0 + noise)
    return IsotonicLasso(A, b, eta=eta)


# ---------------------------------------------------------------------------
# l1 location family (nonsmooth, optionally strongly convex)
# ---------------------------------------------------------------------------


class L1LocationProblem:
    """f(x) = (sc/2)|x - c|^2 + E |x - c - u|_1 with u uniform noise.

    The optimum is exactly the center c with value n*w/2, so optimality
    gaps are analytic.  The Huber-smoothed sampled gradient has curvature
    at most sc + 1/eta, matching the smoothability contract exactly.
    """

    def __init__(self, center: Array, noise_half_width: float = 1.0,
                 sc_weight: float = 0.0):
        self.center = assert_finite(center, "center")
        self.w = float(noise_half_width)
        self.sc = float(sc_weight)
        if not 0 < 2.0 * self.w < np.inf:  # the draw's uniform(-w, w) spans 2w
            raise ConfigError("noise_half_width", f"must be > 0 with 2w finite, "
                                                  f"got {noise_half_width!r}")
        if not 0 <= self.sc < np.inf:
            raise ConfigError("sc_weight", f"must be finite and >= 0, got {sc_weight!r}")
        n = self.center.size
        self.meta = ProblemMeta(
            n=n,
            tau=self.sc if self.sc > 0 else None,
            f_star=n * self.w / 2.0,
            x_star=self.center.copy(),
            smoothing="smoothable",
        )

    def draw(self, handle: SampleHandle) -> Array:
        gen = handle.generator()
        return gen.uniform(-self.w, self.w, size=(handle.batch, self.center.size))

    def batch_gradient(self, x: Array, offsets: Array,
                       eta: Optional[float] = None) -> Array:
        """Subgradients of |.|_1, or with eta its Huber smoothing."""
        x = np.asarray(x, dtype=float)
        diffs = (x - self.center)[None, :] - offsets
        if eta is None:
            grads = np.sign(diffs)
        else:
            grads = huber_l1_grad(diffs, eta)
        return grads.mean(axis=0) + self.sc * (x - self.center)

    def true_value(self, x: Array) -> float:
        d = np.abs(np.asarray(x, float) - self.center)
        inside = d <= self.w
        per = np.where(inside, (d * d + self.w * self.w) / (2 * self.w), d)
        anchor = 0.5 * self.sc * float(np.sum((np.asarray(x, float) - self.center) ** 2))
        return float(per.sum()) + anchor


# ---------------------------------------------------------------------------
# 2-D nonsmooth benchmark with known optimum
# ---------------------------------------------------------------------------

LEWIS_OVERTON_A = np.array([[2.0, 1.0], [-2.0, 1.0], [0.0, 3.0]])
LEWIS_OVERTON_B = np.zeros(3)
LEWIS_OVERTON_OPT = np.array([0.0, -1.0])


def lewis_overton_oracle(x: Array, eta: float = 0.0):
    """(1/2)|x|^2 + max{2|x1| + x2, 3 x2}, written as a max of three affine
    forms and smoothed through log-sum-exp when eta > 0.

    eta = 0 returns the exact value and one subgradient (the gradient of a
    maximizing affine term)."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    x = np.asarray(x, dtype=float)
    if eta == 0.0:
        z = LEWIS_OVERTON_A @ x + LEWIS_OVERTON_B
        top = int(np.argmax(z))
        return 0.5 * float(x @ x) + float(z[top]), x + LEWIS_OVERTON_A[top]
    value, grad = lse_smooth_max(LEWIS_OVERTON_A, LEWIS_OVERTON_B, x, eta)
    return 0.5 * float(x @ x) + value, x + grad


class LewisOvertonProblem:
    """Deterministic smoothed view of the 2-D benchmark, exposed through
    the stochastic-oracle interface: its oracle draws nothing, so a
    batch's draw is None."""

    def __init__(self, eta: float = 0.05):
        if not 0 < eta < np.inf:
            raise ConfigError("eta", f"must be finite and > 0, got {eta!r}")
        self.eta = float(eta)
        gram = float(np.linalg.eigvalsh(LEWIS_OVERTON_A.T @ LEWIS_OVERTON_A)[-1])
        self.meta = ProblemMeta(
            n=2,
            tau=1.0,
            lipschitz_L=1.0 + gram / self.eta,
            f_star=-0.5,
            x_star=LEWIS_OVERTON_OPT.copy(),
            smoothing="smoothable",
        )

    def draw(self, handle: SampleHandle) -> None:
        return None

    def batch_gradient(self, x: Array, batch,
                       eta: Optional[float] = None) -> Array:
        """eta, when given, smooths the max term in place of self.eta."""
        return lewis_overton_oracle(x, self.eta if eta is None else eta)[1]

    def true_value(self, x: Array) -> float:
        return lewis_overton_oracle(x, 0.0)[0]


# ---------------------------------------------------------------------------
# composite problems (prox-friendly nonsmooth piece + sampled smooth piece)
# ---------------------------------------------------------------------------


class CompositeProblem:
    """h + E[F(., w)] with h prox-friendly and F a ``QuadraticEnsemble``,
    smooth and strongly convex per sample; envelope gradients of the
    sample-average composite are computed through an inner prox solve on
    the frozen batch.  Its meta states F's per-sample constants, a modulus
    and a bound that hold for every sampled composite (``ProblemMeta``)."""

    def __init__(self, h, smooth: QuadraticEnsemble):
        self.h = h
        self.smooth = smooth
        self.meta = ProblemMeta(
            n=smooth.meta.n,
            tau=smooth.sample_tau,
            lipschitz_L=smooth.sample_L,
            smoothing="moreau",
        )

    def draw(self, handle: SampleHandle) -> CompositeProxFunction:
        """The sample-average composite frozen on the batch, so its Q, and
        the Q + I/eta its prox forms once per eta, are built once a draw."""
        return self.smooth.frozen_batch(self.smooth.draw(handle), self.h)

    def batch_gradient(self, x: Array, composite: CompositeProxFunction,
                       eta: float) -> Array:
        """(x - prox of the sample-average composite)/eta."""
        x = np.asarray(x, dtype=float)
        u = composite.prox(x, eta)
        return (x - u) / eta

    def true_value(self, x: Array) -> float:
        return self.h.value(x) + self.smooth.true_value(x)
