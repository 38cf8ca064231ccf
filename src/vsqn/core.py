"""Shared numerical plumbing: reproducible counter-based random streams,
batch-size and steplength schedules, and the one oracle contract every
solver queries (``StochasticProblem``: a draw per handle, then gradients on
that batch; the solver loop, not the oracle, checks that each step is
finite).

A sample handle's generator is ``Philox(SeedSequence(seed,
spawn_key=(stream_id, start)))``.  Philox is counter-based: its whole state
is a key and a counter, and the key is a pure function of (seed,
stream_id, start).  So an ``RngStream`` keeps one generator and re-seats it
for each of its handles, with the key computed by SeedSequence's own hash
from a per-stream prefix; the draws are bit for bit those of a freshly
built generator.

A one-slot handle's sample index, ``generator().integers(0, N)``, is a pure
function of (seed, stream_id, start, N) too, so ``SampleHandle.index``
computes it for a block of consecutive starts in one numpy pass (the key
hash, Philox4x64-10 on the first counter, Lemire's bounded draw) and takes
the generator only where that pass cannot be sure of numpy's answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Protocol, runtime_checkable

import numpy as np

Array = np.ndarray

# per schedule kind, the fields it reads; any other field must keep its default
BATCH_READS = {"geometric": ("N0", "rate", "offset"),
               "polynomial": ("N0", "exponent", "offset"), "constant": ("N0",)}
SCALAR_READS = {"constant": ("base",), "power": ("base", "exponent", "offset")}
SMOOTHING_KINDS = (None, "smoothable", "moreau")
# the largest batch size N_k: past 2**53 a float names no single integer
MAX_BATCH = 2**53


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


class BatchCeilingError(ConfigError):
    """A batch schedule's N_k passed ``MAX_BATCH``; ``field`` names the
    schedule's growth field.  A budget-bounded run meets it mid-run."""


def assert_finite(x, what: str = "vector") -> Array:
    """Validate an API-boundary array: dense, real, no NaN/Inf."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(x)))[0])
        raise ValueError(f"{what} has a non-finite entry at index {bad}")
    return x


@dataclass
class ProblemMeta:
    """Known analytic constants of a problem instance.

    An optional field is None when the problem does not state it; a
    scheme whose default needs a missing constant raises ConfigError
    unless the config sets that default itself.  A "moreau" problem
    states tau and lipschitz_L for every sample function, not only for
    their mean: svs_sqn_moreau's eta cap and theorem step need them so.
    """

    n: int
    tau: Optional[float] = None          # strong-convexity modulus
    lipschitz_L: Optional[float] = None  # gradient Lipschitz constant
    f_star: Optional[float] = None
    x_star: Optional[Array] = None
    smoothing: Optional[str] = None      # oracle levels; see StochasticProblem

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n", f"dimension must be >= 1, got {self.n}")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be > 0 when given")
        if self.lipschitz_L is not None and self.lipschitz_L <= 0:
            raise ValueError("lipschitz_L must be > 0 when given")
        if (
            self.tau is not None
            and self.lipschitz_L is not None
            and self.lipschitz_L < self.tau
        ):
            raise ValueError("lipschitz_L must be >= tau")
        if self.smoothing not in SMOOTHING_KINDS:
            raise ValueError(f"smoothing must be one of {SMOOTHING_KINDS}")


def _seed_sequence_generator(seed: int, stream_id: int,
                             start: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id, start))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): hashmix call
# j (from 1) xors the word with INIT_A * MULT_A**(j-1) and multiplies it by
# INIT_A * MULT_A**j; output word i of generate_state does the same with
# INIT_B, MULT_B and powers i, i+1; mix(x, y) = MIX_L x - MIX_R y; each
# product is folded by ``v ^= v >> 16``; all in uint32.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constant(init: int, mult: int, power: int) -> int:
    return init * pow(mult, power, 1 << 32) & _MASK32


# The entropy of SeedSequence(seed, spawn_key=(stream_id, start)) is the
# seed's words padded to four, then stream_id, then start: six words when
# each fits its slots.  The start word enters last, through hashmix calls
# 21-24, one per pool word; per pool word i: (hashmix xor, hashmix
# multiplier, output xor, output multiplier).
_START_CONSTANTS = tuple(
    (_hash_constant(_INIT_A, _MULT_A, 20 + i), _hash_constant(_INIT_A, _MULT_A, 21 + i),
     _hash_constant(_INIT_B, _MULT_B, i), _hash_constant(_INIT_B, _MULT_B, i + 1))
    for i in range(4)
)
_ZEROS4 = (0, 0, 0, 0)


def _philox_key(lanes: tuple, start):
    """The two Philox key words of SeedSequence(seed, spawn_key=(stream_id,
    start)).generate_state(2, uint64), from the stream's ``lanes``.

    ``start`` is an int or a uint64 array of starts below 2**32; every
    product stays below 2**64, so uint64 arithmetic wraps only in the
    subtraction, which the mask reduces mod 2**32 as for ints."""
    words = []
    for mixed, hash_xor, hash_mult, out_xor, out_mult in lanes:
        h = (start ^ hash_xor) * hash_mult & _MASK32
        r = (mixed - _MIX_R * (h ^ h >> 16)) & _MASK32
        v = (r ^ r >> 16 ^ out_xor) * out_mult & _MASK32
        words.append(v ^ v >> 16)
    return words[0] | words[1] << 32, words[2] | words[3] << 32


# Philox4x64-10 (Random123, as numpy/random/src/philox/philox.h runs it):
# round multipliers and the key bump
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
# consecutive starts per pass of the index block
_INDEX_BLOCK = 2048


def _mulhilo(a: int, b: Array) -> tuple:
    """High and low words of the 128-bit product of the constant ``a`` and
    the uint64 array ``b``; the high word is summed from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    carry = ((lo_lo >> 32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)) >> 32
    return a_hi * b_hi + (hi_lo >> 32) + (lo_hi >> 32) + carry, a * b


def _index_block(lanes: tuple, first: int, N: int) -> list:
    """``integers(0, N)`` of the generators seated at the ``_INDEX_BLOCK``
    starts from ``first``, with -1 where only the generator can answer;
    [] where the block does not apply: no prefix (``lanes == ()``), N
    outside [1, 2**32) or starts that reach 2**32.

    A re-seated generator's first block is Philox on counter (1, 0, 0, 0);
    ``integers(0, N)`` takes the low 32 bits u of its word 0 and returns
    (u N) >> 32 (Lemire) unless the low word of u N is below 2**32 mod N,
    when it draws again; ``< N`` is a superset of that rejection zone.
    N = 1 draws nothing and returns 0, which (u N) >> 32 is.
    """
    if not lanes or not 1 <= N <= _MASK32 or first + _INDEX_BLOCK > 1 << 32:
        return []
    k0, k1 = _philox_key(lanes, np.arange(first, first + _INDEX_BLOCK,
                                          dtype=np.uint64))
    # round 1 on counter (1, 0, 0, 0): the products are M0 and 0
    c0, c1, c2, c3 = k0, 0, k1, _PHILOX_M0
    for _ in range(9):
        k0 = k0 + _PHILOX_W0
        k1 = k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    m = (c0 & _MASK32) * N
    return np.where((m & _MASK32) < N, -1, (m >> 32).astype(np.int64)).tolist()


@dataclass(frozen=True)
class SampleHandle:
    """Replayable descriptor of one batch of oracle randomness.

    The handle stores the stream coordinates, not the drawn samples, so
    memory stays bounded for very large batches.  ``generator()`` returns a
    generator positioned at the handle's slot; replaying it yields
    bit-identical draws, which lets the same realizations be re-evaluated
    at a different point (curvature pairs need exactly this).

    A handle made by an ``RngStream`` returns that stream's one generator,
    re-seated at the handle's slot: it is valid until the next
    ``generator()`` or ``index()`` call on any handle of the same stream,
    so draw from it at once.  A handle built on its own returns an
    independent generator.

    ``index(N)`` is ``generator().integers(0, N)``, the one draw a
    one-slot integer sample needs; a stream's handle answers it from a
    block computed for its consecutive starts, so such a draw may skip
    ``generator()`` altogether.

    Handles are frozen and compare by value (the stream takes no part).  A
    problem's ``draw`` reduces a handle to its batch (row indices or
    counts, mean noise factors, a composite frozen on them) and the solver
    loop holds that batch for the pair after it, so a run draws each handle
    once.  A quadratic's draw, ``problems._noise_factors``, is also
    memoized across runs for the most recent (seed, stream_id), keyed on
    (start, batch, n, noise), so a run that replays that stream draws none
    of its costly batches (``problems._StreamMemo``).

    A problem must consume the generator with a fixed recipe (same calls,
    same shapes) for a given batch size; the recipe may not depend on the
    query point.
    """

    seed: int
    stream_id: int
    start: int
    batch: int
    stream: Optional[RngStream] = field(default=None, compare=False, repr=False)

    def generator(self) -> np.random.Generator:
        if self.stream is None:
            return _seed_sequence_generator(self.seed, self.stream_id, self.start)
        return self.stream._seat(self.start)

    def index(self, N: int) -> int:
        """``generator().integers(0, N)``, as an int."""
        if self.stream is None:
            return int(self.generator().integers(0, N))
        return self.stream._index(self.start, N)


class RngStream:
    """Counter-based random stream; identical (seed, stream_id) replays
    the identical sequence of handles.

    The stream owns one generator.  Its first seat builds it through
    SeedSequence, so a stream used once (problem construction) does no
    other work; the second computes the per-stream hash prefix, and every
    later seat re-seats the generator's Philox key from it.  A seed of
    2**128 or more, a stream_id or start of 2**32 or more change
    SeedSequence's word count, and take the SeedSequence path.

    Sample indices (``SampleHandle.index``) come from the stream's last
    block of ``_INDEX_BLOCK`` consecutive starts for one bound N.  A draw
    just past the block (or just after a lone draw) computes the next one
    from the prefix; the seated generator answers a lone draw, one that
    follows no draw at the start before it, and every draw the block
    leaves open (``_index_block``).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.counter = 0
        self._generator: Optional[np.random.Generator] = None
        self._lanes: Optional[tuple] = None   # () when the prefix does not apply
        self._block: tuple = (0, 0, [])       # (first start, N, indices)

    def next_handle(self, batch: int) -> SampleHandle:
        batch = int(batch)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        handle = SampleHandle(self.seed, self.stream_id, self.counter, batch, self)
        self.counter += batch
        return handle

    def generator(self) -> np.random.Generator:
        """Generator of a one-slot handle (valid as ``SampleHandle`` says)."""
        return self.next_handle(1).generator()

    def _prefix(self) -> tuple:
        """The per-stream hash lanes; () when the prefix does not apply."""
        if self._lanes is None:
            self._lanes = ()
            if self.seed >> 128 == 0 and self.stream_id <= _MASK32:
                # the mixer state before the start word
                pool = np.random.SeedSequence(
                    self.seed, spawn_key=(self.stream_id,)).pool
                self._lanes = tuple((_MIX_L * int(word),) + consts
                                    for word, consts in zip(pool, _START_CONSTANTS))
        return self._lanes

    def _seat(self, start: int) -> np.random.Generator:
        gen = self._generator
        if gen is None:
            gen = _seed_sequence_generator(self.seed, self.stream_id, start)
            self._generator = gen
            return gen
        lanes = self._prefix()
        if not lanes or start > _MASK32:
            return _seed_sequence_generator(self.seed, self.stream_id, start)
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS4, "key": _philox_key(lanes, start)},
            "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return gen

    def _index(self, start: int, N: int) -> int:
        first, bound, indices = self._block
        i = start - first
        if bound != N or not 0 <= i < len(indices):
            # a block pays off only for a run of one-slot draws: a draw
            # right after the last one starts a block, any other is lone
            run = bound == N and i == len(indices)
            indices = _index_block(self._prefix(), start, N) if run else []
            first, i = (start, 0) if indices else (start + 1, -1)
            self._block = (first, N, indices)
        if i >= 0 and indices[i] >= 0:
            return indices[i]
        return int(self._seat(start).integers(0, N))


@runtime_checkable
class StochasticProblem(Protocol):
    """The one oracle contract: ``draw(handle)``, then
    ``batch_gradient(x, batch, eta=None)`` on what it returns.

    ``draw`` reduces the sample functions ``handle`` names to a batch:
    whatever the gradient needs of them (None when it draws nothing).
    ``batch_gradient`` returns their average gradient, each smoothed at
    level ``eta`` (None: unsmoothed), as a pure function of (x, batch, eta),
    so the caller may evaluate one batch at several points.  The solver
    loop always calls it with all three, eta None where it smooths nothing.
    ``meta.smoothing`` declares the levels it takes: None, eta is None;
    "smoothable", None or eta; "moreau", eta only (the gradient of the
    eta-Moreau envelope of the whole sample-average function).  The batch
    gradient is the only gradient a problem computes on a batch; the
    problems that take outside data reject non-finite values at
    construction.
    """

    meta: ProblemMeta

    def draw(self, handle: SampleHandle): ...

    def batch_gradient(self, x: Array, batch,
                       eta: Optional[float] = None) -> Array: ...


def _ceil_stable(v: float) -> int:
    """Ceiling with protection against representation noise at integers."""
    nearest = round(v)
    if abs(v - nearest) <= 1e-9 * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.ceil(v))


def _check_reads(schedule, reads: dict) -> None:
    """ConfigError naming an unknown kind or an unread field off its default."""
    if schedule.kind not in reads:
        raise ConfigError("kind", f"unknown schedule kind {schedule.kind!r}; "
                                  f"choose one of {', '.join(reads)}")
    read = reads[schedule.kind]
    for f in fields(schedule):
        if f.name not in ("kind", *read) and getattr(schedule, f.name) != f.default:
            raise ConfigError(f.name, f"a {schedule.kind} schedule does not read "
                                      f"it; it reads {', '.join(read)}")


@dataclass(frozen=True)
class BatchSchedule:
    """Sample-size rule N_k.

    kinds (the fields each reads are ``BATCH_READS``):
      geometric:  N_k = ceil(N0 * rate**-(k+offset)),   rate in (0, 1)
      polynomial: N_k = ceil(N0 * (k+offset)**exponent), exponent > 0
      constant:   N_k = N0

    N_k may not pass ``MAX_BATCH``: an N0 above it is ConfigError("N0"),
    and ``eval`` raises BatchCeilingError naming the growth field (``rate``
    or ``exponent``) at a k whose N_k would pass it.
    """

    kind: str
    N0: int = 1
    rate: Optional[float] = None
    exponent: Optional[float] = None
    offset: int = 0

    def __post_init__(self):
        _check_reads(self, BATCH_READS)
        if not 1 <= self.N0 <= MAX_BATCH:
            raise ConfigError("N0", f"must lie in [1, 2**53], got {self.N0}")
        if self.offset < 0:
            raise ConfigError("offset", "must be >= 0")
        if self.kind == "geometric":
            if self.rate is None or not (0.0 < self.rate < 1.0):
                raise ConfigError("rate", "a geometric schedule needs it in (0, 1)")
        if self.kind == "polynomial":
            if self.exponent is None or not 0 < self.exponent < math.inf:
                raise ConfigError("exponent", "a polynomial schedule needs it "
                                              "finite and > 0")

    def eval(self, k: int) -> int:
        if k < 0:
            raise ValueError("iteration index must be >= 0")
        t = k + self.offset
        if self.kind == "constant":
            return self.N0
        geometric = self.kind == "geometric"
        try:
            v = self.N0 * (self.rate ** (-t) if geometric
                           else float(t) ** self.exponent)
        except OverflowError:
            v = math.inf
        if not v <= MAX_BATCH:
            raise BatchCeilingError("rate" if geometric else "exponent",
                                    f"N_{k} = {v:.4g} samples passes 2**53")
        return max(1, _ceil_stable(v))


@dataclass(frozen=True)
class ScalarSchedule:
    """Scalar-parameter rule (steplengths, rvs_sqn's regularization weight).

    kinds (the fields each reads are ``SCALAR_READS``):
      constant: base
      power:    base * max(k+offset, 1)**exponent
    """

    kind: str
    base: float
    exponent: float = 0.0
    offset: int = 0

    def __post_init__(self):
        _check_reads(self, SCALAR_READS)
        if not 0 < self.base < math.inf:
            raise ConfigError("base", "must be finite and > 0")
        if not math.isfinite(self.exponent):
            raise ConfigError("exponent", "must be finite")

    def eval(self, k: int) -> float:
        if self.kind == "constant":
            return self.base
        t = max(k + self.offset, 1)
        return self.base * float(t) ** self.exponent

