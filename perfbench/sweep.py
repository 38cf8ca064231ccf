"""Shape sweep of single layer calls, timed in isolation.

``hessian.apply_us.n<N>.m<M>`` is the time of one two-loop ``H v`` with m
stored pairs in dimension n; ``core.generator_us`` is the time to turn a
sample handle into a positioned generator.  These are the numbers against
which a compact (Byrd-Nocedal-Schnabel) representation of H is adopted or
rejected.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from vsqn.core import SampleHandle
from vsqn.hessian import CurvaturePair, LbfgsMemory

APPLY_DIMS = (20, 500, 5000)
APPLY_DEPTHS = (1, 3, 5, 10)
BATCHES = 7
BATCH_SECONDS = 0.01


def per_call_us(fn) -> float:
    """Median over batches of the mean time of one call, in microseconds;
    calls per batch are doubled until a batch lasts BATCH_SECONDS."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= BATCH_SECONDS:
            break
        calls *= 2
    per_call = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls)
    return statistics.median(per_call) * 1e6


def filled_memory(n: int, m: int, gen: np.random.Generator) -> LbfgsMemory:
    """Memory of depth m holding m pairs with s.y > 0."""
    mem = LbfgsMemory(m)
    for i in range(m):
        s = gen.standard_normal(n)
        mem.push(CurvaturePair(s, s * gen.uniform(0.5, 2.0, size=n), 2 * i + 1))
    return mem


def shape_sweep(seed: int) -> dict:
    gen = np.random.default_rng(seed)
    out = {}
    for n in APPLY_DIMS:
        v = gen.standard_normal(n)
        for m in APPLY_DEPTHS:
            mem = filled_memory(n, m, gen)
            out[f"hessian.apply_us.n{n}.m{m}"] = per_call_us(lambda: mem.apply(v))
    handle = SampleHandle(seed, 0, 0, 1)
    out["core.generator_us"] = per_call_us(handle.generator)
    return out
