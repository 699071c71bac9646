"""Host-speed calibration: a fixed pure-Python kernel timed between queries.

On a shared host the speed of one core drifts by tens of percent within
seconds and between minutes, because other tenants share its cores and
caches; process CPU time drifts with it, so it is no cure. A worker times
this kernel every CAL_EVERY_S of queries (outside the queries' own times)
and divides each query's time by its ``local_factors`` entry: the mean
kernel time within CAL_WINDOW_S of the query, over REF_S. Every reported
time is thus a time at one reference speed, the speed at which the kernel
takes REF_S, and a change to veq moves it as much as it moves the raw
times. The kernel owes nothing to veq, leaves no cyclic garbage and runs
with the collector off, so veq's code and heap cannot change its time; it
allocates and looks up much as veq does, so a busy host slows it about as
much as it slows veq. Raw times stay in the result records next to the
scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import random
from fractions import Fraction
from time import perf_counter

REF_S = 0.004  # kernel time at the reference speed (a 2.x GHz Xeon vCPU)
CAL_EVERY_S = 0.1  # query time between two kernel timings in a timed phase
CAL_WINDOW_S = 2.0  # a query's speed is that of the kernel timings this near
SETUP_SLICES = 12  # kernel timings after a worker's set-up

# Work of the kind veq does, written without it: term trees evaluated on
# every assignment through a memo dict, exact rational sums, and sets and
# sorts of short words. Seeded, so every call does the same work.


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


def _tree(rng, depth):
    if depth == 0:
        return rng.randrange(3)
    return _Node(_tree(rng, depth - 1), _tree(rng, rng.randrange(depth)))


def _eval(t, env, memo):
    if type(t) is int:
        return env[t]
    key = (id(t), env)
    v = memo.get(key)
    if v is None:
        v = memo[key] = (2 * _eval(t.left, env, memo) + _eval(t.right, env, memo) + 1) % 3
    return v


_ENVS = list(itertools.product(range(3), repeat=3))


def kernel() -> int:
    rng = random.Random(7)
    trees = [_tree(rng, 6) for _ in range(8)]
    memo: dict = {}
    acc = sum(_eval(t, env, memo) for env in _ENVS for t in trees)
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction((-1) ** i, i * i + 1)
    words = [tuple(rng.randrange(4) for _ in range(6)) for _ in range(400)]
    return acc + total.numerator % 97 + len(set(words)) + len(sorted(words))


def slice_s() -> float:
    """One timing of the kernel, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float]) -> float:
    """How much slower than the reference speed the host ran: > 1 is slower."""
    return sum(samples) / len(samples) / REF_S


def local_factors(samples: list[tuple[float, float]], times: list[float]) -> list[float]:
    """The factor at each of `times`, from the (time, duration) kernel
    samples within CAL_WINDOW_S of it; from all samples if none is that near."""
    at = [t for t, _ in samples]
    out = []
    for t in times:
        lo = bisect.bisect_left(at, t - CAL_WINDOW_S)
        hi = bisect.bisect_right(at, t + CAL_WINDOW_S)
        near = [dt for _, dt in samples[lo:hi]] or [dt for _, dt in samples]
        out.append(factor(near))
    return out
