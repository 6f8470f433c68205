"""A fixed piece of pure-Python work that measures how fast the host runs now.

Other tenants of a shared host switch it between fast and slow stretches,
often a minute or more long, in which the same code takes about 1.5 times as
long.  A round times this work between its queries, outside their timed
regions, and scales each query's time by how much slower than nominal the
work ran just before and just after it.  The work does what pibisim's inner
loops do -- build frozen dataclass terms, hash them, memoise them in a dict,
recurse -- but shares no code with pibisim, so a change to pibisim cannot
move it.  It runs with the garbage collector off, so that the objects
pibisim keeps alive do not slow it either.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

# Median time of ``chunk`` on the reference machine (see README.md) in a fast
# stretch: query times measured at that speed are reported as measured.
NOMINAL_S = 0.060
TREES = 1000
DEPTH = 6


@dataclass(frozen=True, slots=True)
class _Node:
    tag: int
    left: object
    right: object


def _work() -> int:
    """Builds TREES random trees one after another and sizes each through a
    memo of its equal subtrees; only one tree is alive at a time, so the work
    adds nothing to a round's peak memory."""
    rng = random.Random(1)

    def build(depth):
        if depth == 0:
            return rng.randrange(8)
        right = build(depth - 1) if rng.random() < 0.5 else None
        return _Node(rng.randrange(4), build(depth - 1), right)

    def size(t, memo):
        if not isinstance(t, _Node):
            return 1
        n = memo.get(t)
        if n is None:
            n = memo[t] = 1 + size(t.left, memo) + size(t.right, memo)
        return n

    return sum(size(build(DEPTH), {}) for _ in range(TREES))


def chunk() -> float:
    """Seconds that the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
