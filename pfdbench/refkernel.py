"""Reference kernel: a fixed pure-Python job whose run time tracks host speed.

The benchmark runs this kernel before and after every timed interval and
scales the interval by ``NOMINAL_S / measured``, so a host that runs slower
for a while slows the kernel by the same share and the scaled time stays put.

The host this was tuned on switches between a fast and a slow state every few
seconds.  A kernel on a small, cache-resident working set slowed by 1.8x
between the two, while the factorizer slowed by only 1.4x, so scaling by it
over-corrected.  This kernel therefore does what the factorizer does on a
mid-sized graph -- builds arc sets, adjacency tuples and closed-neighborhood
bitmasks, groups vertices by dict keys, tests mask inclusions through small
function calls, collects two-step neighborhoods into sets -- and allocates
fresh objects on every run; it slowed by 1.4-1.5x.  It never imports the
package it calibrates.
"""

from __future__ import annotations

import gc
import random
import time

# Median kernel time on the machine the figures in README.md were taken on
# (2 vCPU, CPython 3.11).  Calibrated seconds are seconds at that speed.
NOMINAL_S = 0.0015

_SUB_RUNS = 3
_N = 96


def _make_arcs() -> list[tuple[int, int]]:
    rng = random.Random(0x5EED)
    pairs = {(rng.randrange(_N), rng.randrange(_N)) for _ in range(900)}
    return sorted(p for p in pairs if p[0] != p[1])


_ARCS = _make_arcs()


def _includes(small: int, big: int) -> bool:
    return small & big == small


def _job() -> int:
    n, arcs = _N, _ARCS
    arc_set = set(arcs)
    out_lists: list[list[int]] = [[] for _ in range(n)]
    out_mask = [1 << v for v in range(n)]
    in_mask = list(out_mask)
    for u, v in arc_set:
        out_lists[u].append(v)
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    out_adj = tuple(tuple(sorted(vs)) for vs in out_lists)
    classes: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        classes.setdefault((out_mask[v], in_mask[v]), []).append(v)
    hits = 0
    for u, v in arcs[:360]:
        mu, mv = out_mask[u], out_mask[v]
        cand = (mu | in_mask[u]) & (mv | in_mask[v])
        while cand:
            low = cand & -cand
            cand ^= low
            mz = out_mask[low.bit_length() - 1]
            if _includes(mu, mz) and _includes(mz, mv):
                hits += 1
    reach: dict[tuple[int, int], tuple[int, ...]] = {}
    for u in range(0, n, 3):
        seen = set(out_adj[u])
        for w in out_adj[u]:
            seen.update(out_adj[w])
        reach[(u, len(seen))] = tuple(sorted(seen))
    return hits + len(classes) + len(reach)


def measure() -> float:
    """Median wall time of a few kernel runs, with the cyclic GC paused so a
    collection of the caller's garbage is not billed to the kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_SUB_RUNS):
            start = time.perf_counter()
            _job()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    times.sort()
    return times[_SUB_RUNS // 2]
