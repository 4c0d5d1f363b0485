"""Brute-force exact solvers used as ground truth at desk scale.

The cascade rule is recoded here on neighbour bitmasks, deliberately
independent of :mod:`latss.graphs`, so differential tests exercise two
separate implementations of the same process.  :func:`cascade` runs the
rule for one seed set.  :func:`brute_select` runs it for every seed set
of one size at once, bit-sliced: bit j of a vertex's *lane mask* stands
for the j-th seed set in ``itertools.combinations`` order, so one
big-int operation advances every seed set of that size.  It tries every
seed set, with no pruning, and its lanes are tested against
:func:`cascade`.  Seed sets are tried in increasing size and
lexicographically within a size, which makes every result
deterministic.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterable, Sequence

from .graphs import Graph, _check_count, _check_thresholds, _vertex_set

DEFAULT_LIMIT = 20


def neighbor_masks(graph: Graph) -> list[int]:
    masks = []
    for nb in graph.adjacency:
        mask = 0
        for w in nb:
            mask |= 1 << w
        masks.append(mask)
    return masks


def cascade(
    masks: Sequence[int],
    thresholds: Sequence[int],
    seed_mask: int,
    latency: int,
) -> int:
    """Bitmask of vertices active after ``latency`` rounds."""
    n = len(masks)
    active = seed_mask
    for _ in range(latency):
        add = 0
        for v in range(n):
            bit = 1 << v
            if active & bit:
                continue
            if (masks[v] & active).bit_count() >= thresholds[v]:
                add |= bit
        if not add:
            break
        active |= add
    return active


@cache
def _lanes(m: int, size: int) -> tuple[int, ...]:
    """Lane masks of vertices ``0..m-1`` over the ``size``-subsets of ``range(m)``.

    Bit j of entry v is set when v is in the j-th subset of
    ``combinations(range(m), size)``: the subsets holding vertex 0 come
    first, then those without it, each built from ``m - 1`` vertices.
    Kept for the process: every size at ``m = 20`` holds about 6 MB.
    """
    if size == 0 or size > m:
        return (0,) * m
    split = comb(m - 1, size - 1)
    with_first = _lanes(m - 1, size - 1)
    without = _lanes(m - 1, size)
    return ((1 << split) - 1,) + tuple(
        a | b << split for a, b in zip(with_first, without)
    )


def _at_least(t: int, xs: Sequence[int], full: int) -> int:
    """Lanes of ``full`` where at least ``t`` of the masks ``xs`` are set."""
    d = len(xs)
    if t > d:
        return 0
    # ge[j]: at least j of the masks so far.  After the i-th mask only
    # j >= t - d + i can still reach t, so smaller counts are dropped.
    ge = [full] + [0] * t
    lo = t - d
    for i, x in enumerate(xs, 1):
        for j in range(t if i > t else i, lo + i - 1 if lo + i > 1 else 0, -1):
            ge[j] |= ge[j - 1] & x
    return ge[t]


def brute_select(
    graph: Graph,
    thresholds: Sequence[int],
    latency: int,
    budget: int,
    targets: Iterable[int],
    requirement: int,
) -> frozenset[int] | None:
    """Fewest seeds within the budget activating every target and the requirement.

    Tries every seed set of at most ``budget`` vertices, by size, then
    lexicographically, and returns the first that succeeds, or None.
    All seed sets of one size run as one bit-sliced cascade (see the
    module docstring): each round, a vertex gains the lanes where at
    least its threshold of neighbours are active, until ``latency``
    rounds pass or no lane changes.  The rule is :func:`cascade`'s.
    """
    if graph.n > DEFAULT_LIMIT:
        raise ValueError(
            f"instance has {graph.n} vertices; brute force is capped at {DEFAULT_LIMIT}"
        )
    n = graph.n
    _check_thresholds(n, thresholds)
    _check_count(latency, "latency")
    _check_count(budget, "budget")
    _check_count(requirement, "requirement")
    tset = _vertex_set(n, targets, "target")
    # a threshold above the degree never fires
    live = [v for v in range(n) if thresholds[v] <= graph.degree(v)]
    for size in range(min(budget, n) + 1):
        full = (1 << comb(n, size)) - 1
        seeds = _lanes(n, size)
        active = list(seeds)
        for _ in range(latency):
            grown = active[:]
            for v in live:
                if active[v] != full:
                    grown[v] |= _at_least(
                        thresholds[v], [active[u] for u in graph.adjacency[v]], full
                    )
            if grown == active:
                break
            active = grown
        ok = _at_least(requirement, active, full)
        for v in tset:
            ok &= active[v]
        if ok:
            lane = (ok & -ok).bit_length() - 1
            return frozenset(v for v in range(n) if seeds[v] >> lane & 1)
    return None


def brute_min_target(
    graph: Graph,
    thresholds: Sequence[int],
    latency: int,
    targets: Iterable[int],
) -> frozenset[int]:
    """Smallest seed set activating every target within the latency bound.

    Returns the lexicographically smallest optimum.  Always succeeds:
    seeding all vertices is feasible.
    """
    found = brute_select(graph, thresholds, latency, graph.n, targets, 0)
    if found is None:
        raise AssertionError("unreachable: seeding all vertices is feasible")
    return found
