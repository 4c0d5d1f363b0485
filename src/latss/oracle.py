"""Brute-force exact solvers used as ground truth at desk scale.

The cascade rule is recoded here on neighbour bitmasks, deliberately
independent of :mod:`latss.graphs`, so differential tests exercise two
separate implementations of the same process.  Seed sets are enumerated
in increasing size and lexicographically within a size, which makes
every result deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph, _check_count, _check_thresholds, _vertex_set

DEFAULT_LIMIT = 20


def neighbor_masks(graph: Graph) -> list[int]:
    masks = [0] * graph.n
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
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


def brute_select(
    graph: Graph,
    thresholds: Sequence[int],
    latency: int,
    budget: int,
    targets: Iterable[int],
    requirement: int,
) -> frozenset[int] | None:
    """Fewest seeds within the budget activating every target and the requirement.

    Tries seed sets of at most ``budget`` vertices by size, then
    lexicographically, and returns the first that succeeds, or None.
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
    tmask = sum(1 << v for v in _vertex_set(n, targets, "target"))
    masks = neighbor_masks(graph)
    for size in range(min(budget, n) + 1):
        for comb in combinations(range(n), size):
            seed = 0
            for v in comb:
                seed |= 1 << v
            final = cascade(masks, thresholds, seed, latency)
            if final & tmask == tmask and final.bit_count() >= requirement:
                return frozenset(comb)
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
