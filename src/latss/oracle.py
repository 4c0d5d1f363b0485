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

from .graphs import Graph, _check_latency, _check_thresholds, _vertex_set

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


def _first_seed(
    graph: Graph,
    thresholds: Sequence[int],
    latency: int,
    max_size: int,
    targets: Iterable[int],
    requirement: int,
) -> frozenset[int] | None:
    """First seed set activating every target and ``requirement`` vertices.

    Tries seed sets of at most ``max_size`` vertices by size, then
    lexicographically, and returns None when none succeeds.
    """
    if graph.n > DEFAULT_LIMIT:
        raise ValueError(
            f"instance has {graph.n} vertices; brute force is capped at {DEFAULT_LIMIT}"
        )
    n = graph.n
    _check_thresholds(n, thresholds)
    _check_latency(latency)
    tmask = sum(1 << v for v in _vertex_set(n, targets, "target"))
    masks = neighbor_masks(graph)
    for size in range(min(max_size, n) + 1):
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
    found = _first_seed(graph, thresholds, latency, graph.n, targets, 0)
    if found is None:
        raise AssertionError("unreachable: seeding all vertices is feasible")
    return found


def brute_decision(
    graph: Graph,
    thresholds: Sequence[int],
    latency: int,
    budget: int,
    requirement: int,
) -> tuple[bool, frozenset[int] | None]:
    """Can ``requirement`` vertices be activated with at most ``budget`` seeds?

    Returns the decision with a witness seed set (smallest, then
    lexicographic) or ``None``.
    """
    found = _first_seed(graph, thresholds, latency, budget, (), requirement)
    return found is not None, found


def brute_select_targets(
    graph: Graph,
    thresholds: Sequence[int],
    latency: int,
    budget: int,
    targets: Iterable[int],
) -> frozenset[int] | None:
    """Minimum seed set activating all targets, or ``None`` if it exceeds budget."""
    return _first_seed(graph, thresholds, latency, budget, targets, 0)
