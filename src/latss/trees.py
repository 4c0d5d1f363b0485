"""Linear-time exact solver for minimum seed sets on trees.

Processes vertices bottom-up (children strictly before parents).  For
each vertex it tracks when the vertex would activate using its subtree
alone (``time``), whether a descendant chain depends on this vertex's
parent (``path`` / ``max_path``), and how many children are active
early enough to help (``act``).  A vertex that must be activated
is either self-sufficient, seeded, or delegated to its parent, which is
then added to the set of vertices that must be activated.

One rule serves every vertex v with threshold t.  ``max_path`` is 1 plus
the largest child ``path`` and ``act`` counts the children active
before round ``latency - max_path``; both are 0 without children.  A
required v is seeded when ``max_path == latency``, when
``act <= t - 2``, or when ``act == t - 1`` at a root; otherwise, at
``act == t - 1``, it is delegated to its parent.
Latency 0 needs no case of its own (``max_path == latency`` seeds every
target), nor do childless vertices (t = 1 delegates, a larger t seeds).

Values above the latency bound all behave as "never", so times are
capped at ``latency + 1``; with that sentinel all arithmetic stays on
small ints.  Each vertex costs O(#children) thanks to a linear-time
selection of the t-th smallest child time, so a solve is O(V) overall.

The solver accepts any normalized thresholds.  Vertices needing more
than their degree can supply are seeded directly when required, and
vertices with threshold 0 self-activate at round 1; both extensions are
validated against brute force in the test suite rather than assumed.

Forests are accepted.  One breadth-first pass (:func:`~latss.graphs.root_forest`)
roots every component at its smallest vertex and rejects a graph with a
cycle.  Components never interact, so one children-first sweep over all
of them solves each independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable, Sequence

from .graphs import (
    Graph,
    _check_latency,
    _vertex_set,
    connected_components,  # unused here; perfbench/tracing.py rebinds it by this name
    is_forest,  # unused here; perfbench/tracing.py rebinds it by this name
    normalize_thresholds,
    root_forest,
    simulate,
)

_rng = Random(0x5EED)


def select_tth_smallest(values: Iterable[int], t: int) -> int:
    """t-th smallest element (1-based, with multiplicity), expected O(n).

    Classic randomized selection: partition around a random pivot and
    recurse into the side containing the answer.
    """
    vals = list(values)
    if not 1 <= t <= len(vals):
        raise ValueError(f"t={t} out of range for {len(vals)} values")
    if t == 1:
        return min(vals)
    if t == len(vals):
        return max(vals)
    k = t - 1
    while True:
        if len(vals) == 1:
            return vals[0]
        pivot = vals[_rng.randrange(len(vals))]
        below = [x for x in vals if x < pivot]
        if k < len(below):
            vals = below
            continue
        k -= len(below)
        ties = sum(1 for x in vals if x == pivot)
        if k < ties:
            return pivot
        k -= ties
        vals = [x for x in vals if x > pivot]


@dataclass(frozen=True)
class TreeSolveResult:
    """Seed set plus the per-vertex bookkeeping of one solve."""

    seeds: frozenset[int]
    time: tuple[int, ...]
    path: tuple[int, ...]
    max_path: tuple[int, ...]
    required: frozenset[int]  # targets plus every vertex delegated to


def solve_detailed(
    tree: Graph,
    thresholds: Sequence[int],
    latency: int,
    targets: Iterable[int],
) -> TreeSolveResult:
    """Minimum seed set activating every target within the latency bound.

    Accepts forests: components are solved independently, each rooted
    at its smallest vertex.  Raises ValueError on a graph with a cycle.
    """
    n = tree.n
    parent, order, _ = root_forest(tree)
    _check_latency(latency)
    required = set(_vertex_set(n, targets, "target"))
    thr = normalize_thresholds(tree, thresholds)

    inf = latency + 1
    time = [inf] * n
    path = [-1] * n
    max_path = [0] * n
    seeds: set[int] = set()

    adjacency = tree.adjacency
    for v in order:
        up = parent[v]
        kids = list(adjacency[v])
        if up is not None:
            kids.remove(up)
        t = thr[v]
        mp = act = 0
        if kids:
            times = [time[u] for u in kids]
            mp = 1 + max([path[u] for u in kids])
            cut = latency - mp
            act = len([x for x in times if x < cut])
            max_path[v] = mp
        if t == 0:
            time[v] = 1
        elif t <= len(kids):  # so kids, and with them times, are set
            time[v] = min(inf, 1 + select_tth_smallest(times, t))

        if v not in required:
            continue
        # act >= 0, so both act tests below imply t >= 1
        if mp == latency or act <= t - 2 or (act == t - 1 and up is None):
            seeds.add(v)
            time[v] = 0
        elif act == t - 1:  # parent must finish the job
            required.add(up)
            path[v] = mp

    return TreeSolveResult(
        frozenset(seeds),
        tuple(time),
        tuple(path),
        tuple(max_path),
        frozenset(required),
    )


def solve(
    tree: Graph,
    thresholds: Sequence[int],
    latency: int,
    targets: Iterable[int],
) -> frozenset[int]:
    return solve_detailed(tree, thresholds, latency, targets).seeds


@dataclass(frozen=True)
class TreeAudit:
    """Independent recomputation of the solver's per-vertex state.

    ``time_star[v]`` is the activation round of v in its own subtree
    when seeded with the solution restricted to that subtree (capped at
    latency+1); ``path_star``/``max_path_star`` recompute the
    parent-dependence values from those subtree cascades.  After a
    solve these must coincide with the solver's ``time``/``path``/
    ``max_path`` whenever thresholds satisfy 1 <= t(v) <= degree(v).
    """

    time_star: tuple[int, ...]
    path_star: tuple[int, ...]
    max_path_star: tuple[int, ...]


def audit(
    tree: Graph,
    thresholds: Sequence[int],
    latency: int,
    targets: Iterable[int],
    seeds: Iterable[int],
) -> TreeAudit:
    """Recompute per-vertex state from scratch via subtree cascades."""
    n = tree.n
    parent, order, _ = root_forest(tree)
    thr = normalize_thresholds(tree, thresholds)
    target_set = frozenset(targets)
    seed_set = frozenset(seeds)
    inf = latency + 1

    time_star = [inf] * n
    path_star = [-1] * n
    max_path_star = [0] * n

    subtree: dict[int, list[int]] = {}
    for v in order:
        kids = [w for w in tree.adjacency[v] if w != parent[v]]
        vs = [v]
        for u in kids:
            vs.extend(subtree[u])
        subtree[v] = vs

        # cascade inside the subtree, seeded with the solution restricted to it
        remap = {w: i for i, w in enumerate(vs)}
        sub = Graph(
            len(vs),
            [
                (remap[a], remap[b])
                for a in vs
                for b in tree.adjacency[a]
                if b in remap and a < b
            ],
        )
        sub_thr = [thr[w] for w in vs]
        sub_seed = [remap[w] for w in vs if w in seed_set]
        trace = simulate(sub, sub_thr, sub_seed, len(vs))
        rounds = [frozenset(vs[i] for i in s) for s in trace.rounds]
        if v in seed_set:
            time_star[v] = 0
        else:
            when = next((i for i, s in enumerate(rounds) if v in s), None)
            time_star[v] = inf if when is None else min(when, inf)

        if not kids:
            path_star[v] = 0 if v in target_set and v not in seed_set else -1
            continue
        mp = 1 + max(path_star[u] for u in kids)
        max_path_star[v] = mp
        j = latency - mp - 1
        active = rounds[min(j, len(rounds) - 1)] if j >= 0 else frozenset()
        helpers = active & set(kids)
        if (
            mp < latency
            and len(helpers) == thr[v] - 1
            and (v in target_set or mp > 0)
            and v not in seed_set
        ):
            path_star[v] = mp
        else:
            path_star[v] = -1

    return TreeAudit(
        tuple(time_star),
        tuple(path_star),
        tuple(max_path_star),
    )
