"""Graphs, thresholds, and the activation-cascade simulator.

Vertices are dense integer ids ``0..n-1``; external vertex names are
mapped at the I/O boundary.  A cascade starts from a seed set and at
every round activates each vertex whose number of already-active
neighbours reaches its threshold.  All types are immutable after
construction and every function is pure, so shared instances are safe
to use from multiple threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from random import Random
from typing import Iterable, Sequence


class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    Edges are normalized to sorted pairs and deduplicated; adjacency
    lists are derived once at construction.  Self-loops and
    out-of-range endpoints are rejected.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        es = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            es.add((u, v) if u < v else (v, u))
        self.n: int = n
        self.edges: frozenset[tuple[int, int]] = frozenset(es)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nb)) for nb in adj
        )

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def connected_components(graph: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * graph.n
    comps: list[list[int]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_tree(graph: Graph) -> bool:
    return (
        graph.n >= 1
        and len(graph.edges) == graph.n - 1
        and len(connected_components(graph)) == 1
    )


def is_forest(graph: Graph) -> bool:
    return len(graph.edges) == graph.n - len(connected_components(graph))


def root_forest(
    graph: Graph, root: int = 0
) -> tuple[list[int | None], list[int], list[int]]:
    """Root every component of a forest in one breadth-first pass.

    The component of ``root`` is rooted at ``root``, every other
    component at its smallest vertex.  Returns ``(parent, order,
    roots)``: ``parent[v]`` is v's parent, or None at a root; ``order``
    lists every vertex children-first (reverse breadth-first order); and
    ``roots`` has one root per component, ``root`` first and the others
    by smallest vertex.  Raises ValueError when the graph has a cycle.
    """
    n = graph.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    adjacency = graph.adjacency
    parent: list[int | None] = [None] * n
    seen = bytearray(n)
    order: list[int] = []
    roots: list[int] = []
    head = 0
    for start in chain((root,), range(n)):
        if seen[start]:
            continue
        seen[start] = 1
        roots.append(start)
        order.append(start)
        while head < len(order):
            v = order[head]
            head += 1
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = v
                    order.append(w)
    # a forest has exactly one edge fewer than vertices per component
    if len(graph.edges) != n - len(roots):
        raise ValueError("input graph has a cycle")
    order.reverse()
    return parent, order, roots


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star with centre 0 and n-1 leaves."""
    return Graph(n, [(0, i) for i in range(1, n)])


def random_tree(n: int, rng: Random) -> Graph:
    """Uniform-ish random tree: vertex i attaches to a random earlier vertex."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def _check_thresholds(graph: Graph, thresholds: Sequence[int]) -> None:
    if len(thresholds) != graph.n:
        raise ValueError(
            f"expected {graph.n} thresholds, got {len(thresholds)}"
        )
    for v, t in enumerate(thresholds):
        if t < 0:
            raise ValueError(f"negative threshold at vertex {v}")


def normalize_thresholds(
    graph: Graph, thresholds: Sequence[int]
) -> tuple[int, ...]:
    """Cap each threshold at degree+1.

    A vertex whose threshold exceeds its degree plus one can never be
    activated by neighbours anyway, so capping leaves every solver's
    answer unchanged.
    """
    _check_thresholds(graph, thresholds)
    return tuple(
        min(t, graph.degree(v) + 1) for v, t in enumerate(thresholds)
    )


@dataclass(frozen=True)
class ActivationTrace:
    """Rounds of a cascade, stored as per-round activation deltas.

    ``deltas[0]`` is the seed set; ``deltas[i]`` holds the vertices that
    became active at round i.  Cumulative sets are exposed through
    :attr:`rounds` (materialized; avoid on very long traces) and
    :meth:`active_at` / :attr:`final` (cheap).
    """

    deltas: tuple[frozenset[int], ...]

    @property
    def latency(self) -> int:
        return len(self.deltas) - 1

    @property
    def seed(self) -> frozenset[int]:
        return self.deltas[0]

    @cached_property
    def rounds(self) -> tuple[frozenset[int], ...]:
        acc: set[int] = set()
        out = []
        for delta in self.deltas:
            if delta:
                acc |= delta
                out.append(frozenset(acc))
            else:
                out.append(out[-1] if out else frozenset())
        return tuple(out)

    @cached_property
    def final(self) -> frozenset[int]:
        acc: set[int] = set()
        for delta in self.deltas:
            acc |= delta
        return frozenset(acc)

    def active_at(self, i: int) -> frozenset[int]:
        if not 0 <= i <= self.latency:
            raise IndexError(f"round {i} outside trace")
        acc: set[int] = set()
        for delta in self.deltas[: i + 1]:
            acc |= delta
        return frozenset(acc)


def simulate(
    graph: Graph,
    thresholds: Sequence[int],
    seed: Iterable[int],
    latency: int,
) -> ActivationTrace:
    """Run the cascade for ``latency`` rounds starting from ``seed``.

    Round i activates exactly the inactive vertices with at least
    threshold-many neighbours active at round i-1.  Neighbour counts
    are maintained incrementally, so total work is O(V + E) plus the
    round loop, independent of how long the trace is.
    """
    n = graph.n
    _check_thresholds(graph, thresholds)
    if latency < 0:
        raise ValueError("latency must be non-negative")
    seed_set = frozenset(seed)
    for v in seed_set:
        if not 0 <= v < n:
            raise ValueError(f"seed vertex {v} out of range for n={n}")

    active = bytearray(n)
    hits = [0] * n
    for v in seed_set:
        active[v] = 1
    for v in seed_set:
        for w in graph.adjacency[v]:
            hits[w] += 1

    deltas: list[frozenset[int]] = [seed_set]
    frontier = seed_set
    empty: frozenset[int] = frozenset()
    for i in range(1, latency + 1):
        if i == 1:
            # t(v)=0 vertices join here regardless of neighbours.
            newly = {
                w
                for w in range(n)
                if not active[w] and hits[w] >= thresholds[w]
            }
        else:
            newly = {
                w
                for v in frontier
                for w in graph.adjacency[v]
                if not active[w] and hits[w] >= thresholds[w]
            }
        if not newly:
            deltas.extend([empty] * (latency - i + 1))
            break
        for w in newly:
            active[w] = 1
        for w in newly:
            for x in graph.adjacency[w]:
                hits[x] += 1
        deltas.append(frozenset(newly))
        frontier = newly
    return ActivationTrace(tuple(deltas))


@dataclass(frozen=True)
class Instance:
    """One problem instance; the populated optional fields fix the variant.

    * budget + requirement: activate at least ``requirement`` vertices
      within ``latency`` rounds using at most ``budget`` seeds.
    * budget + targets: activate every vertex of ``targets`` using at
      most ``budget`` seeds.
    * targets only: activate every vertex of ``targets`` with a
      minimum-size seed set.
    """

    graph: Graph
    thresholds: tuple[int, ...]
    latency: int
    budget: int | None = None
    requirement: int | None = None
    targets: frozenset[int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        _check_thresholds(self.graph, self.thresholds)
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.requirement is not None and self.targets is not None:
            raise ValueError("requirement and targets are mutually exclusive")
        if self.requirement is None and self.targets is None:
            raise ValueError("instance needs a requirement or a target set")
        if self.requirement is not None and self.budget is None:
            raise ValueError("the activation-count variant needs a budget")
        n = self.graph.n
        if self.budget is not None and not 0 <= self.budget <= n:
            raise ValueError(f"budget must lie in [0, {n}]")
        if self.requirement is not None and not 0 <= self.requirement <= n:
            raise ValueError(f"requirement must lie in [0, {n}]")
        if self.targets is not None:
            targets = frozenset(self.targets)
            for v in targets:
                if not 0 <= v < n:
                    raise ValueError(f"target vertex {v} out of range")
            object.__setattr__(self, "targets", targets)

    @property
    def variant(self) -> str:
        """One of ``"lba"``, ``"lbA"``, ``"lA"``."""
        if self.requirement is not None:
            return "lba"
        return "lbA" if self.budget is not None else "lA"


def verify_solution(instance: Instance, selection: Iterable[int]) -> bool:
    """Check a seed set against the instance's own variant conditions."""
    chosen = frozenset(selection)
    final = simulate(
        instance.graph, instance.thresholds, chosen, instance.latency
    ).final
    variant = instance.variant
    if variant == "lba":
        assert instance.budget is not None and instance.requirement is not None
        return len(chosen) <= instance.budget and len(final) >= instance.requirement
    if variant == "lbA":
        assert instance.budget is not None and instance.targets is not None
        return len(chosen) <= instance.budget and instance.targets <= final
    assert instance.targets is not None
    return instance.targets <= final
