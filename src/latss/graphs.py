"""Graphs, thresholds, and the activation-cascade simulator.

Vertices are dense integer ids ``0..n-1``; external vertex names are
mapped at the I/O boundary.  A cascade starts from a seed set and at
every round activates each vertex whose number of already-active
neighbours reaches its threshold.  All types are immutable after
construction and every function is pure, so shared instances are safe
to use from multiple threads.

Input checks live here alone: ``Graph`` checks its edges, and every engine
checks vertex ids, thresholds and latencies with ``_vertex_set``,
``_check_thresholds`` and ``_check_latency``: plain ints, never bools or floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from random import Random
from typing import Iterable, Sequence


class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    Edges are normalized to sorted pairs and deduplicated; adjacency
    lists are derived once at construction.  Entries other than two
    ints, self-loops and out-of-range endpoints are rejected.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if type(n) is not int or n < 0:
            raise ValueError("vertex count must be a non-negative int")
        es = set()
        for entry in edges:
            try:
                u, v = entry
            except (TypeError, ValueError):
                u = v = None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"bad edge entry {entry!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            es.add((u, v) if u < v else (v, u))
        self._fill(n, es)

    @classmethod
    def _from_normalized(cls, n: int, edges: set[tuple[int, int]]) -> "Graph":
        """A graph from pairs ``(u, v)`` with ``0 <= u < v < n``, taken unchecked.

        For edge sets this package builds itself; outside input goes
        through the checking constructor.
        """
        graph = cls.__new__(cls)
        graph._fill(n, edges)
        return graph

    def _fill(self, n: int, edges: set[tuple[int, int]]) -> None:
        self.n: int = n
        self.edges: frozenset[tuple[int, int]] = frozenset(edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nb)) for nb in adj
        )

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

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


def _breadth_first(graph: Graph) -> tuple[list[int | None], list[int], list[int]]:
    """Breadth-first search of each component from its smallest vertex.

    Returns ``(parent, order, starts)``: the vertex that reached each
    vertex (None at a start), every vertex as reached, component by
    component, and the index in ``order`` where each component starts.
    """
    n = graph.n
    adjacency = graph.adjacency
    parent: list[int | None] = [None] * n
    seen = bytearray(n)
    order: list[int] = []
    starts: list[int] = []
    head = 0
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        starts.append(len(order))
        order.append(start)
        while head < len(order):
            v = order[head]
            head += 1
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = v
                    order.append(w)
    return parent, order, starts


def connected_components(graph: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    _, order, starts = _breadth_first(graph)
    return [sorted(order[a:b]) for a, b in zip(starts, [*starts[1:], graph.n])]


def is_tree(graph: Graph) -> bool:
    return (
        graph.n >= 1
        and len(graph.edges) == graph.n - 1
        and len(connected_components(graph)) == 1
    )


def is_forest(graph: Graph) -> bool:
    return len(graph.edges) == graph.n - len(connected_components(graph))


def root_forest(graph: Graph) -> tuple[list[int | None], list[int], list[int]]:
    """Root every component of a forest at its smallest vertex.

    Returns ``(parent, order, roots)``: ``parent[v]`` is v's parent, or
    None at a root; ``order`` lists every vertex children-first (reverse
    breadth-first order); and ``roots`` has one root per component, by
    smallest vertex.  Raises ValueError when the graph has a cycle.
    """
    parent, order, starts = _breadth_first(graph)
    # a forest has exactly one edge fewer than vertices per component
    if len(graph.edges) != graph.n - len(starts):
        raise ValueError("input graph has a cycle")
    roots = [order[i] for i in starts]
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


def _vertex_set(n: int, vertices: Iterable[int], what: str) -> frozenset[int]:
    """The ids in ``0..n-1`` that ``vertices`` lists; ValueError on any other entry."""
    entries = tuple(vertices)
    # types first: an unhashable entry must not reach frozenset()
    if not set(map(type, entries)) <= {int}:
        bad = next(v for v in entries if type(v) is not int)
        raise ValueError(f"{what} vertex {bad!r} is not an int")
    chosen = frozenset(entries)
    low, high = min(chosen, default=0), max(chosen, default=n - 1)
    if low < 0 or high >= n:
        bad = low if low < 0 else high
        raise ValueError(f"{what} vertex {bad} out of range for n={n}")
    return chosen


def _check_latency(latency: int) -> None:
    if type(latency) is not int:
        raise ValueError(f"latency {latency!r} is not an int")
    if latency < 0:
        raise ValueError("latency must be non-negative")


def _check_thresholds(n: int, thresholds: Sequence[int]) -> None:
    if len(thresholds) != n:
        raise ValueError(f"expected {n} thresholds, got {len(thresholds)}")
    if not set(map(type, thresholds)) <= {int}:
        v = next(v for v, t in enumerate(thresholds) if type(t) is not int)
        raise ValueError(f"threshold at vertex {v} is not an int")
    if min(thresholds, default=0) < 0:
        v = next(v for v, t in enumerate(thresholds) if t < 0)
        raise ValueError(f"negative threshold at vertex {v}")


def normalize_thresholds(
    graph: Graph, thresholds: Sequence[int]
) -> tuple[int, ...]:
    """Cap each threshold at degree+1.

    A vertex whose threshold exceeds its degree plus one can never be
    activated by neighbours anyway, so capping leaves every solver's
    answer unchanged.
    """
    _check_thresholds(graph.n, thresholds)
    return tuple(
        map(min, thresholds, [len(nb) + 1 for nb in graph.adjacency])
    )


@dataclass(frozen=True)
class ActivationTrace:
    """Rounds of a cascade, stored as per-round activation deltas.

    ``steps[0]`` is the seed set and ``steps[i]`` holds the vertices that
    became active at round i, up to the first round that activates
    nothing: no later round activates anything either.  :attr:`deltas`
    and :attr:`rounds` pad to ``latency + 1`` entries (materialized;
    avoid on very long traces); :meth:`active_at` and :attr:`final`
    never pad.
    """

    steps: tuple[frozenset[int], ...]
    latency: int

    @property
    def seed(self) -> frozenset[int]:
        return self.steps[0]

    @cached_property
    def deltas(self) -> tuple[frozenset[int], ...]:
        return self.steps + (frozenset(),) * (self.latency + 1 - len(self.steps))

    @cached_property
    def rounds(self) -> tuple[frozenset[int], ...]:
        out = tuple(accumulate(self.steps, frozenset.union))
        return out + out[-1:] * (self.latency + 1 - len(out))

    @cached_property
    def final(self) -> frozenset[int]:
        return self.active_at(self.latency)

    def active_at(self, i: int) -> frozenset[int]:
        if not 0 <= i <= self.latency:
            raise IndexError(f"round {i} outside trace")
        return frozenset().union(*self.steps[: i + 1])


def simulate(
    graph: Graph,
    thresholds: Sequence[int],
    seed: Iterable[int],
    latency: int,
) -> ActivationTrace:
    """Run the cascade for ``latency`` rounds starting from ``seed``.

    Round i activates exactly the inactive vertices with at least
    threshold-many neighbours active at round i-1.  Neighbour counts
    are maintained incrementally, so total work is O(V + E), however
    large the latency: the run stops at the first round that activates
    nothing.
    """
    n = graph.n
    _check_thresholds(n, thresholds)
    _check_latency(latency)
    seed_set = _vertex_set(n, seed, "seed")

    active = bytearray(n)
    hits = [0] * n
    for v in seed_set:
        active[v] = 1
    for v in seed_set:
        for w in graph.adjacency[v]:
            hits[w] += 1

    steps: list[frozenset[int]] = [seed_set]
    # round 1's candidates include the threshold-0 vertices; after that a
    # vertex can only become ready when a neighbour has just fired
    newly = {w for w in range(n) if not active[w] and hits[w] >= thresholds[w]}
    while newly and len(steps) <= latency:
        for w in newly:
            active[w] = 1
        for w in newly:
            for x in graph.adjacency[w]:
                hits[x] += 1
        steps.append(frozenset(newly))
        newly = {
            x
            for w in newly
            for x in graph.adjacency[w]
            if not active[x] and hits[x] >= thresholds[x]
        }
    return ActivationTrace(tuple(steps), latency)


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
        n = self.graph.n
        _check_thresholds(n, self.thresholds)
        _check_latency(self.latency)
        if self.requirement is not None and self.targets is not None:
            raise ValueError("requirement and targets are mutually exclusive")
        if self.requirement is None and self.targets is None:
            raise ValueError("instance needs a requirement or a target set")
        if self.requirement is not None and self.budget is None:
            raise ValueError("the activation-count variant needs a budget")
        for field in ("budget", "requirement"):
            value = getattr(self, field)
            if value is not None and not (type(value) is int and 0 <= value <= n):
                raise ValueError(f"{field} must be an int in [0, {n}]")
        if self.targets is not None:
            object.__setattr__(self, "targets", _vertex_set(n, self.targets, "target"))

    @property
    def variant(self) -> str:
        """One of ``"lba"``, ``"lbA"``, ``"lA"``."""
        if self.requirement is not None:
            return "lba"
        return "lbA" if self.budget is not None else "lA"


def verify_solution(instance: Instance, selection: Iterable[int]) -> bool:
    """Check a seed set against the instance's own variant conditions.

    The budget holds if there is one, and within the latency bound the
    cascade reaches the requirement (or 0) and every target (or none).
    """
    chosen = frozenset(selection)
    final = simulate(
        instance.graph, instance.thresholds, chosen, instance.latency
    ).final
    return (
        (instance.budget is None or len(chosen) <= instance.budget)
        and len(final) >= (instance.requirement or 0)
        and (instance.targets or frozenset()) <= final
    )
