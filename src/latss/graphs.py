"""Graphs, thresholds, and the activation-cascade simulator.

Vertices are dense integer ids ``0..n-1``; external vertex names are
mapped at the I/O boundary.  A cascade starts from a seed set and at
every round activates each vertex whose number of already-active
neighbours reaches its threshold.  All types are immutable after
construction and every function is pure, so shared instances are safe
to use from multiple threads.  The one value set later is a cache: a
``Graph`` built from adjacency lists derives its ``edges`` set on first
read, and threads that race to derive it store equal sets.

Input checks live here alone: ``Graph`` checks its edges, and every engine
checks vertex ids, thresholds, latencies, budgets and requirements with
``_vertex_set``, ``_check_thresholds`` and ``_check_count``: plain ints,
never bools or floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from random import Random
from typing import Iterable, Sequence


class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    ``adjacency[v]`` lists v's neighbours in increasing order, each
    once, so ``(n, adjacency)`` is canonical: equality and hashing read
    it.  The checking constructor rejects entries other than two ints,
    self-loops and out-of-range endpoints; its loop lists the normalized
    pairs, they are hashed once, and the adjacency lists are filled from
    that list (from the hashed set when the input repeated a pair).
    ``edges``, the set of pairs ``(u, v)`` with ``u < v``, is derived:
    the checking constructor keeps the set it hashed, and a graph built
    from adjacency lists, as evaluation builds one, makes it on first
    read and keeps it.  Each adjacency list with more than one neighbour
    is sorted in place.
    """

    __slots__ = ("n", "adjacency", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if type(n) is not int or n < 0:
            raise ValueError("vertex count must be a non-negative int")
        pairs = []
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
            pairs.append((u, v) if u < v else (v, u))
        edge_set = frozenset(pairs)
        if len(edge_set) != len(pairs):  # the input repeated a pair
            pairs = edge_set
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        self._store(adj, edge_set)

    @classmethod
    def _from_adjacency(cls, adj: list[list[int]]) -> "Graph":
        """The graph where vertex v has the neighbours ``adj[v]``, taken unchecked.

        The lists must be symmetric, loop-free and free of repeats; they
        are sorted in place.  For adjacency this package builds itself;
        outside input goes through the checking constructor.
        """
        graph = cls.__new__(cls)
        graph._store(adj, None)
        return graph

    def _store(
        self, adj: list[list[int]], edges: frozenset[tuple[int, int]] | None
    ) -> None:
        for nb in adj:
            if len(nb) > 1:
                nb.sort()
        self.n: int = len(adj)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._edges = edges

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        # two threads may both derive the set; they store equal values
        if self._edges is None:
            self._edges = _edge_set(self.adjacency)
        return self._edges

    def _edge_count(self) -> int:
        """``len(self.edges)``, without deriving the set."""
        if self._edges is None:
            return sum(map(len, self.adjacency)) // 2
        return len(self._edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._edge_count()})"


def _edge_set(adjacency: Sequence[Sequence[int]]) -> frozenset[tuple[int, int]]:
    """The pairs ``(u, v)`` with ``u < v`` that sorted adjacency lists hold."""
    return frozenset((u, v) for u, nb in enumerate(adjacency) for v in nb if v > u)


def _breadth_first(
    graph: Graph,
) -> tuple[list[int | None], list[int], list[int], list[int]]:
    """Breadth-first search of each component from its smallest vertex.

    Returns ``(parent, order, starts, ends)``: the vertex that reached
    each vertex (None at a start), every vertex as reached, component by
    component, the index in ``order`` where each component starts, and
    ``ends[i]``, the length of ``order`` once ``order[i]``'s neighbours
    were scanned.  The vertices first reached from ``order[i]`` are
    appended in one block, ``order[a:ends[i]]``: a is ``ends[i - 1]``
    (0 for i = 0), except at a start, where that is i and a is i + 1.
    """
    n = graph.n
    adjacency = graph.adjacency
    parent: list[int | None] = [None] * n
    seen = bytearray(n)
    order: list[int] = []
    starts: list[int] = []
    ends: list[int] = []
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
            ends.append(len(order))
    return parent, order, starts, ends


def connected_components(graph: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    _, order, starts, _ = _breadth_first(graph)
    return [sorted(order[a:b]) for a, b in zip(starts, [*starts[1:], graph.n])]


def is_tree(graph: Graph) -> bool:
    return (
        graph.n >= 1
        and graph._edge_count() == graph.n - 1
        and len(_breadth_first(graph)[2]) == 1
    )


def is_forest(graph: Graph) -> bool:
    return graph._edge_count() == graph.n - len(_breadth_first(graph)[2])


def _forest_search(
    graph: Graph,
) -> tuple[list[int | None], list[int], list[int], list[int]]:
    """:func:`_breadth_first` of a forest; ValueError when the graph has a cycle."""
    search = _breadth_first(graph)
    # a forest has exactly one edge fewer than vertices per component
    if graph._edge_count() != graph.n - len(search[2]):
        raise ValueError("input graph has a cycle")
    return search


def root_forest(graph: Graph) -> tuple[list[int | None], list[int], list[int]]:
    """Root every component of a forest at its smallest vertex.

    Returns ``(parent, order, roots)``: ``parent[v]`` is v's parent, or
    None at a root; ``order`` lists every vertex children-first (reverse
    breadth-first order); and ``roots`` has one root per component, by
    smallest vertex.  Raises ValueError when the graph has a cycle.
    """
    parent, order, starts, _ = _forest_search(graph)
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


def _check_count(value: int, what: str) -> None:
    """Refuse a latency, budget or requirement that is not a non-negative int."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an int")
    if value < 0:
        raise ValueError(f"{what} must be non-negative")


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
    never pad.  :attr:`rounds` holds a set per round, the sum of the
    round sizes in all, so a caller that reads the rounds once and in
    order, as ``latss simulate`` does, accumulates ``steps`` itself.
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
    nothing.  Each round, the vertices that fired last raise their
    inactive neighbours' counts, and a neighbour is queued for the next
    round when its count reaches its threshold, which happens once at
    most; round 1 also takes the threshold-0 vertices.  So no round
    rescans the vertices or builds a candidate set.
    """
    n = graph.n
    _check_thresholds(n, thresholds)
    _check_count(latency, "latency")
    seed_set = _vertex_set(n, seed, "seed")

    adjacency = graph.adjacency
    active = bytearray(n)
    hits = [0] * n
    for v in seed_set:
        active[v] = 1
    steps: list[frozenset[int]] = []
    newly: Iterable[int] = seed_set
    # a threshold-0 vertex fires in round 1 with no active neighbour
    ready = (
        [w for w in range(n) if not thresholds[w] and not active[w]]
        if 0 in thresholds
        else []
    )
    while True:
        steps.append(frozenset(newly))
        if len(steps) > latency:
            break
        # each vertex still inactive is below its threshold, so it is
        # queued once at most: when its count reaches the threshold
        for w in newly:
            for x in adjacency[w]:
                if not active[x]:
                    hits[x] += 1
                    if hits[x] == thresholds[x]:
                        ready.append(x)
        if not ready:
            break
        newly, ready = ready, []
        for w in newly:
            active[w] = 1
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
        _check_count(self.latency, "latency")
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
