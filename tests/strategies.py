"""Shared hypothesis strategies and seeded corpus builders for the tests."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from latss.graphs import Graph, random_tree
from latss.kexpr import (
    Eta,
    Leaf,
    PartialRedundancyError,
    Rho,
    Union,
    canonicalize_names,
    normalize_irredundant,
)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges = draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        )
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def raw_edge_entries(draw, min_n: int = 1, max_n: int = 8):
    """A vertex count and edge entries as outside input may give them.

    Each distinct pair may come reversed and more than once, as a tuple
    or a 2-list, and the entries are shuffled.
    """
    n = draw(st.integers(min_n, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    entries = []
    for u, v in pairs:
        for _ in range(draw(st.integers(1, 3))):
            entry = (v, u) if draw(st.booleans()) else (u, v)
            entries.append(list(entry) if draw(st.booleans()) else entry)
    return n, draw(st.permutations(entries))


@st.composite
def cascade_instances(draw, max_n: int = 8):
    """Graph, thresholds (possibly above degree+1), seed set, latency."""
    g = draw(graphs(max_n=max_n))
    thresholds = tuple(
        draw(st.integers(0, g.degree(v) + 2)) for v in range(g.n)
    )
    seed = draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    latency = draw(st.integers(0, g.n + 2))
    return g, thresholds, seed, latency


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 10):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_tree(n, random.Random(seed))


@st.composite
def forests(draw, min_n: int = 1, max_n: int = 8):
    """Vertex i > 0 hangs off an earlier vertex or starts a new component."""
    n = draw(st.integers(min_n, max_n))
    ups = [draw(st.none() | st.integers(0, i - 1)) for i in range(1, n)]
    return Graph(n, [(up, i) for i, up in enumerate(ups, 1) if up is not None])


@st.composite
def expressions(
    draw, max_labels: int = 3, max_leaves: int = 10, min_leaves: int | None = None
):
    """Random well-formed expression trees with unique leaf names.

    The number of leaves is drawn first, from ``min_leaves`` (default 1)
    to ``max_leaves``.  Unions then join two parts at a time until one
    is left; every union, and the whole expression, may gain up to two
    edge insertions or renames on top.
    """
    labels = st.integers(1, max_labels)

    def wrapped(expr):
        for _ in range(draw(st.integers(0, 2 if max_labels > 1 else 0))):
            # b is drawn from the labels other than a
            a, b = draw(labels), draw(st.integers(1, max_labels - 1))
            b += b >= a
            expr = draw(st.sampled_from((Eta, Rho)))(a, b, expr)
        return expr

    count = draw(st.integers(min_leaves or 1, max_leaves))
    parts = [Leaf(draw(labels), "x") for _ in range(count)]
    while len(parts) > 1:
        first = parts.pop(draw(st.integers(0, len(parts) - 1)))
        second = parts.pop(draw(st.integers(0, len(parts) - 1)))
        parts.append(wrapped(Union(first, second)))
    return canonicalize_names(wrapped(parts[0]))


def random_expression(rng: random.Random, max_vertices: int = 6, k: int = 3):
    """Seeded random irredundant expression with at most ``max_vertices`` leaves."""
    while True:
        n = rng.randint(1, max_vertices)
        items = [Leaf(rng.randint(1, k), str(i)) for i in range(n)]
        while len(items) > 1:
            first = items.pop(rng.randrange(len(items)))
            second = items.pop(rng.randrange(len(items)))
            merged = Union(first, second)
            for _ in range(rng.randint(0, 3)):
                a, b = rng.randint(1, k), rng.randint(1, k)
                if a == b:
                    continue
                if rng.random() < 0.6:
                    merged = Eta(a, b, merged)
                else:
                    merged = Rho(a, b, merged)
            items.append(merged)
        expr = items[0]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randint(1, k), rng.randint(1, k)
            if a != b:
                expr = Rho(a, b, expr)
        try:
            return normalize_irredundant(expr)
        except PartialRedundancyError:
            continue


def relabeled(graph: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    """The graph with its vertex ids shuffled, and the old id of each new one."""
    old = list(range(graph.n))
    rng.shuffle(old)
    new = {v: i for i, v in enumerate(old)}
    return Graph(graph.n, [(new[u], new[v]) for u, v in graph.edges]), old


def tree_corpus(
    count: int,
    seed: int,
    n_lo: int = 2,
    n_hi: int = 12,
):
    """Random trees with thresholds in [1, degree], random targets, random latency."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        graph = random_tree(n, rng)
        thresholds = tuple(
            rng.randint(1, graph.degree(v)) for v in range(n)
        )
        targets = frozenset(v for v in range(n) if rng.random() < 0.5)
        latency = rng.randint(1, n)
        corpus.append((graph, thresholds, latency, targets))
    return corpus
