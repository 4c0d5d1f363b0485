"""Reference answers computed without the code paths the benchmark times.

The cascade rule, the random-tree and cograph constructions and the
closed-form optima are recoded here, so a wrong answer from the program
cannot also be the answer it is checked against.
"""

from __future__ import annotations

from collections import Counter
from random import Random


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def cascade_sizes(adj, thresholds, seeds, latency: int) -> tuple[list[int], set[int]]:
    """Cumulative active counts per round, and the final active set.

    Round 1 looks at every vertex (a threshold of 0 fires without
    neighbours); later rounds only at neighbours of the last round's
    newcomers, the only vertices whose count of active neighbours grew.
    """
    active = set(seeds)
    hits = [0] * len(adj)
    for v in active:
        for w in adj[v]:
            hits[w] += 1
    sizes = [len(active)]
    candidates = range(len(adj))
    for _ in range(latency):
        newly = {
            w for w in candidates if w not in active and hits[w] >= thresholds[w]
        }
        if not newly:
            break
        active |= newly
        for w in newly:
            for x in adj[w]:
                hits[x] += 1
        sizes.append(len(active))
        candidates = {x for w in newly for x in adj[w]}
    sizes.extend([len(active)] * (latency + 1 - len(sizes)))
    return sizes, active


def degree_multiset(n: int, edges) -> Counter:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return Counter(deg)


def random_tree_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """``latss gen random-tree``: vertex i attaches to a random earlier vertex."""
    rng = Random(seed)
    return [(rng.randrange(i), i) for i in range(1, n)]


def cograph_shape(n: int, seed: int) -> tuple[int, Counter, int]:
    """Edge count, degree multiset and width of ``latss gen cograph``.

    Replays the generator's documented process on vertex groups: pick
    two groups at random, then either keep them side by side or join
    every vertex of one to every vertex of the other.
    """
    rng = Random(seed)
    groups: list[list[int]] = [[i] for i in range(n)]
    deg = [0] * n
    edges = 0
    joined = False
    while len(groups) > 1:
        first = groups.pop(rng.randrange(len(groups)))
        second = groups.pop(rng.randrange(len(groups)))
        if rng.random() >= 0.5:
            joined = True
            edges += len(first) * len(second)
            for v in first:
                deg[v] += len(second)
            for v in second:
                deg[v] += len(first)
        groups.append(first + second)
    return edges, Counter(deg), 2 if joined else 1


def unit_path_optimum(n: int, latency: int) -> int:
    """Fewest seeds covering a unit-threshold path within the latency bound."""
    return -(-n // (2 * latency + 1))
