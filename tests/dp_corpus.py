"""The DP work corpus: 36 seeded instances and a tally of the DP's work on them.

Six rows of six instances each, drawn in order from one ``Random(7)``:
random trees at (n, λ) = (14, 2), (12, 3) and (10, 4), cographs at
(10, 3) and (9, 4), and a 16-vertex path at λ = 3.  Each instance draws
its expression, then a threshold in 1..deg+1 per vertex, then each
vertex as a target with probability 1/2.  One solver per instance asks
``select(n)``, then ``decide(size - 1)`` when that size is at least 1,
then ``select(n, 3n // 4)``.

The tally is the memo entries summed over every node, the distinct
queries asked of the root, and a digest of every answer.  A change to
the DP reports the tally before and after it; from the repository root,

    PYTHONPATH=src python tests/dp_corpus.py

runs the whole corpus and prints the three.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from random import Random

from latss.cliquewidth import CliqueWidthSolver
from latss.graphs import Graph, random_tree
from latss.kexpr import (
    KExpr,
    cograph_expression,
    evaluate,
    path_expression,
    tree_expression,
)

# (family, n, latency), in draw order
ROWS = (
    ("tree", 14, 2),
    ("tree", 12, 3),
    ("tree", 10, 4),
    ("cograph", 10, 3),
    ("cograph", 9, 4),
    ("path", 16, 3),
)
PER_ROW = 6
SEED = 7


@dataclass(frozen=True)
class Case:
    family: str
    expression: KExpr
    graph: Graph  # the expression's evaluation; ids are evaluated ids
    thresholds: tuple[int, ...]
    latency: int
    targets: tuple[int, ...]


def draw_corpus(seed: int = SEED) -> list[Case]:
    """Every instance of the corpus, row by row."""
    rng = Random(seed)
    cases = []
    for family, n, latency in ROWS:
        for _ in range(PER_ROW):
            if family == "tree":
                expression = tree_expression(random_tree(n, rng))
            elif family == "cograph":
                expression = cograph_expression(n, rng)
            else:
                expression = path_expression(n)
            graph = evaluate(expression).graph
            thresholds = tuple(rng.randint(1, graph.degree(v) + 1) for v in range(n))
            targets = tuple(v for v in range(n) if rng.random() < 0.5)
            cases.append(Case(family, expression, graph, thresholds, latency, targets))
    return cases


def ask(solver: CliqueWidthSolver) -> tuple:
    """The three questions, asked in order of one solver."""
    n = solver.labeled.graph.n
    least = solver.select(n)
    assert least is not None  # seeding every vertex meets every target
    below = solver.decide(len(least) - 1) if least else None
    most = solver.select(n, 3 * n // 4)
    return least, below, most


def tally(cases: list[Case]) -> tuple[int, int, str]:
    """Memo entries, distinct root queries and an answer digest over the cases."""
    entries = roots = 0
    digest = hashlib.sha256()
    for case in cases:
        solver = CliqueWidthSolver(
            case.expression, case.thresholds, case.latency, case.targets
        )
        answers = [
            sorted(x) if isinstance(x, frozenset) else x for x in ask(solver)
        ]
        digest.update(repr(answers).encode())
        entries += sum(len(solver.queries(node)) for node in range(solver.node_count))
        roots += len(solver.queries(solver.root_index))
    return entries, roots, digest.hexdigest()


def main() -> int:
    entries, roots, digest = tally(draw_corpus())
    print(f"memo entries {entries}")
    print(f"root queries {roots}")
    print(f"answer digest {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
