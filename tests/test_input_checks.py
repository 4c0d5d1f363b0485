"""One parametrised refusal of bad vertex ids, thresholds and latencies.

Every engine that takes them refuses a bool, a float, a string, None, a
list, a negative value and (for vertex ids) the id n with ValueError:
never a TypeError, a failed assertion or an answer.  The clique-width
solver's public queries refuse entries that are not ints, rows that are
not sequences of them, and a node outside the expression tree, the same
way.
"""

import pytest

from latss.cliquewidth import CliqueWidthSolver
from latss.graphs import Graph, Instance, path_graph, simulate
from latss.kexpr import path_expression
from latss.oracle import brute_min_target
from latss.trees import solve

N = 3
GOOD = {"thresholds": (1, 1, 1), "latency": 2, "vertices": [0, 1, 2]}
# each engine on the path 0-1-2, with vertex ids as targets (seeds for simulate)
ENGINES = {
    "Graph": lambda thresholds, latency, vertices: Graph(N, [(vertices[0], 2)]),
    "simulate": lambda *args: simulate(path_graph(N), args[0], args[2], args[1]),
    "Instance": lambda *args: Instance(path_graph(N), *args[:2], targets=args[2]),
    "trees.solve": lambda *args: solve(path_graph(N), *args),
    "CliqueWidthSolver": lambda *args: CliqueWidthSolver(
        path_expression(N), *args
    ).select(N),
    "oracle.brute_min_target": lambda *args: brute_min_target(path_graph(N), *args),
}
# 0.5 and 1.5 lie between valid values, so only a type check refuses them
BAD = [1.0, 0.5, 1.5, True, "0", None, [0], -1, N]


def _cases():
    for engine in ENGINES:
        for kind in ("vertices", "thresholds", "latency"):
            if engine == "Graph" and kind != "vertices":
                continue
            for bad in BAD:
                if bad == N and kind != "vertices":
                    continue  # a threshold or latency of n is valid
                yield pytest.param(engine, kind, bad, id=f"{engine}-{kind}-{bad!r}")


@pytest.mark.parametrize("engine, kind, bad", _cases())
def test_refused_with_value_error(engine, kind, bad):
    args = dict(GOOD)
    if kind == "vertices":
        args["vertices"] = [bad]
    elif kind == "thresholds":
        args["thresholds"] = (1, bad, 1)
    else:
        args["latency"] = bad
    with pytest.raises(ValueError):
        ENGINES[engine](args["thresholds"], args["latency"], args["vertices"])


# seeding the middle vertex of the path 0-1-2 (labels 3, 2, 1) at latency 1
QUERY = {"counts": [[0, 1], [1, 0], [0, 1]], "reductions": [[0], [0], [0]]}
MALFORMED = {
    "float-count": ("counts", 0, 1.0),
    "bool-count": ("counts", 0, True),
    "half-reduction": ("reductions", 1, 0.5),
    "bool-reduction": ("reductions", 1, False),
    "string-reduction": ("reductions", 1, "0"),
    # a whole field: rows that are not sequences, or no rows at all
    "int-rows": ("counts", None, [1, 2, 3]),
    "none-reductions": ("reductions", None, None),
}


@pytest.mark.parametrize("method", ["query", "reconstruct"])
@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_query_entry_refused(method, case):
    solver = CliqueWidthSolver(path_expression(N), (1, 1, 1), 1)
    assert solver.query(QUERY["counts"], QUERY["reductions"])
    field, row, bad = MALFORMED[case]
    query = {key: [list(r) for r in rows] for key, rows in QUERY.items()}
    if row is None:
        query[field], message = bad, "must be rows of ints"
    else:
        query[field][row][0], message = bad, "must be ints"
    with pytest.raises(ValueError, match=message):
        getattr(solver, method)(query["counts"], query["reductions"])


@pytest.mark.parametrize("node", [99, 7, -1, True, 1.0, "6"])
def test_reconstruct_node_out_of_range_refused(node):
    solver = CliqueWidthSolver(path_expression(N), (1, 1, 1), 1)
    assert solver.node_count == 7
    with pytest.raises(ValueError, match="is not in 0..6"):
        solver.reconstruct(QUERY["counts"], QUERY["reductions"], node)
