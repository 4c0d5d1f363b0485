"""One parametrised refusal of bad ids, thresholds, latencies, budgets, requirements.

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
from latss.oracle import brute_min_target, brute_select
from latss.trees import solve

N = 3
GOOD = {"thresholds": (1, 1, 1), "latency": 2, "vertices": [0, 1, 2],
        "budget": N, "requirement": N}
# each engine on the path 0-1-2, with vertex ids as targets (seeds for simulate)
ENGINES = {
    "Graph": lambda a: Graph(N, [(a["vertices"][0], 2)]),
    "simulate": lambda a: simulate(
        path_graph(N), a["thresholds"], a["vertices"], a["latency"]
    ),
    "Instance": lambda a: Instance(
        path_graph(N), a["thresholds"], a["latency"], targets=a["vertices"]
    ),
    "trees.solve": lambda a: solve(
        path_graph(N), a["thresholds"], a["latency"], a["vertices"]
    ),
    "CliqueWidthSolver": lambda a: CliqueWidthSolver(
        path_expression(N), a["thresholds"], a["latency"], a["vertices"]
    ).select(a["budget"], a["requirement"]),
    "oracle.brute_min_target": lambda a: brute_min_target(
        path_graph(N), a["thresholds"], a["latency"], a["vertices"]
    ),
    # brute_select's targets, and its other four inputs under the decision
    # variant's question (no targets), the row's name before brute_select
    # answered it
    "oracle.brute_select": lambda a: brute_select(
        path_graph(N), a["thresholds"], a["latency"], a["budget"], a["vertices"],
        a["requirement"],
    ),
    "oracle.brute_decision": lambda a: brute_select(
        path_graph(N), a["thresholds"], a["latency"], a["budget"], (),
        a["requirement"],
    ),
}
# the kinds of entry each engine takes
KINDS = {
    "Graph": ("vertices",),
    "CliqueWidthSolver": ("vertices", "thresholds", "latency", "budget", "requirement"),
    "oracle.brute_select": ("vertices",),
    "oracle.brute_decision": ("thresholds", "latency", "budget", "requirement"),
}
# 0.5 and 1.5 lie between valid values, so only a type check refuses them
BAD = [1.0, 0.5, 1.5, True, "0", None, [0], -1, N]


def _cases():
    for engine in ENGINES:
        for kind in KINDS.get(engine, ("vertices", "thresholds", "latency")):
            for bad in BAD:
                if bad == N and kind != "vertices":
                    continue  # n is a valid threshold, latency, budget or requirement
                yield pytest.param(engine, kind, bad, id=f"{engine}-{kind}-{bad!r}")


@pytest.mark.parametrize("engine, kind, bad", _cases())
def test_refused_with_value_error(engine, kind, bad):
    args = dict(GOOD)
    if kind == "thresholds":
        args["thresholds"] = (1, bad, 1)
    else:
        args[kind] = [bad] if kind == "vertices" else bad
    with pytest.raises(ValueError):
        ENGINES[engine](args)


@pytest.mark.parametrize("budget", [N + 1, 10**30])
def test_budget_above_n_is_valid(budget):
    solver = CliqueWidthSolver(path_expression(N), (1, 1, 1), 2)
    assert solver.select(budget, N) == frozenset({0})
    assert brute_select(path_graph(N), (1, 1, 1), 2, budget, (), N) == frozenset({0})


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
