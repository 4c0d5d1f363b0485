"""One parametrised refusal of bad vertex ids, thresholds and latencies.

Every engine that takes them refuses a bool, a float, a string, None, a
list, a negative value and (for vertex ids) the id n with ValueError:
never a TypeError, a failed assertion or an answer.
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
