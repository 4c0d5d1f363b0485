"""Every name the benchmark's tracer rebinds must exist in the package.

``perfbench/tracing.py`` wraps, for a traced run, the functions and
methods listed in its ``TARGETS``; a refactor that drops or renames one
breaks the traced run.  The module is loaded from its file and only
read here.
"""

import importlib.util
from pathlib import Path

import latss.cli
import latss.cliquewidth
import latss.graphs
import latss.kexpr
import latss.trees

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    owners = {
        "cli": latss.cli,
        "cliquewidth": latss.cliquewidth,
        "graphs": latss.graphs,
        "kexpr": latss.kexpr,
        "trees": latss.trees,
        "CliqueWidthSolver": latss.cliquewidth.CliqueWidthSolver,
    }
    targets = _tracing().TARGETS
    assert targets
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in targets
        if not callable(getattr(owners[owner], attr, None))
    ]
    assert missing == []


def test_solver_exposes_what_the_tracer_tallies():
    # the tracer sums these over every solver an op builds
    expr = latss.kexpr.parse("eta(2,1, U(2(v), 1(u)))")
    solver = latss.cliquewidth.CliqueWidthSolver(expr, (1, 1), 1)
    assert solver.decide(1, 2)
    entries = sum(len(solver.queries(node)) for node in range(solver.node_count))
    witnessed = list(solver.witnessed_entries())
    assert solver.node_count == 4
    assert 0 < len(witnessed) <= entries
