"""Every name the benchmark's tracer rebinds must exist in the package.

``perfbench/tracing.py`` wraps, for a traced run, the functions and
methods listed in its ``TARGETS``; a refactor that drops or renames one
breaks the traced run.  The module is loaded from its file and only
read here.
"""

import importlib.util
import re
from pathlib import Path

import latss.cli
import latss.cliquewidth
import latss.graphs
import latss.kexpr
import latss.trees

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
# an import kept only for the tracer to rebind ends its line with this
HOOK = re.compile(
    r"(\w+),?\s*# unused here; perfbench/tracing\.py rebinds it by this name$"
)


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
    assert solver.query(((1, 0), (0, 1)), ((0,), (0,)))
    entries = sum(len(solver.queries(node)) for node in range(solver.node_count))
    witnessed = list(solver.witnessed_entries())
    assert solver.node_count == 4
    assert 0 < len(witnessed) <= entries


def test_every_hook_import_is_traced():
    rows = {(owner, attr) for owner, attr, _ in _tracing().TARGETS}
    hooks = [
        (path.stem, match.group(1))
        for path in sorted((ROOT / "src" / "latss").glob("*.py"))
        for line in path.read_text().splitlines()
        if (match := HOOK.search(line.rstrip()))
    ]
    assert hooks
    assert [hook for hook in hooks if hook not in rows] == []
