"""Outside-in tracing: spans around the calls into each latss module.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` rebinds, for
the run's duration, the names each caller looks up at call time (the
module attribute ``cli`` reaches through ``kexpr.parse``, the name
``simulate`` that ``cli`` imported from ``graphs``, the methods of
``CliqueWidthSolver``) to wrappers that record a span per call.

A span is ``[id, name, start, end, parent, op]``, kept in memory and
written out when the run ends.  A call directly inside a span of the
same name records nothing, so a recursive method such as
``reconstruct`` and a helper such as ``is_tree`` calling
``connected_components`` count once, at the outermost call.  A layer's
self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# (module, attribute, span name); the module is a latss submodule name
# or "CliqueWidthSolver" for methods of the solver class.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "load_instance", "cli.load"),
    ("kexpr", "parse", "kexpr.parse"),
    ("kexpr", "evaluate", "kexpr.evaluate"),
    ("cliquewidth", "evaluate", "kexpr.evaluate"),
    ("kexpr", "check_irredundant", "kexpr.check"),
    ("cliquewidth", "check_irredundant", "kexpr.check"),
    ("kexpr", "unparse", "kexpr.unparse"),
    ("kexpr", "path_expression", "kexpr.build"),
    ("kexpr", "tree_expression", "kexpr.build"),
    ("kexpr", "cograph_expression", "kexpr.build"),
    ("kexpr", "star_expression", "kexpr.build"),
    ("kexpr", "canonicalize_names", "kexpr.build"),
    ("kexpr", "lift_targets", "kexpr.lift"),
    ("cliquewidth", "lift_targets", "kexpr.lift"),
    ("cliquewidth", "select", "cliquewidth.scan"),
    ("cliquewidth", "decide", "cliquewidth.scan"),
    ("cliquewidth", "select_targets", "cliquewidth.scan"),
    ("cliquewidth", "decide_targets", "cliquewidth.scan"),
    ("CliqueWidthSolver", "__init__", "cliquewidth.init"),
    ("CliqueWidthSolver", "select", "cliquewidth.scan"),
    ("CliqueWidthSolver", "decide", "cliquewidth.scan"),
    ("CliqueWidthSolver", "reconstruct", "cliquewidth.reconstruct"),
    ("trees", "solve", "trees.solve"),
    ("cli", "simulate", "graphs.simulate"),
    ("cliquewidth", "simulate", "graphs.simulate"),
    ("trees", "simulate", "graphs.simulate"),
    ("cli", "is_forest", "graphs.forest_check"),
    ("cli", "is_tree", "graphs.forest_check"),
    ("kexpr", "is_tree", "graphs.forest_check"),
    ("trees", "is_forest", "graphs.forest_check"),
    ("trees", "connected_components", "graphs.forest_check"),
    ("graphs", "is_forest", "graphs.forest_check"),
    ("graphs", "is_tree", "graphs.forest_check"),
    ("graphs", "connected_components", "graphs.forest_check"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})


class Tracer:
    """Span recorder for one run; idle outside an op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # work counts gathered at the same boundaries as the spans
        self.parse_chars = 0
        self.tree_vertices = 0
        self.memo_entries = 0
        self.memo_sat = 0
        self._solvers: list = []
        self._op_first = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import latss.cli
        import latss.cliquewidth
        import latss.graphs
        import latss.kexpr
        import latss.trees

        owners = {
            "cli": latss.cli,
            "cliquewidth": latss.cliquewidth,
            "graphs": latss.graphs,
            "kexpr": latss.kexpr,
            "trees": latss.trees,
            "CliqueWidthSolver": latss.cliquewidth.CliqueWidthSolver,
        }
        for owner_name, attr, name in TARGETS:
            owner = owners[owner_name]
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None or (stack and spans[stack[-1]][1] == name):
                return fn(*args, **kwargs)
            sid = len(spans)
            record = [sid, name, perf_counter(), None, stack[-1] if stack else None, self.op]
            spans.append(record)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            # counted only on return: a solver cut short by the per-op
            # limit has no memo table to tally
            self._count(name, args)
            return result

        return traced

    def _count(self, name: str, args: tuple) -> None:
        if name == "kexpr.parse":
            self.parse_chars += len(args[0])
        elif name == "trees.solve":
            self.tree_vertices += args[0].n
        elif name == "cliquewidth.init":
            self._solvers.append(args[0])

    # -- ops ----------------------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self._op_first = len(self.spans)

    def end(self) -> None:
        """Close the op: tally the memo tables of every solver it built."""
        now = perf_counter()
        for record in self.spans[self._op_first:]:
            if record[3] is None:  # cut short by the per-op limit
                record[3] = now
        self._stack.clear()
        for solver in self._solvers:
            for node in range(solver.node_count):
                self.memo_entries += len(solver.queries(node))
            self.memo_sat += sum(1 for _ in solver.witnessed_entries())
        self._solvers.clear()
        self.op = None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self, ops: int, oracle_s: float) -> dict[str, tuple[float, str]]:
        """Per-op self times and counts of every layer, over ``ops`` traced ops."""
        child = defaultdict(float)
        for record in self.spans:
            if record[4] is not None:
                child[record[4]] += record[3] - record[2]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for record in self.spans:
            self_s[record[1]] += record[3] - record[2] - child[record[0]]
            calls[record[1]] += 1

        def per_op(value: float) -> float:
            return value / ops if ops else 0.0

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        solvers = calls["cliquewidth.init"]
        return {
            "cli.load_s": (per_op(self_s["cli.load"]), "s/op"),
            "cli.self_s": (per_op(self_s["cli.main"]), "s/op"),
            "kexpr.parse_s": (per_op(self_s["kexpr.parse"]), "s/op"),
            "kexpr.parse_chars_per_s": (
                rate(self.parse_chars, self_s["kexpr.parse"]), "chars/s"),
            "kexpr.evaluate_s": (per_op(self_s["kexpr.evaluate"]), "s/op"),
            "kexpr.evaluate_calls_per_op": (per_op(calls["kexpr.evaluate"]), "calls/op"),
            "kexpr.check_s": (per_op(self_s["kexpr.check"]), "s/op"),
            "kexpr.build_s": (per_op(self_s["kexpr.build"]), "s/op"),
            "kexpr.unparse_s": (per_op(self_s["kexpr.unparse"]), "s/op"),
            "kexpr.lift_calls_per_op": (per_op(calls["kexpr.lift"]), "calls/op"),
            "cliquewidth.solvers_per_op": (per_op(solvers), "solvers/op"),
            "cliquewidth.init_s": (per_op(self_s["cliquewidth.init"]), "s/op"),
            "cliquewidth.scan_s": (per_op(self_s["cliquewidth.scan"]), "s/op"),
            "cliquewidth.reconstruct_s": (
                per_op(self_s["cliquewidth.reconstruct"]), "s/op"),
            "cliquewidth.memo_entries_per_op": (per_op(self.memo_entries), "entries/op"),
            "cliquewidth.memo_sat_ratio": (
                self.memo_sat / self.memo_entries if self.memo_entries else 0.0, "ratio"),
            "trees.solve_s": (per_op(self_s["trees.solve"]), "s/op"),
            "trees.vertices_per_s": (
                rate(self.tree_vertices, self_s["trees.solve"]), "vertices/s"),
            "graphs.simulate_s": (per_op(self_s["graphs.simulate"]), "s/op"),
            "graphs.simulate_calls_per_op": (per_op(calls["graphs.simulate"]), "calls/op"),
            "graphs.forest_check_s": (per_op(self_s["graphs.forest_check"]), "s/op"),
            "graphs.forest_check_calls_per_op": (
                per_op(calls["graphs.forest_check"]), "calls/op"),
            "oracle.reference_s": (oracle_s, "s"),
        }
