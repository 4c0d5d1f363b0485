"""Command-line front end: instance I/O, solver dispatch, generators.

Instances travel as single JSON documents:

    {
      "n": 3,
      "edges": [[0, 1], [1, 2]],
      "thresholds": [1, 2, 1],
      "lambda": 1,
      "budget": 1,          // optional
      "alpha": 2,           // optional (activation requirement)
      "targets": [0, 1, 2], // optional
      "kexpr": "..."        // optional construction expression
    }

When ``kexpr`` is present its evaluation must reproduce ``n`` and
``edges`` vertex-for-vertex; evaluated vertex ids follow leaf order in
a depth-first traversal of the expression.  Results are emitted as one
compact JSON document and a newline on stdout.  Exit codes: 0 success,
1 infeasible decision (or failed check), 2 input error (or an output,
stdout included, that cannot be written), 3 internal error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from itertools import accumulate
from random import Random
from typing import Any, Sequence

from . import cliquewidth, kexpr, oracle, trees
from .graphs import (
    Graph,
    Instance,
    _check_count,
    _check_thresholds,
    is_forest,  # unused here; perfbench/tracing.py rebinds it by this name
    is_tree,  # unused here; perfbench/tracing.py rebinds it by this name
    random_tree,
    simulate,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InstanceError(ValueError):
    """Malformed or inconsistent instance document."""


# ---------------------------------------------------------------------------
# instance documents


def document_to_instance(
    doc: dict,
) -> tuple[Instance, kexpr.KExpr | None, kexpr.LabeledGraph | None]:
    """Validate a JSON document and build the instance.

    Also returns the document's expression and its evaluation, checked
    against the instance's graph, or None twice when it has none.
    """
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")

    # JSON decodes to exactly these types, and a bool is no int
    def need(field: str, kind: type) -> Any:
        if field not in doc:
            raise InstanceError(f"missing field {field!r}")
        value = doc[field]
        if type(value) is not kind:
            raise InstanceError(f"field {field!r} has the wrong type")
        return value

    n = need("n", int)
    if n < 1:
        raise InstanceError("n must be at least 1")
    edges = need("edges", list)
    thresholds = need("thresholds", list)
    # each round before a stall activates a vertex: rounds past n add nothing
    latency = min(need("lambda", int), n)

    optional: dict[str, Any] = {}
    if "budget" in doc:
        optional["budget"] = need("budget", int)
    if "alpha" in doc:
        optional["requirement"] = need("alpha", int)
    if "targets" in doc:
        optional["targets"] = need("targets", list)

    # the library checks each entry; thresholds first, before Graph allocates n lists
    try:
        _check_thresholds(n, thresholds)
        graph = Graph(n, edges)
        instance = Instance(graph, tuple(thresholds), latency, **optional)
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc

    expression = labeled = None
    if "kexpr" in doc:
        text = need("kexpr", str)
        try:
            expression = kexpr.parse(text)
            labeled = kexpr.evaluate(expression)
        except kexpr.KExprError as exc:
            raise InstanceError(f"bad kexpr: {exc}") from exc
        if labeled.graph != graph:
            raise InstanceError(
                "kexpr evaluation does not match n/edges vertex-for-vertex"
            )
    return instance, expression, labeled


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_json(path: str) -> Any:
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError is JSON nested deeper than the decoder goes
        raise InstanceError(f"{path} is not readable JSON: {exc}") from exc


def load_instance(
    path: str,
) -> tuple[Instance, kexpr.KExpr | None, kexpr.LabeledGraph | None]:
    return document_to_instance(_read_json(path))


def _emit(doc: dict, output: str | None) -> None:
    # no indent: an indent makes json fall back to its pure-Python encoder
    text = json.dumps(doc, separators=(",", ":"))
    try:
        if output:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        elif sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise InstanceError("cannot write stdout: it is not open")
        else:
            print(text, flush=True)
    except OSError as exc:
        raise InstanceError(f"cannot write {output or 'stdout'}: {exc}") from exc


def _edge_list(graph: Graph) -> list[list[int]]:
    """``sorted(map(list, graph.edges))``, read off the sorted adjacency."""
    return [[u, v] for u, nb in enumerate(graph.adjacency) for v in nb if v > u]


def _csv_ints(text: str, what: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(piece) for piece in text.split(",")]
    except ValueError as exc:
        raise InstanceError(f"bad {what} list {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)[0]
    seed = _csv_ints(args.seed, "seed")
    start = time.perf_counter()
    trace = simulate(instance.graph, instance.thresholds, seed, instance.latency)
    elapsed = time.perf_counter() - start
    # each round is the previous one merged with its step; trace.rounds
    # would hold a set per round besides these lists
    rounds = [sorted(trace.seed)]
    for step in trace.steps[1:]:
        merged = rounds[-1] + sorted(step)
        merged.sort()  # two sorted runs: one linear merge
        rounds.append(merged)
    rounds += rounds[-1:] * (trace.latency + 1 - len(rounds))
    _emit(
        {
            "command": "simulate",
            "seed": rounds[0],
            "round_sizes": [len(r) for r in rounds],
            "rounds": rounds,
            "wall_time_s": elapsed,
        },
        args.output,
    )
    return EXIT_OK


def _result_doc(
    method: str,
    variant: str,
    selection: frozenset[int] | None,
    instance: Instance,
    elapsed: float,
) -> dict:
    """The solve result, with the selection's simulated round sizes."""
    doc: dict[str, Any] = {
        "command": "solve",
        "solver": method,
        "variant": variant,
        "feasible": selection is not None,
        "target_set": sorted(selection) if selection is not None else None,
        "size": len(selection) if selection is not None else None,
        "round_sizes": None,
        "wall_time_s": elapsed,
    }
    if selection is not None:
        trace = simulate(
            instance.graph, instance.thresholds, selection, instance.latency
        )
        doc["round_sizes"] = list(accumulate(map(len, trace.deltas)))
    return doc


def _cmd_solve(args: argparse.Namespace) -> int:
    instance, expression, labeled = load_instance(args.instance)
    variant = instance.variant
    if args.variant and args.variant != variant:
        raise InstanceError(
            f"instance fields define variant {variant!r}, not {args.variant!r}"
        )
    method = args.method
    graph, thresholds, latency = instance.graph, instance.thresholds, instance.latency
    # every variant asks for the fewest seeds within the budget that reach
    # the requirement and every target: at budget n, a minimum target set
    budget = graph.n if instance.budget is None else instance.budget
    requirement = instance.requirement or 0
    targets = instance.targets or ()
    start = time.perf_counter()

    if method == "tree":
        if variant != "lA":
            raise InstanceError(
                "tree method solves the targets-only variant (no budget/alpha)"
            )
        selection = trees.solve(graph, thresholds, latency, targets)
    elif method == "brute":
        selection = oracle.brute_select(
            graph, thresholds, latency, budget, targets, requirement
        )
    else:  # cwd
        if expression is None:
            # leaves are named after instance ids, in an order evaluation may permute
            try:
                expression = kexpr.tree_expression(graph)
            except ValueError as exc:
                raise InstanceError(
                    "cwd method needs a kexpr in the instance (graph has a cycle)"
                ) from exc
            labeled = kexpr.evaluate(expression)
            order = [int(name) for name in labeled.names]
        else:
            # document_to_instance matched the expression id-for-id
            order = range(graph.n)
        solver = cliquewidth.CliqueWidthSolver(
            expression,
            [thresholds[v] for v in order],
            latency,
            [i for i, v in enumerate(order) if v in targets],
            _labeled=labeled,
        )
        selection = solver.select(budget, requirement)
        if selection is not None:
            selection = frozenset(order[v] for v in selection)

    elapsed = time.perf_counter() - start
    _emit(_result_doc(method, variant, selection, instance, elapsed), args.output)
    return EXIT_OK if selection is not None else EXIT_INFEASIBLE


def _kexpr_source(args: argparse.Namespace) -> str:
    if args.expr is not None:
        return args.expr
    if args.file is not None:
        return _read_text(args.file)
    doc = _read_json(args.instance)  # argparse requires exactly one source
    if not isinstance(doc, dict) or "kexpr" not in doc:
        raise InstanceError("instance document has no kexpr field")
    if not isinstance(doc["kexpr"], str):
        raise InstanceError("field 'kexpr' has the wrong type")
    return doc["kexpr"]


def _cmd_kexpr(args: argparse.Namespace) -> int:
    text = _kexpr_source(args)
    expression = kexpr.parse(text)
    action = args.action
    if action == "parse":
        post, k = kexpr._checked_postorder(expression)
        _emit(
            {
                "command": "kexpr.parse",
                "formatted": kexpr.unparse(expression),
                "width": k,
                "vertices": sum(isinstance(node, kexpr.Leaf) for node in post),
            },
            args.output,
        )
        return EXIT_OK
    if action == "eval":
        labeled = kexpr.evaluate(expression)
        _emit(
            {
                "command": "kexpr.eval",
                "n": labeled.graph.n,
                "edges": _edge_list(labeled.graph),
                "labels": list(labeled.labels),
                "names": list(labeled.names),
            },
            args.output,
        )
        return EXIT_OK
    if action == "check":
        violations = kexpr.check_irredundant(expression)
        _emit(
            {
                "command": "kexpr.check",
                "irredundant": not violations,
                "violations": [
                    {
                        "path": list(v.path),
                        "labels": [v.a, v.b],
                        "edge": list(v.edge),
                    }
                    for v in violations
                ],
            },
            args.output,
        )
        return EXIT_OK if not violations else EXIT_INFEASIBLE
    # lift
    names = {piece.strip() for piece in (args.targets or "").split(",")} - {""}
    lifted = kexpr.lift_targets(expression, names)
    _emit(
        {
            "command": "kexpr.lift",
            "kexpr": kexpr.unparse(lifted),
            "width": kexpr.width(lifted),
        },
        args.output,
    )
    return EXIT_OK


def _instance_doc_from_expression(
    expression: kexpr.KExpr, latency: int | None
) -> dict:
    # vertex ids follow leaf order, so the graph and labels do not depend
    # on the names, and the text names each leaf by its id
    labeled = kexpr.evaluate(expression)
    n = labeled.graph.n
    return {
        "n": n,
        "edges": _edge_list(labeled.graph),
        "thresholds": [1] * n,
        "lambda": latency if latency is not None else n,
        "targets": list(range(n)),
        "kexpr": kexpr._unparse(expression, numbered=True),
    }


# gen's families, each an expression of n vertices drawn with a Random; each
# builder is looked up on kexpr when it runs, as perfbench/tracing.py rebinds it
_FAMILIES = {
    "path": lambda n, rng: kexpr.path_expression(n),
    "star": lambda n, rng: kexpr.star_expression(n),
    "random-tree": lambda n, rng: kexpr.tree_expression(random_tree(n, rng)),
    "cograph": lambda n, rng: kexpr.cograph_expression(n, rng),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.latency is not None:
        _check_count(args.latency, "latency")
    expression = _FAMILIES[args.family](args.n, Random(args.seed))
    _emit(_instance_doc_from_expression(expression, args.latency), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latss",
        description="Exact solvers for latency-bounded target set selection.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sim = sub.add_parser("simulate", help="run the cascade from a seed set")
    p_sim.add_argument("--instance", required=True)
    p_sim.add_argument("--seed", required=True, help="comma-separated vertex ids")
    p_sim.add_argument("--output")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_solve = sub.add_parser("solve", help="solve an instance")
    p_solve.add_argument("--method", required=True, choices=["tree", "cwd", "brute"])
    p_solve.add_argument("--variant", choices=["lba", "lbA", "lA"])
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--output")
    p_solve.set_defaults(handler=_cmd_solve)

    p_k = sub.add_parser("kexpr", help="construction-expression tools")
    p_k.add_argument("action", choices=["parse", "eval", "check", "lift"])
    source = p_k.add_mutually_exclusive_group(required=True)
    source.add_argument("--expr")
    source.add_argument("--file")
    source.add_argument("--instance")
    p_k.add_argument("--targets", help="comma-separated vertex names (lift)")
    p_k.add_argument("--output")
    p_k.set_defaults(handler=_cmd_kexpr)

    p_gen = sub.add_parser("gen", help="generate instance documents")
    p_gen.add_argument("family", choices=_FAMILIES)
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--latency", type=int)
    p_gen.add_argument("--output")
    p_gen.set_defaults(handler=_cmd_gen)

    return parser


_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    # a command builds only acyclic objects (JSON documents, graphs,
    # expression trees), so the cyclic collector would only rescan them
    # as they pile up; a caller's own setting is restored on every exit
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except ValueError as exc:  # InstanceError and KExprError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a fault of the program, never to be read as "infeasible"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # main reported it; the exit flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
