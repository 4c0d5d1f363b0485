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
1 infeasible decision (or failed check), 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from random import Random
from typing import Any, Sequence

from . import cliquewidth, kexpr, oracle, trees
from .graphs import (
    Graph,
    Instance,
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


def document_to_instance(doc: dict) -> tuple[Instance, kexpr.KExpr | None]:
    """Validate a JSON document and build the instance (plus expression)."""
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")

    def need(field: str, kind) -> Any:
        if field not in doc:
            raise InstanceError(f"missing field {field!r}")
        value = doc[field]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise InstanceError(f"field {field!r} has the wrong type")
        return value

    n = need("n", int)
    if n < 1:
        raise InstanceError("n must be at least 1")
    raw_edges = need("edges", list)
    edges = []
    for item in raw_edges:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise InstanceError(f"bad edge entry {item!r}")
        edges.append((item[0], item[1]))
    thresholds = need("thresholds", list)
    if len(thresholds) != n or not all(
        isinstance(t, int) and not isinstance(t, bool) and t >= 0
        for t in thresholds
    ):
        raise InstanceError("thresholds must be n non-negative integers")
    latency = need("lambda", int)

    optional: dict[str, Any] = {}
    if "budget" in doc:
        optional["budget"] = need("budget", int)
    if "alpha" in doc:
        optional["requirement"] = need("alpha", int)
    if "targets" in doc:
        targets = need("targets", list)
        if not all(
            isinstance(v, int) and not isinstance(v, bool) for v in targets
        ):
            raise InstanceError("targets must be a list of vertex ids")
        optional["targets"] = frozenset(targets)

    try:
        graph = Graph(n, edges)
        instance = Instance(graph, tuple(thresholds), latency, **optional)
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc

    expression = None
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
    return instance, expression


def load_instance(path: str) -> tuple[Instance, kexpr.KExpr | None]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path} is not valid JSON: {exc}") from exc
    return document_to_instance(doc)


def _emit(doc: dict, output: str | None) -> None:
    # no indent: an indent makes json fall back to its pure-Python encoder
    text = json.dumps(doc, separators=(",", ":"))
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    instance, _ = load_instance(args.instance)
    seed = _csv_ints(args.seed, "seed")
    start = time.perf_counter()
    trace = simulate(
        instance.graph, instance.thresholds, seed, instance.latency
    )
    elapsed = time.perf_counter() - start
    rounds = [sorted(s) for s in trace.rounds]
    _emit(
        {
            "command": "simulate",
            "seed": sorted(trace.seed),
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
    feasible: bool,
    selection: frozenset[int] | None,
    instance: Instance,
    elapsed: float,
) -> dict:
    doc: dict[str, Any] = {
        "command": "solve",
        "solver": method,
        "variant": variant,
        "feasible": feasible,
        "target_set": sorted(selection) if selection is not None else None,
        "size": len(selection) if selection is not None else None,
        "round_sizes": None,
        "wall_time_s": elapsed,
    }
    if selection is not None:
        trace = simulate(
            instance.graph, instance.thresholds, selection, instance.latency
        )
        sizes = []
        total = 0
        for delta in trace.deltas:
            total += len(delta)
            sizes.append(total)
        doc["round_sizes"] = sizes
    return doc


def _tree_for_cwd(instance: Instance) -> tuple[kexpr.KExpr, list[int]]:
    """Fallback expression when the document carries none but is a tree.

    Also returns the instance id of each expression vertex: leaves are
    named after instance ids, in an order evaluation may permute.
    """
    try:
        expression = kexpr.tree_expression(instance.graph)
    except ValueError as exc:
        raise InstanceError(
            "cwd method needs a kexpr in the instance (non-tree graph)"
        ) from exc
    return expression, [int(name) for name in kexpr.leaf_names(expression)]


def _cmd_solve(args: argparse.Namespace) -> int:
    instance, expression = load_instance(args.instance)
    variant = instance.variant
    if args.variant and args.variant != variant:
        raise InstanceError(
            f"instance fields define variant {variant!r}, not {args.variant!r}"
        )
    method = args.method
    start = time.perf_counter()

    if method == "tree":
        if variant != "lA":
            raise InstanceError(
                "tree method solves the targets-only variant (no budget/alpha)"
            )
        selection = trees.solve(
            instance.graph,
            instance.thresholds,
            instance.latency,
            instance.targets,
            root=args.root,
        )
        feasible = True
    elif method == "brute":
        if variant == "lba":
            feasible, selection = oracle.brute_decision(
                instance.graph,
                instance.thresholds,
                instance.latency,
                instance.budget,
                instance.requirement,
            )
        elif variant == "lbA":
            selection = oracle.brute_select_targets(
                instance.graph,
                instance.thresholds,
                instance.latency,
                instance.budget,
                instance.targets,
            )
            feasible = selection is not None
        else:
            selection = oracle.brute_min_target(
                instance.graph,
                instance.thresholds,
                instance.latency,
                instance.targets,
            )
            feasible = True
    else:  # cwd
        if expression is None:
            expression, to_instance = _tree_for_cwd(instance)
        else:
            # document_to_instance matched the expression id-for-id
            to_instance = list(range(instance.graph.n))
        to_expr = [0] * len(to_instance)
        for vid, orig in enumerate(to_instance):
            to_expr[orig] = vid
        thresholds = tuple(
            instance.thresholds[to_instance[v]] for v in range(instance.graph.n)
        )
        solver = cliquewidth.CliqueWidthSolver(
            expression,
            thresholds,
            instance.latency,
            {to_expr[v] for v in instance.targets or ()},
        )
        if variant == "lA":
            # smallest budget whose scan succeeds; the memo carries over
            for budget in range(instance.graph.n + 1):
                selection = solver.select(budget)
                if selection is not None:
                    break
        else:
            selection = solver.select(instance.budget, instance.requirement or 0)
        feasible = selection is not None
        if selection is not None:
            selection = frozenset(to_instance[v] for v in selection)

    elapsed = time.perf_counter() - start
    _emit(
        _result_doc(method, variant, feasible, selection, instance, elapsed),
        args.output,
    )
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _kexpr_source(args: argparse.Namespace) -> str:
    if args.expr is not None:
        return args.expr
    if args.file is not None:
        try:
            with open(args.file) as fh:
                return fh.read()
        except OSError as exc:
            raise InstanceError(f"cannot read {args.file}: {exc}") from exc
    if args.instance is not None:
        try:
            with open(args.instance) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InstanceError(f"cannot read {args.instance}: {exc}") from exc
        if not isinstance(doc, dict) or "kexpr" not in doc:
            raise InstanceError("instance document has no kexpr field")
        return doc["kexpr"]
    raise InstanceError("provide --expr, --file, or --instance")


def _cmd_kexpr(args: argparse.Namespace) -> int:
    text = _kexpr_source(args)
    expression = kexpr.parse(text)
    action = args.action
    if action == "parse":
        _emit(
            {
                "command": "kexpr.parse",
                "formatted": kexpr.unparse(expression),
                "width": kexpr.width(expression),
                "vertices": kexpr.leaf_count(expression),
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
                "edges": sorted([u, v] for u, v in labeled.graph.edges),
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
    names = set(args.targets.split(",")) if args.targets else set()
    names.discard("")
    lifted = kexpr.lift_targets(expression, names, args.k)
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
    expression = kexpr.canonicalize_names(expression)
    labeled = kexpr.evaluate(expression)
    n = labeled.graph.n
    return {
        "n": n,
        "edges": sorted([u, v] for u, v in labeled.graph.edges),
        "thresholds": [1] * n,
        "lambda": latency if latency is not None else n,
        "targets": list(range(n)),
        "kexpr": kexpr.unparse(expression),
    }


def _cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    rng = Random(args.seed)
    if family == "path":
        doc = _instance_doc_from_expression(
            kexpr.path_expression(args.n), args.latency
        )
    elif family == "star":
        n = args.n
        if n < 1:
            raise InstanceError("star needs n >= 1")
        doc = {
            "n": n,
            "edges": [[0, i] for i in range(1, n)],
            "thresholds": [1] * n,
            "lambda": args.latency if args.latency is not None else n,
            "targets": list(range(n)),
        }
    elif family == "random-tree":
        doc = _instance_doc_from_expression(
            kexpr.tree_expression(random_tree(args.n, rng)), args.latency
        )
    else:  # cograph
        doc = _instance_doc_from_expression(
            kexpr.cograph_expression(args.n, rng), args.latency
        )
    _emit(doc, args.output)
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

    p_solve = sub.add_parser("solve", help="solve an instance")
    p_solve.add_argument("--method", required=True, choices=["tree", "cwd", "brute"])
    p_solve.add_argument("--variant", choices=["lba", "lbA", "lA"])
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--root", type=int, default=0)
    p_solve.add_argument("--output")

    p_k = sub.add_parser("kexpr", help="construction-expression tools")
    p_k.add_argument("action", choices=["parse", "eval", "check", "lift"])
    p_k.add_argument("--expr")
    p_k.add_argument("--file")
    p_k.add_argument("--instance")
    p_k.add_argument("--targets", help="comma-separated vertex names (lift)")
    p_k.add_argument("--k", type=int)
    p_k.add_argument("--output")

    p_gen = sub.add_parser("gen", help="generate instance documents")
    p_gen.add_argument("family", choices=["path", "star", "random-tree", "cograph"])
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--latency", type=int)
    p_gen.add_argument("--output")

    return parser


_DISPATCH = {
    "simulate": _cmd_simulate,
    "solve": _cmd_solve,
    "kexpr": _cmd_kexpr,
    "gen": _cmd_gen,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args)
    except (InstanceError, kexpr.KExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a fault of the program, never to be read as "infeasible"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
