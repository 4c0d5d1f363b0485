"""Exact solver for bounded clique-width graphs given as expressions.

The solver walks the expression tree of an irredundant k-expression.
For a tree node whose labeled subgraph is H, a query is a pair of
matrices ``(counts, reductions)``:

* ``counts[i][l]`` — how many label-(l+1) vertices must become active at
  round i (row 0 is the seed round), for i in 0..latency;
* ``reductions[i-1][l]`` — how much the thresholds of label-(l+1)
  vertices are lowered at round i, for i in 1..latency.

A query is satisfiable iff H admits a monotone process S[0] ⊆ ... ⊆
S[latency] that activates exactly the demanded per-label counts each
round under the reduced thresholds, and that activates every target
vertex of H.  The target set is fixed per solver and enters as a leaf
constraint: a target leaf must activate at some round.  Each node keeps
the number of targets per label class beside the class sizes, and a
query whose column sum falls outside those two bounds is rejected
before it is expanded.  Because the targets never change, one memo
serves every budget and requirement asked of a solver, and the
expression keeps its width k.

Satisfiability is evaluated top-down over the four node kinds with
per-node memoization and an explicit stack, so deep expressions do not
reach the interpreter's recursion limit; only pairs reachable from the
root are ever computed.  The root is queried with the all-zero
reduction matrix only, where the process coincides with the real
cascade: row sums translate directly into seed budgets and activation
totals, and each column is bounded below by the number of targets in
that root label class.  A real cascade never resumes after a round
i >= 1 that activates nothing, so the root scan fixes every row after
such a round to zero.  Row 0 is exempt: threshold-0 vertices fire at
round 1 without seeds.

Reduction entries are clamped at the largest threshold: any value at or
above every threshold behaves identically in the activation rule, so
the clamp merges equivalent queries without changing satisfiability.

A solver owns its mutable memo tables; distinct solver instances can
run concurrently on shared inputs.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .graphs import normalize_thresholds, simulate
from .kexpr import (
    Eta,
    IrredundancyError,
    KExpr,
    LabeledGraph,
    Leaf,
    Union,
    _postorder,
    check_irredundant,  # unused here; perfbench/tracing.py rebinds it by this name
    evaluate,
    lift_targets,  # unused here; perfbench/tracing.py rebinds it by this name
    validate,
    width,
)

CountMatrix = tuple[tuple[int, ...], ...]
ReductionMatrix = tuple[tuple[int, ...], ...]


def zero_reductions(latency: int, k: int) -> ReductionMatrix:
    return tuple((0,) * k for _ in range(latency))


def verify_schedule(
    labeled: LabeledGraph,
    thresholds: Sequence[int],
    counts: CountMatrix,
    reductions: ReductionMatrix,
    process: Sequence[Iterable[int]],
) -> bool:
    """Check a process against a (counts, reductions) query, from scratch.

    Verifies the three defining conditions directly on the labeled
    graph: per-round per-label activation sets must equal the
    reduced-threshold rule applied to the previous round, and the
    per-label cardinalities must match ``counts`` exactly.  Dimension
    mismatches raise; anything else merely fails.
    """
    latency = len(reductions)
    k = len(counts[0]) if counts else 0
    if len(counts) != latency + 1:
        raise ValueError("counts must have latency+1 rows")
    if any(len(row) != k for row in counts) or any(
        len(row) != k for row in reductions
    ):
        raise ValueError("ragged matrix rows")
    if len(process) != latency + 1:
        raise ValueError("process must have latency+1 rounds")
    graph = labeled.graph
    if any(not 1 <= lab <= k for lab in labeled.labels):
        raise ValueError(f"graph labels exceed k={k}")
    if len(thresholds) != graph.n:
        raise ValueError("thresholds do not match the graph")

    rounds = [frozenset(s) for s in process]
    universe = frozenset(range(graph.n))
    prev = rounds[0]
    if not prev <= universe:
        return False
    for cur in rounds[1:]:
        if not prev <= cur <= universe:
            return False
        prev = cur

    classes: dict[int, set[int]] = {lab: set() for lab in range(1, k + 1)}
    for v, lab in enumerate(labeled.labels):
        classes[lab].add(v)

    for lab in range(1, k + 1):
        if len(rounds[0] & classes[lab]) != counts[0][lab - 1]:
            return False
    for i in range(1, latency + 1):
        delta = rounds[i] - rounds[i - 1]
        for lab in range(1, k + 1):
            cls = classes[lab]
            if len(delta & cls) != counts[i][lab - 1]:
                return False
            reduced = {
                u
                for u in cls - rounds[i - 1]
                if len(set(graph.adjacency[u]) & rounds[i - 1])
                >= thresholds[u] - reductions[i - 1][lab - 1]
            }
            if delta & cls != reduced:
                return False
    return True


def _add(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(x, y))


def _rename(row: tuple[int, ...], la: int, lb: int) -> tuple[int, ...]:
    """Per-label counts after relabelling class ``la`` into class ``lb``."""
    merged = list(row)
    merged[lb] += merged[la]
    merged[la] = 0
    return tuple(merged)


class CliqueWidthSolver:
    """Memoized query evaluator over one expression/thresholds/latency/targets.

    Reuse a single instance when asking many budget/requirement
    combinations about the same instance: the memo tables are shared
    across calls.  ``targets`` are evaluated vertex ids that every
    satisfiable query must activate.
    """

    def __init__(
        self,
        expr: KExpr,
        thresholds: Sequence[int],
        latency: int,
        targets: Iterable[int] = (),
    ) -> None:
        validate(expr)
        # one walk evaluates the expression and finds redundant insertions
        self.labeled = evaluate(expr)
        if self.labeled.violations:
            raise IrredundancyError(list(self.labeled.violations))
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.expr = expr
        self.latency = latency
        self.k = width(expr)
        self.thresholds = normalize_thresholds(
            self.labeled.graph, thresholds
        )
        self.targets = frozenset(targets)
        for v in self.targets:
            if not 0 <= v < self.labeled.graph.n:
                raise ValueError(f"target vertex {v} out of range")
        self.rcap = max(self.thresholds, default=0)
        self._name_to_vid = {
            name: v for v, name in enumerate(self.labeled.names)
        }
        self._zero = zero_reductions(latency, self.k)
        self._build_nodes()
        self._memo: list[dict] = [{} for _ in self._kind]
        # column splits by (column, lo, hi), shared by union and rho nodes
        self._splits: dict = {}

    # -- expression-tree tables ------------------------------------------

    def _build_nodes(self) -> None:
        post = _postorder(self.expr)
        k = self.k
        kind: list[str] = []
        info: list[tuple] = []
        label_counts: list[tuple[int, ...]] = []
        target_counts: list[tuple[int, ...]] = []
        stack: list[int] = []
        vid = 0
        for idx, node in enumerate(post):
            if isinstance(node, Leaf):
                kind.append("leaf")
                info.append((vid, node.label - 1))
                one_hot = tuple(int(l == node.label - 1) for l in range(k))
                label_counts.append(one_hot)
                target_counts.append(one_hot if vid in self.targets else (0,) * k)
                vid += 1
            elif isinstance(node, Union):
                right = stack.pop()
                left = stack.pop()
                kind.append("union")
                info.append((left, right))
                label_counts.append(_add(label_counts[left], label_counts[right]))
                target_counts.append(_add(target_counts[left], target_counts[right]))
            elif isinstance(node, Eta):
                child = stack.pop()
                kind.append("eta")
                info.append((child, node.a - 1, node.b - 1))
                label_counts.append(label_counts[child])
                target_counts.append(target_counts[child])
            else:
                child = stack.pop()
                la, lb = node.a - 1, node.b - 1
                kind.append("rho")
                info.append((child, la, lb))
                label_counts.append(_rename(label_counts[child], la, lb))
                target_counts.append(_rename(target_counts[child], la, lb))
            stack.append(idx)
        self._nodes = post
        self._kind = kind
        self._info = info
        self._label_counts = label_counts
        self._target_counts = target_counts
        self.root_index = len(post) - 1

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def subgraph(
        self, node: int
    ) -> tuple[LabeledGraph, tuple[int, ...], dict[int, int]]:
        """Labeled subgraph at a node, its thresholds, and a global->local id map."""
        local = evaluate(self._nodes[node])
        locals_thr = tuple(
            self.thresholds[self._name_to_vid[name]] for name in local.names
        )
        to_local = {
            self._name_to_vid[name]: i for i, name in enumerate(local.names)
        }
        return local, locals_thr, to_local

    def queries(self, node: int) -> list[tuple[CountMatrix, ReductionMatrix]]:
        """All (counts, reductions) pairs evaluated so far at a node."""
        return list(self._memo[node].keys())

    def witnessed_entries(
        self,
    ) -> Iterator[tuple[int, CountMatrix, ReductionMatrix]]:
        """Every satisfiable memo entry, across all nodes."""
        for idx, memo in enumerate(self._memo):
            for (counts, reds), value in list(memo.items()):
                if value:
                    yield idx, counts, reds

    # -- query evaluation -------------------------------------------------

    def _gamma(self, node: int, counts: CountMatrix, reds: ReductionMatrix):
        """Witness of a query at a node, or False.

        Union, eta and rho nodes are expanded by :meth:`_expand`, a
        generator that yields the child queries of each alternative in
        turn and is sent back their values; a stack of these frames
        replaces recursion.
        """
        value = self._settle(node, counts, reds)
        if value is not None:
            return value
        memo = self._memo
        stack = [(memo[node], (counts, reds), self._expand(node, counts, reds))]
        while stack:
            table, key, frame = stack[-1]
            try:
                child, counts, reds = frame.send(value)
            except StopIteration as done:
                value = table[key] = done.value
                stack.pop()
                continue
            value = self._settle(child, counts, reds)
            if value is None:
                stack.append(
                    (memo[child], (counts, reds), self._expand(child, counts, reds))
                )
        return value

    def _settle(self, node: int, counts: CountMatrix, reds: ReductionMatrix):
        """The value of a query when known without its children, else None.

        That is a memo hit, a column sum outside the node's bounds (at
        least its targets, at most its class size), or a leaf.
        """
        table = self._memo[node]
        key = (counts, reds)
        value = table.get(key)
        if value is not None:
            return value
        for total, lo, hi in zip(
            map(sum, zip(*counts)),
            self._target_counts[node],
            self._label_counts[node],
        ):
            if not lo <= total <= hi:
                table[key] = False
                return False
        if self._kind[node] == "leaf":
            value = table[key] = self._gamma_leaf(node, counts, reds)
            return value
        return None

    def _gamma_leaf(self, node, counts, reds):
        # a target leaf never gets here with total 0: its column's lower
        # bound in _settle is 1
        vid, l0 = self._info[node]
        t = self.thresholds[vid]
        total = sum(row[l0] for row in counts)
        if total == 0:
            # the vertex must stay inactive: no round may cancel its threshold
            if all(reds[i][l0] < t for i in range(self.latency)):
                return ("leaf", None)
            return False
        istar = next(i for i, row in enumerate(counts) if row[l0] == 1)
        if istar == 0:
            return ("leaf", 0)
        fires = next(
            (i + 1 for i in range(self.latency) if reds[i][l0] >= t), None
        )
        return ("leaf", istar) if fires == istar else False

    def _expand(self, node: int, counts: CountMatrix, reds: ReductionMatrix):
        """Frame of an inner node: yields child queries, returns the witness."""
        kind = self._kind[node]
        if kind == "union":
            left, right = self._info[node]
            for counts1, counts2 in self._union_splits(counts, left, right):
                if (yield left, counts1, reds) and (yield right, counts2, reds):
                    return ("union", counts1, counts2)
            return False
        child, la, lb = self._info[node]
        if kind == "eta":
            reds1 = self._eta_reductions(counts, reds, la, lb)
            return ("eta", reds1) if (yield child, counts, reds1) else False
        # rho: class la is empty after the rename, so _settle's bounds
        # check has already made column la zero
        reds1 = tuple(row[:la] + (row[lb],) + row[la + 1 :] for row in reds)
        for counts1 in self._rho_splits(counts, child, la, lb):
            if (yield child, counts1, reds1):
                return ("rho", counts1, reds1)
        return False

    def _eta_reductions(self, counts, reds, la, lb):
        rcap = self.rcap
        out = []
        seen_a = 0
        seen_b = 0
        for i in range(1, self.latency + 1):
            seen_a += counts[i - 1][la]
            seen_b += counts[i - 1][lb]
            row = list(reds[i - 1])
            # every already-active vertex of the opposite class is a new neighbour
            row[la] = min(rcap, row[la] + seen_b)
            row[lb] = min(rcap, row[lb] + seen_a)
            out.append(tuple(row))
        return tuple(out)

    def _column_splits(self, col, lo, hi):
        """Ways to split a column in two, the first part summing into [lo, hi]."""
        key = (col, lo, hi)
        found = self._splits.get(key)
        if found is None:
            found = self._splits[key] = [
                (part, tuple(c - x for c, x in zip(col, part)))
                for part in product(*(range(c + 1) for c in col))
                if lo <= sum(part) <= hi
            ]
        return found

    def _union_splits(self, counts, left, right):
        per_col = []
        for col, cap_l, cap_r, need_l, need_r in zip(
            zip(*counts),
            self._label_counts[left],
            self._label_counts[right],
            self._target_counts[left],
            self._target_counts[right],
        ):
            total = sum(col)
            options = self._column_splits(
                col, max(need_l, total - cap_r), min(cap_l, total - need_r)
            )
            if not options:
                return
            per_col.append(options)
        for combo in product(*per_col):
            yield (
                tuple(zip(*(part for part, _ in combo))),
                tuple(zip(*(rest for _, rest in combo))),
            )

    def _rho_splits(self, counts, child, la, lb):
        cap_a = self._label_counts[child][la]
        cap_b = self._label_counts[child][lb]
        need_a = self._target_counts[child][la]
        need_b = self._target_counts[child][lb]
        cols = list(zip(*counts))
        total = sum(cols[lb])
        for part, rest in self._column_splits(
            cols[lb], max(need_a, total - cap_b), min(cap_a, total - need_b)
        ):
            cols[la] = part
            cols[lb] = rest
            yield tuple(zip(*cols))

    # -- root-side scanning -------------------------------------------------

    def _root_counts(self, seed_cap: int, min_total: int) -> Iterator[CountMatrix]:
        """Admissible root count matrices, in lexicographic (row-major) order.

        Each column sum lies between the targets and the size of its
        root label class; the seed row sums to at most ``seed_cap`` and
        the whole matrix to at least ``min_total``.  A row i >= 1 that
        sums to zero ends the cascade, so every later row is zero.
        """
        root = self.root_index
        rows = self.latency + 1
        zero_row = (0,) * self.k

        def options(i, left, need):
            if i == 0:
                left = [min(c, seed_cap) for c in left]
            if i < rows - 1:
                need = zero_row
            return product(*(range(n, c + 1) for n, c in zip(need, left)))

        # the rows fixed so far, and for each the state before it: its
        # remaining options, the unused class sizes, the unmet targets
        # and the total activated by the rows above it
        matrix: list[tuple[int, ...]] = []
        saved: list[tuple] = []
        left = self._label_counts[root]
        need = self._target_counts[root]
        total = 0
        rest = options(0, left, need)
        while True:
            row = next(rest, None)
            if row is None:
                if not saved:
                    return
                rest, left, need, total = saved.pop()
                matrix.pop()
                continue
            i = len(matrix)
            active = sum(row)
            if i == 0 and active > seed_cap:
                continue
            if i == rows - 1 or (i and not active):
                if total + active >= min_total and all(
                    x >= n for x, n in zip(row, need)
                ):
                    yield (*matrix, row, *(zero_row,) * (rows - 1 - i))
                continue
            saved.append((rest, left, need, total))
            matrix.append(row)
            left = tuple(c - x for c, x in zip(left, row))
            need = tuple(max(0, n - x) for n, x in zip(need, row))
            total += active
            rest = options(i + 1, left, need)

    def _scan(self, budget: int, requirement: int) -> CountMatrix | None:
        """The first satisfiable root count matrix, or None."""
        root = self.root_index
        zero = self._zero
        for counts in self._root_counts(budget, requirement):
            if self._gamma(root, counts, zero):
                return counts
        return None

    def query(self, counts: CountMatrix, reductions: ReductionMatrix) -> bool:
        """Satisfiability of one query at the root node."""
        self._check_dims(counts, reductions)
        return bool(self._gamma(self.root_index, counts, reductions))

    def _check_dims(self, counts, reductions) -> None:
        if len(counts) != self.latency + 1 or len(reductions) != self.latency:
            raise ValueError("matrix rows do not match the latency bound")
        for row in (*counts, *reductions):
            if len(row) != self.k:
                raise ValueError(f"matrix rows must have width {self.k}")
            if any(x < 0 for x in row):
                raise ValueError("matrix entries must be non-negative")

    def decide(self, budget: int, requirement: int = 0) -> bool:
        """Can at most budget seeds activate the requirement and every target?"""
        return self._scan(budget, requirement) is not None

    def select(self, budget: int, requirement: int = 0) -> frozenset[int] | None:
        """A witness seed set for :meth:`decide`, or None when infeasible."""
        counts = self._scan(budget, requirement)
        if counts is None:
            return None
        seeds = self.reconstruct(counts, self._zero)[0]
        final = simulate(
            self.labeled.graph, self.thresholds, seeds, self.latency
        ).final
        assert len(seeds) <= budget and len(final) >= requirement
        assert self.targets <= final
        return seeds

    def reconstruct(
        self,
        counts: CountMatrix,
        reductions: ReductionMatrix,
        node: int | None = None,
    ) -> list[frozenset[int]]:
        """Materialize a witness process for a satisfiable query.

        Vertex ids refer to the full evaluated graph.  Raises when the
        query is unsatisfiable.
        """
        if node is None:
            node = self.root_index
        if not self._gamma(node, counts, reductions):
            raise ValueError("query is not satisfiable; nothing to reconstruct")
        # every query a witness names was evaluated satisfiable, so the
        # walk below only reads memo entries
        fresh: list[list[int]] = [[] for _ in range(self.latency + 1)]
        stack = [(node, counts, reductions)]
        while stack:
            node, counts, reds = stack.pop()
            witness = self._memo[node][(counts, reds)]
            kind = witness[0]
            if kind == "leaf":
                if witness[1] is not None:
                    fresh[witness[1]].append(self._info[node][0])
            elif kind == "union":
                left, right = self._info[node]
                stack.append((left, witness[1], reds))
                stack.append((right, witness[2], reds))
            elif kind == "eta":
                stack.append((self._info[node][0], counts, witness[1]))
            else:
                stack.append((self._info[node][0], witness[1], witness[2]))
        process = []
        active: frozenset[int] = frozenset()
        for round_fresh in fresh:
            active = active.union(round_fresh)
            process.append(active)
        return process


# ---------------------------------------------------------------------------
# module-level fronts


def decide(
    expr: KExpr,
    thresholds: Sequence[int],
    latency: int,
    budget: int,
    requirement: int,
) -> bool:
    return CliqueWidthSolver(expr, thresholds, latency).decide(
        budget, requirement
    )


def select(
    expr: KExpr,
    thresholds: Sequence[int],
    latency: int,
    budget: int,
    requirement: int,
) -> frozenset[int] | None:
    return CliqueWidthSolver(expr, thresholds, latency).select(
        budget, requirement
    )


def decide_targets(
    expr: KExpr,
    thresholds: Sequence[int],
    latency: int,
    budget: int,
    targets: Iterable[int],
) -> bool:
    """Can every target be activated within latency using at most budget seeds?

    Builds a solver whose leaf constraint makes every target vertex
    activate, and scans root count matrices with a seed row within
    budget and each column at least the targets of its label class.
    """
    return CliqueWidthSolver(expr, thresholds, latency, targets).decide(budget)


def select_targets(
    expr: KExpr,
    thresholds: Sequence[int],
    latency: int,
    budget: int,
    targets: Iterable[int],
) -> frozenset[int] | None:
    """A witness seed set for :func:`decide_targets`, or None."""
    return CliqueWidthSolver(expr, thresholds, latency, targets).select(budget)
