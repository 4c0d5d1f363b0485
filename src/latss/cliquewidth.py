"""Exact solver for bounded clique-width graphs given as expressions.

The solver walks the expression tree of an irredundant k-expression.
For a tree node whose labeled subgraph is H, a query is a pair
``(counts, reductions)`` with one row per label class:

* ``counts[l][i]`` — how many label-(l+1) vertices must become active at
  round i (entry 0 is the seed round), for i in 0..latency;
* ``reductions[l][i-1]`` — how much the thresholds of label-(l+1)
  vertices are lowered at round i, for i in 1..latency.

The public methods, the memo keys and the queries passed between nodes
all take this form: a union splits each class's counts, a rename merges
two classes, and an edge insertion adds a running count of one class to
the other's reductions.

A query is satisfiable iff H admits a monotone process S[0] ⊆ ... ⊆
S[latency] that activates exactly the demanded per-label counts each
round under the reduced thresholds, and that activates every target
vertex of H.  The target set is fixed per solver and enters as a leaf
constraint: a target leaf must activate at some round.  Each node keeps
the number of targets per label class beside the class sizes.  Every
class total lies between those two bounds: ``query`` and ``reconstruct``
check it on entry, and the union and rename splits and the root scan
make no other query.  Because the targets never change, one memo serves
every budget and requirement asked of a solver.  The width k counts the
labels in use, which the constructor renumbers 1..k in order.  A
satisfiable entry's witness is the child queries that proved it; a
leaf's is ``(round,)``, the round it fires or None.

Satisfiability is evaluated top-down over the four node kinds with
per-node memoization and an explicit stack, so deep expressions do not
reach the interpreter's recursion limit; only pairs reachable from the
root are ever computed.  The root is queried with all-zero reductions
only, where the process coincides with the real cascade: the seed round
gives the seed budget, and each class total is bounded below by the
targets in that root label class.  A real cascade never resumes after a
round i >= 1 that activates nothing, so the root scan fixes every later
round to zero.  Round 0 is exempt: threshold-0 vertices fire at round 1
without seeds.  The scan takes seed rounds in increasing seed count, so
the first satisfiable query within a budget uses the fewest seeds of
any: one scan at budget n answers the minimisation.

The scan bounds each round i >= 1 by the thresholds.  A vertex that is
not a seed and fires by round i has at most min(A(i-1), degree) active
neighbours, A(i-1) being the number active by round i-1, so its
threshold is at most that.  A table built once counts such vertices per
root class; no cascade fires more of a class in rounds 1..i, so the
scan drops only matrices no cascade produces and keeps its order.

Reduction entries are clamped at the largest threshold: any value at or
above every threshold behaves identically in the activation rule, so
the clamp merges equivalent queries without changing satisfiability.

A solver owns its mutable memo tables; distinct solver instances can
run concurrently on shared inputs.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import sub
from typing import Iterable, Iterator, Sequence

from .graphs import _check_latency, _vertex_set, normalize_thresholds, simulate
from .kexpr import (
    Eta,
    IrredundancyError,
    KExpr,
    LabeledGraph,
    Leaf,
    Union,
    _checked_postorder,
    check_irredundant,  # unused here; perfbench/tracing.py rebinds it by this name
    evaluate,
    lift_targets,  # unused here; perfbench/tracing.py rebinds it by this name
)

CountMatrix = tuple[tuple[int, ...], ...]
ReductionMatrix = tuple[tuple[int, ...], ...]


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
    per-label cardinalities must match ``counts`` exactly.  The process
    fixes the latency.  Dimension mismatches raise; anything else merely
    fails.
    """
    k = len(counts)
    latency = len(process) - 1
    if latency < 0:
        raise ValueError("process must have at least the seed round")
    if len(reductions) != k:
        raise ValueError("counts and reductions need one row per label class")
    if any(len(row) != latency + 1 for row in counts) or any(
        len(row) != latency for row in reductions
    ):
        raise ValueError("rows do not match the process length")
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
        if len(rounds[0] & classes[lab]) != counts[lab - 1][0]:
            return False
    for i in range(1, latency + 1):
        delta = rounds[i] - rounds[i - 1]
        for lab in range(1, k + 1):
            cls = classes[lab]
            if len(delta & cls) != counts[lab - 1][i]:
                return False
            reduced = {
                u
                for u in cls - rounds[i - 1]
                if len(set(graph.adjacency[u]) & rounds[i - 1])
                >= thresholds[u] - reductions[lab - 1][i - 1]
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


def _rows_by_sum(lo, hi, cap: int) -> Iterator[tuple[int, ...]]:
    """Rows with lo <= row <= hi summing to at most cap, by sum, then lexicographic.

    Each row steps to the next of its sum: the rightmost entry that can
    grow while the entries after it can still shrink grows by one, and
    those entries are refilled with the least values that complete the
    sum.  Rows come lazily, at O(k) each, with no recursion.
    """
    k = len(lo)
    # least and greatest sums of the entries from index i on
    lo_from = [*accumulate(reversed(lo), initial=0)][::-1]
    hi_from = [*accumulate(reversed(hi), initial=0)][::-1]
    row = list(lo)
    for total in range(lo_from[0], min(cap, hi_from[0]) + 1):
        i, rest = -1, total
        while True:
            for j in range(i + 1, k):
                row[j] = max(lo[j], rest - hi_from[j + 1])
                rest -= row[j]
            yield tuple(row)
            for i in range(k - 1, -1, -1):
                if row[i] < hi[i] and rest > lo_from[i + 1]:
                    break
                rest += row[i]
            else:
                break
            row[i] += 1
            rest -= 1


def _dense_labels(post: list[KExpr], k: int) -> tuple[list[KExpr], int]:
    """Relabel a post-order node list of width k to use labels 1..k', in order."""
    used: set[int] = set()
    for node in post:
        if isinstance(node, Leaf):
            used.add(node.label)
        elif not isinstance(node, Union):
            used.update((node.a, node.b))
        if len(used) == k:  # already dense, mostly seen within a few nodes
            return post, k
    rank = {label: i for i, label in enumerate(sorted(used), 1)}
    new: dict[int, KExpr] = {}  # by id of the node replaced, in post-order
    for node in post:
        if isinstance(node, Leaf):
            new[id(node)] = Leaf(rank[node.label], node.name)
        elif isinstance(node, Union):
            new[id(node)] = Union(new[id(node.left)], new[id(node.right)])
        else:
            new[id(node)] = type(node)(rank[node.a], rank[node.b], new[id(node.child)])
    return [*new.values()], len(used)


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
        # the checked pass and evaluate's walk, which also finds redundant
        # insertions, are the constructor's only traversals
        post, self.k = _dense_labels(*_checked_postorder(expr))
        self.labeled = evaluate(post[-1])
        if self.labeled.violations:
            raise IrredundancyError(list(self.labeled.violations))
        _check_latency(latency)
        self.latency = latency
        self.thresholds = normalize_thresholds(
            self.labeled.graph, thresholds
        )
        self.targets = _vertex_set(self.labeled.graph.n, targets, "target")
        self.rcap = max(self.thresholds, default=0)
        self._name_to_vid = {
            name: v for v, name in enumerate(self.labeled.names)
        }
        self._zero = ((0,) * latency,) * self.k
        # _fire[a][l]: vertices of root class l with threshold <= min(a, degree)
        fire = [[0] * self.k for _ in range(len(self.thresholds) + 1)]
        for v, (lab, t) in enumerate(zip(self.labeled.labels, self.thresholds)):
            if t <= self.labeled.graph.degree(v):
                fire[t][lab - 1] += 1
        self._fire = [*accumulate(map(tuple, fire), _add)]
        self._build_nodes(post)
        self._memo: list[dict] = [{} for _ in self._kind]
        # class splits by (counts, lo, hi), shared by union and rho nodes
        self._splits: dict = {}

    # -- expression-tree tables ------------------------------------------

    def _build_nodes(self, post: list[KExpr]) -> None:
        k = self.k
        kind: list[str] = []
        info: list[tuple] = []
        label_counts: list[tuple[int, ...]] = []
        target_counts: list[tuple[int, ...]] = []
        stack: list[int] = []
        for idx, node in enumerate(post):
            if isinstance(node, Leaf):
                vid = self._name_to_vid[node.name]
                kind.append("leaf")
                info.append((vid, node.label - 1))
                one_hot = tuple(int(l == node.label - 1) for l in range(k))
                label_counts.append(one_hot)
                target_counts.append(one_hot if vid in self.targets else (0,) * k)
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
        return list(self._memo[node])

    def witnessed_entries(
        self,
    ) -> Iterator[tuple[int, CountMatrix, ReductionMatrix]]:
        """Every satisfiable memo entry, across all nodes."""
        for idx, memo in enumerate(self._memo):
            for (counts, reds), value in list(memo.items()):
                if value:
                    yield idx, counts, reds

    # -- query evaluation -------------------------------------------------

    def _gamma(self, node: int, counts, reds):
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

    def _settle(self, node: int, counts, reds):
        """A query's value when known without its children: a memo hit or a leaf."""
        table = self._memo[node]
        value = table.get((counts, reds))
        if value is None and self._kind[node] == "leaf":
            value = table[counts, reds] = self._gamma_leaf(node, counts, reds)
        return value

    def _gamma_leaf(self, node, counts, reds):
        # seeded, else active at the first round whose reduction reaches the
        # threshold, else never; every query keeps the class total in 0..1
        vid, l0 = self._info[node]
        row, t = counts[l0], self.thresholds[vid]
        fires = 0 if row[0] else next(
            (i for i, r in enumerate(reds[l0], 1) if r >= t), None
        )
        met = not any(row) if fires is None else row[fires]
        return (fires,) if met else False

    def _expand(self, node: int, counts, reds):
        """Frame of an inner node: yields child queries, returns the witness.

        The witness is the tuple of child queries of the alternative that
        succeeded.
        """
        kind = self._kind[node]
        if kind == "union":
            left, right = self._info[node]
            for counts1, counts2 in self._union_splits(counts, left, right):
                first, second = (left, counts1, reds), (right, counts2, reds)
                if (yield first) and (yield second):
                    return first, second
            return False
        child, la, lb = self._info[node]
        if kind == "eta":
            query = (child, counts, self._eta_reductions(counts, reds, la, lb))
            return (query,) if (yield query) else False
        # rho: class la is empty after the rename, so row la of counts is zero
        reds1 = (*reds[:la], reds[lb], *reds[la + 1 :])
        for counts1 in self._rho_splits(counts, child, la, lb):
            query = (child, counts1, reds1)
            if (yield query):
                return (query,)
        return False

    def _eta_reductions(self, counts, reds, la, lb):
        # at round i, every vertex of the opposite class active by round
        # i - 1 is a new neighbour: a prefix sum of its counts
        rcap = self.rcap
        out = list(reds)
        for x, y in ((la, lb), (lb, la)):
            out[x] = tuple(
                min(rcap, r + seen) for r, seen in zip(reds[x], accumulate(counts[y]))
            )
        return tuple(out)

    def _class_splits(self, row, lo, hi):
        """Ways to split a class's counts in two, the first summing into [lo, hi]."""
        key = (row, lo, hi)
        found = self._splits.get(key)
        if found is None:
            found = self._splits[key] = [
                (part, tuple(c - x for c, x in zip(row, part)))
                for part in product(*(range(c + 1) for c in row))
                if lo <= sum(part) <= hi
            ]
        return found

    def _union_splits(self, counts, left, right):
        per_class = []
        caps, needs = self._label_counts, self._target_counts
        for row, cap_l, cap_r, need_l, need_r in zip(
            counts, caps[left], caps[right], needs[left], needs[right]
        ):
            total = sum(row)
            lo, hi = max(need_l, total - cap_r), min(cap_l, total - need_r)
            per_class.append(self._class_splits(row, lo, hi))
        for combo in product(*per_class):
            yield tuple(part for part, _ in combo), tuple(rest for _, rest in combo)

    def _rho_splits(self, counts, child, la, lb):
        caps, needs = self._label_counts[child], self._target_counts[child]
        rows = list(counts)
        total = sum(rows[lb])
        for part, rest in self._class_splits(
            rows[lb], max(needs[la], total - caps[lb]), min(caps[la], total - needs[lb])
        ):
            rows[la] = part
            rows[lb] = rest
            yield tuple(rows)

    # -- root-side scanning -------------------------------------------------

    def _root_counts(self, seed_cap: int, min_total: int) -> Iterator[CountMatrix]:
        """Admissible root count matrices, by seed count, then lexicographic.

        Each column sum lies between the targets and the size of its
        root label class; the seed row sums to at most ``seed_cap`` and
        the whole matrix to at least ``min_total``.  A row i >= 1 that
        sums to zero ends the cascade, so every later row is zero.  Row
        i >= 1 of a class is at most ``_fire[A(i-1)]`` less the class
        total of rows 1..i-1, A(i-1) being the total of rows 0..i-1: a
        vertex that fires by round i has threshold <= min(A(i-1), degree).
        """
        root = self.root_index
        rows = self.latency + 1
        zero_row = (0,) * self.k
        fire = self._fire

        def options(i, left, need, fired, total):
            if i < rows - 1:
                need = zero_row
            if i == 0:
                return _rows_by_sum(need, left, seed_cap)
            hi = map(min, left, map(sub, fire[total], fired))
            return product(*(range(n, c + 1) for n, c in zip(need, hi)))

        # the rows fixed so far, and for each the state before it: its
        # remaining options, the unused class sizes, the unmet targets,
        # the class totals after the seed row and the total activated
        matrix: list[tuple[int, ...]] = []
        saved: list[tuple] = []
        left = self._label_counts[root]
        need = self._target_counts[root]
        fired = zero_row
        total = 0
        rest = options(0, left, need, fired, total)
        while True:
            row = next(rest, None)
            if row is None:
                if not saved:
                    return
                rest, left, need, fired, total = saved.pop()
                matrix.pop()
                continue
            i = len(matrix)
            active = sum(row)
            if i == rows - 1 or (i and not active):
                if total + active >= min_total and all(
                    x >= n for x, n in zip(row, need)
                ):
                    yield (*matrix, row, *(zero_row,) * (rows - 1 - i))
                continue
            saved.append((rest, left, need, fired, total))
            matrix.append(row)
            left = tuple(c - x for c, x in zip(left, row))
            need = tuple(max(0, n - x) for n, x in zip(need, row))
            fired = _add(fired, row) if i else fired
            total += active
            rest = options(i + 1, left, need, fired, total)

    def _scan(self, budget: int, requirement: int):
        """The satisfiable root counts with the fewest seeds, or None."""
        root, zero = self.root_index, self._zero
        for matrix in self._root_counts(budget, requirement):
            counts = tuple(zip(*matrix))
            if self._gamma(root, counts, zero):
                return counts
        return None

    def query(self, counts: CountMatrix, reductions: ReductionMatrix) -> bool:
        """Satisfiability of one query at the root node."""
        key = self._entry(self.root_index, counts, reductions)
        return key is not None and bool(self._gamma(self.root_index, *key))

    def _entry(self, node: int, counts, reductions):
        """A public query as a memo key; None when a class total is out of bounds."""
        counts, reds = tuple(map(tuple, counts)), tuple(map(tuple, reductions))
        shape = (self.latency + 1,) * self.k + (self.latency,) * self.k
        if (*map(len, counts), *map(len, reds)) != shape:
            raise ValueError(
                "each label class needs latency+1 counts and latency reductions"
            )
        if any(x < 0 for row in (*counts, *reds) for x in row):
            raise ValueError("query entries must be non-negative")
        for row, lo, hi in zip(
            counts, self._target_counts[node], self._label_counts[node]
        ):
            if not lo <= sum(row) <= hi:
                return None
        return counts, reds

    def decide(self, budget: int, requirement: int = 0) -> bool:
        """Can at most budget seeds activate the requirement and every target?"""
        return self._scan(budget, requirement) is not None

    def select(self, budget: int, requirement: int = 0) -> frozenset[int] | None:
        """A witness seed set for :meth:`decide`, or None when infeasible.

        The witness has the fewest seeds of any within the budget, so
        ``select(n)`` is a minimum target set.
        """
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
        key = self._entry(node, counts, reductions)
        if key is None or not self._gamma(node, *key):
            raise ValueError("query is not satisfiable; nothing to reconstruct")
        return self._process(node, *key)

    def _process(self, node: int, counts, reductions) -> list[frozenset[int]]:
        # every query a witness names was evaluated satisfiable, so the
        # walk only reads memo entries
        fresh: list[list[int]] = [[] for _ in range(self.latency + 1)]
        stack = [(node, counts, reductions)]
        while stack:
            node, counts, reds = stack.pop()
            witness = self._memo[node][counts, reds]
            if self._kind[node] != "leaf":
                stack.extend(witness)
            elif witness[0] is not None:
                fresh[witness[0]].append(self._info[node][0])
        return list(accumulate(map(frozenset, fresh), frozenset.union))


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
