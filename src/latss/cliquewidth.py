"""Exact solver for bounded clique-width graphs given as expressions.

The solver walks the expression tree of an irredundant k-expression.
For a tree node whose labeled subgraph is H, a query is a pair
``(counts, reductions)`` with one row per label class over rounds 0..r,
r the latency or min(latency, n) (see the root scan below):

* ``counts[l][i]`` — how many label-(l+1) vertices must become active at
  round i (entry 0 is the seed round), for i in 0..r;
* ``reductions[l][i-1]`` — how much the thresholds of label-(l+1)
  vertices are lowered at round i, for i in 1..r.

The public methods, the memo keys and the queries passed between nodes
all take this form: a union splits each class's counts, a rename merges
two classes, and an edge insertion adds a running count of one class to
the other's reductions.

A query is satisfiable iff H admits a monotone process S[0] ⊆ ... ⊆
S[r] that activates exactly the demanded per-label counts each
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
without seeds.

The root scan is one loop over seed counts s, from a seed floor up to
the budget or n, whichever is less.  No cascade with fewer seeds than
the floor meets the requirement and every target, and each count below
s was refuted before s is tried, so the first s that works is the
optimum: one scan at budget n answers the minimisation.  At each s the
greedy seed chain's first s seeds are the answer if, by its tally, they
meet the requirement and every target; the memo is left alone, since it
holds only what the DP proved.  Otherwise the root count matrices of
seed count s are searched in lexicographic order, each row a ``product``
of per-class ranges, the seed row's last entry s less the others' sum,
and the first satisfiable one's witness gives the seeds.  The scan asks
r = min(latency, n) rounds, as a cascade on n vertices stalls by round
n; ``query`` and ``reconstruct`` take that r or r = latency, so every
witnessed entry is a valid query.  The floor and the chain (see
``_Bounds``) read only the graph, the thresholds, the latency and the
targets, never the expression.  So a floor above the budget leaves no
count to try, and a chain that answers at the floor does so before the
solver builds its node tables, memo and caches, which it does on the
DP's first use; ``query`` and ``reconstruct`` build them too.  On dense
graphs at a large latency one seed often suffices, and the search never
runs.  The constructor walks the expression once, in the checked
pass that gives the width, the well-formedness verdict and the node
order, and evaluates from that pass's node list unless the caller passes
the evaluation it made; renumbered labels are mapped onto it.

Every node bounds each round i >= 1 by the thresholds.  In the node's
subgraph H, a class-l vertex v that is not a seed and fires by round i
has at most min(deg_H v, A(i-1)) active neighbours, A(i-1) being the
query's total over rounds 0..i-1, so t(v) is at most that plus R_l(i),
the running maximum of the class's reductions at rounds 1..i.  No
process fires more of class l in rounds 1..i than H has such vertices.
A grid per node and class, indexed by A and R, counts them; the grids
are composed once up the expression tree, since on an irredundant
expression eta(a, b) gives each class-a vertex exactly as many new
neighbours as class b has vertices.  An inner-node query over the bound
is false before its splits are enumerated, and the root scan, where
R = 0, never builds such a matrix.  Only unsatisfiable queries are cut,
so every node finds the same first satisfiable alternative as without
the bound, and witnesses do not change.

Reduction entries are clamped at the largest threshold: any value at or
above every threshold behaves identically in the activation rule, so
the clamp merges equivalent queries without changing satisfiability.

A solver owns its mutable memo tables; distinct solver instances can
run concurrently on shared inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from itertools import accumulate, product, repeat
from operator import add
from typing import Iterable, Iterator, Sequence

from .graphs import (
    ActivationTrace,
    Graph,
    _check_count,
    _vertex_set,
    normalize_thresholds,
    simulate,
)
from .kexpr import (
    Eta,
    IrredundancyError,
    KExpr,
    LabeledGraph,
    Leaf,
    Union,
    _checked_postorder,
    _labeled_graph,
    check_irredundant,  # unused here; perfbench/tracing.py rebinds it by this name
    evaluate,
    lift_targets,  # unused here; perfbench/tracing.py rebinds it by this name
)

CountMatrix = tuple[tuple[int, ...], ...]
ReductionMatrix = tuple[tuple[int, ...], ...]
# grid[a][r]: vertices v of a class with t(v) <= r + min(deg v, a), for a
# up to the class's largest degree and r up to the largest threshold.  The
# rows are lists, never changed once built: a solver's many short rows, as
# tuples, would stay on the interpreter's tuple free lists once it is gone.
Grid = tuple[list[int], ...]


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


def _pooled(x: Grid, y: Grid, x_size: int, y_size: int) -> Grid:
    """Bound grid of the union of two disjoint vertex classes."""
    if not y_size:
        return x
    if not x_size:
        return y
    tx, ty = len(x) - 1, len(y) - 1
    return tuple(
        [*map(add, x[min(a, tx)], y[min(a, ty)])] for a in range(max(tx, ty) + 1)
    )


def _gained(grid: Grid, gain: int) -> Grid:
    """Bound grid of a class whose vertices each gain ``gain`` neighbours.

    With degree d + gain, min(d + gain, a) is a when a <= gain and
    gain + min(d, a - gain) after, so row a is row a - s of the old grid
    read s columns on, s = min(a, gain); columns past the last repeat it.
    """
    width = len(grid[0])
    rows = []
    for a in range(len(grid) + gain):
        s = min(a, gain)
        row = grid[a - s]
        rows.append(row[s:] + row[-1:] * min(s, width))
    return tuple(rows)


def _layers(
    adjacency: Sequence[Sequence[int]], sources: Iterable[int], radius: int
) -> Iterator[set[int]]:
    """The vertices at each distance 0..radius from the sources, while there are any."""
    frontier = set(sources)
    seen = set(frontier)
    for _ in range(radius):
        yield frontier
        frontier = {x for w in frontier for x in adjacency[w]} - seen
        if not frontier:
            return
        seen |= frontier
    yield frontier


def _dense_labels(
    post: list[KExpr], k: int
) -> tuple[list[KExpr], int, dict[int, int] | None]:
    """Relabel a post-order node list of width k to use labels 1..k', in order.

    Also gives the old-to-new label map, None when the labels are dense.
    """
    used: set[int] = set()
    for node in post:
        if isinstance(node, Leaf):
            used.add(node.label)
        elif not isinstance(node, Union):
            used.update((node.a, node.b))
        if len(used) == k:  # already dense, mostly seen within a few nodes
            return post, k, None
    rank = {label: i for i, label in enumerate(sorted(used), 1)}
    new: dict[int, KExpr] = {}  # by id of the node replaced, in post-order
    for node in post:
        if isinstance(node, Leaf):
            new[id(node)] = Leaf(rank[node.label], node.name)
        elif isinstance(node, Union):
            new[id(node)] = Union(new[id(node.left)], new[id(node.right)])
        else:
            new[id(node)] = type(node)(rank[node.a], rank[node.b], new[id(node.child)])
    return [*new.values()], len(used), rank


class _Bounds:
    """Bounds on the optimum from the graph, thresholds, latency and targets.

    The seed floor is a lower bound on the seeds of any cascade that meets
    a requirement and every target.  The greedy chain's prefixes S_1 ⊂ S_2
    ⊂ ... are seed sets that may meet it: each step adds the vertex whose
    cascade reaches the most targets, then the most vertices, ties going
    to the smallest id.  A candidate's gain is scored from the current
    fire rounds by :meth:`_advance`, and kept until a new seed moves a
    vertex within latency + 1 hops of it; the winner's gain adds to the
    tally of what each prefix reaches.  Neither bound reads the
    expression.  The floor's halves are made on first use and the chain
    grows on demand, all of it kept, so a budget sweep makes each once.
    """

    def __init__(
        self,
        graph: Graph,
        thresholds: Sequence[int],
        latency: int,
        targets: frozenset[int],
    ) -> None:
        self.graph, self.thresholds = graph, thresholds
        self.latency, self.targets = latency, targets
        self.seeds: list[int] = []
        empty = simulate(graph, thresholds, (), latency)
        # (targets, vertices) reached by the first i seeds, for each i so far
        self.reach = [(len(targets & empty.final), len(empty.final))]
        # the round each vertex fires under the seeds, latency + 1 for never
        self.fire = [latency + 1] * graph.n
        # the vertices that fire at each round; no cascade runs past round n
        self.rounds: list[set[int]] = [set() for _ in range(min(latency, graph.n) + 1)]
        for i, step in enumerate(empty.steps):
            self.rounds[i].update(step)
            for v in step:
                self.fire[v] = i
        # (targets, vertices) newly reached with each vertex as a seed too;
        # None until scored, and again once a new seed may have changed it
        self.gains: list[tuple[int, int] | None] = [None] * graph.n
        # the two halves of the seed floor (see seed_floor)
        self._packed: int | None = None
        self._reach_caps: list[int] | None = None

    def chain_seeds(self, size: int, requirement: int) -> frozenset[int] | None:
        """The chain's first ``size`` seeds if, by its tally, they meet it all.

        That is, the requirement and every target; None when they do not.
        """
        while len(self.seeds) < size:
            self.grow()
        hit, reached = self.reach[size]
        if reached >= requirement and hit == len(self.targets):
            return frozenset(self.seeds[:size])
        return None

    def grow(self) -> None:
        """Add the next seed, scoring only the candidates not scored since."""
        fire, gains, never = self.fire, self.gains, self.latency + 1
        for v, gain in enumerate(gains):
            if gain is None and fire[v]:  # fire[v] == 0: a seed already
                new = [u for u in self._advance(v) if fire[u] == never]
                gains[v] = (len(self.targets.intersection(new)), len(new))
        best = max(
            (v for v in range(len(fire)) if fire[v]), key=lambda v: (gains[v], -v)
        )
        moved = self._advance(best)
        self.seeds.append(best)
        self.reach.append(tuple(map(add, self.reach[-1], gains[best])))
        for u, i in moved.items():
            if fire[u] != never:
                self.rounds[fire[u]].discard(u)
            self.rounds[i].add(u)
            fire[u] = i
        for layer in _layers(self.graph.adjacency, moved, never):
            for v in layer:
                gains[v] = None

    def _advance(self, seed: int) -> dict[int, int]:
        """The vertices that fire earlier when ``seed`` joins the seeds, by round.

        A vertex that fires at round i in the new cascade and not at round
        i - 1 has a neighbour that fired at round i - 1 in the new
        cascade: one moved there, or one that fired there before and was
        not moved.  So the search spreads from those alone, one hop a
        round, and stops once every moved vertex has fired in the current
        cascade too, since from then on the two cascades agree.
        """
        fire, adjacency, rounds = self.fire, self.graph.adjacency, self.rounds
        moved = {seed: 0}
        fired = [seed]
        ahead = 1  # moved vertices not yet active in the current cascade
        for i in range(1, len(rounds)):
            spread = fired
            for w in rounds[i - 1]:
                if w in moved:
                    ahead -= 1
                else:
                    spread.append(w)
            if not (ahead and spread):  # the cascades agree, or both stopped
                break
            fired = [
                u
                for u in {u for w in spread for u in adjacency[w]}
                if fire[u] > i
                and u not in moved
                # active neighbours by round i - 1, in the new cascade
                and sum(min(fire[x], moved.get(x, i)) < i for x in adjacency[u])
                >= self.thresholds[u]
            ]
            moved.update(dict.fromkeys(fired, i))
            ahead += len(fired)
        return moved

    def seed_floor(self, requirement: int) -> int:
        """A lower bound on the seeds of a cascade meeting the requirement and targets.

        With no threshold 0, a vertex active by round latency lies within
        latency hops of a seed, and a target whose threshold exceeds its
        degree must be a seed itself.  So targets with pairwise disjoint
        regions, the target alone when it is forced and its latency-ball
        otherwise, need distinct seeds; they are packed greedily.  And s
        seeds activate at most s + the s largest c(v), c(v) counting the
        vertices u != v within latency hops of v that can fire
        (t(u) <= deg u).  Each half is made on first use and kept, and
        walks each ball once or twice, never past latency hops.  A
        threshold 0 fires without a seed nearby: the floor is 0.
        """
        if 0 in self.thresholds:
            return 0
        graph, latency = self.graph, self.latency
        adjacency, thresholds = graph.adjacency, self.thresholds
        if self._packed is None:
            # forced targets first, then the others by ascending ball size;
            # a ball is walked once to be sized and again, until it meets
            # one taken, to be packed
            forced = {v for v in self.targets if thresholds[v] > len(adjacency[v])}
            sized = sorted(
                (sum(map(len, _layers(adjacency, (v,), latency))), v)
                for v in self.targets - forced
            )
            taken = set(forced)
            self._packed = len(forced)
            for _, v in sized:
                ball: set[int] = set()
                for layer in _layers(adjacency, (v,), latency):
                    if not taken.isdisjoint(layer):
                        break
                    ball |= layer
                else:
                    taken |= ball
                    self._packed += 1
        if requirement <= self._packed:  # the other half is at most requirement
            return self._packed
        if self._reach_caps is None:
            can_fire = [t <= len(nb) for t, nb in zip(thresholds, adjacency)]
            spread = sorted(
                (
                    sum(
                        can_fire[u]
                        for layer in _layers(adjacency, (v,), latency)
                        for u in layer
                    )
                    - can_fire[v]
                    for v in range(graph.n)
                ),
                reverse=True,
            )
            # caps[s]: the most vertices s seeds activate
            self._reach_caps = [
                *accumulate(spread, lambda cap, c: cap + 1 + c, initial=0)
            ]
        return max(self._packed, bisect_left(self._reach_caps, requirement))


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
        *,
        _labeled: LabeledGraph | None = None,
    ) -> None:
        # the checked pass is the only traversal: the evaluation, which also
        # finds redundant insertions, reads its node list, unless a caller
        # that has evaluate(expr) already passes it as _labeled
        post, width = _checked_postorder(expr)
        if _labeled is None:
            _labeled = _labeled_graph(post)
        post, self.k, rank = _dense_labels(post, width)
        if rank is not None:
            _labeled = replace(_labeled, labels=tuple(rank[l] for l in _labeled.labels))
        self.labeled = _labeled
        if _labeled.violations:
            raise IrredundancyError(list(_labeled.violations))
        _check_count(latency, "latency")
        self.latency = latency
        self._scan_rounds = min(latency, _labeled.graph.n)
        self.thresholds = normalize_thresholds(_labeled.graph, thresholds)
        self.targets = _vertex_set(_labeled.graph.n, targets, "target")
        self.rcap = max(self.thresholds, default=0)
        self._nodes = post
        self.root_index = len(post) - 1
        self._bounds = _Bounds(_labeled.graph, self.thresholds, latency, self.targets)
        # the DP's node tables, memo and caches, made on its first use (see
        # _build); None until then
        self._memo: list[dict] | None = None
        # the simulation that checked select's last answer
        self._trace: ActivationTrace | None = None

    # -- expression-tree tables ------------------------------------------

    def _build(self) -> None:
        """Make the node tables, the memo and the DP's caches, once.

        The tables hold, per node in post-order, ``_info`` (a leaf's vertex
        and class, else its children and classes), the class sizes and
        targets of its subgraph, and each class's bound grid.
        """
        if self._memo is not None:
            return
        k = self.k
        info: list[tuple] = []
        label_counts: list[tuple[int, ...]] = []
        target_counts: list[tuple[int, ...]] = []
        # per node, the bound grid of each class of its subgraph; a class
        # an operation leaves alone shares its child's grid
        bounds: list[tuple[Grid, ...]] = []
        width = self.rcap + 1
        empty = ([0] * width,)
        stack: list[int] = []
        vid = 0  # evaluated ids follow the leaves' post-order
        for idx, node in enumerate(self._nodes):
            if isinstance(node, Leaf):
                info.append((vid, node.label - 1))
                one_hot = tuple(int(l == node.label - 1) for l in range(k))
                label_counts.append(one_hot)
                target_counts.append(one_hot if vid in self.targets else (0,) * k)
                t = self.thresholds[vid]
                alone = ([0] * t + [1] * (width - t),)
                bounds.append(tuple(alone if x else empty for x in one_hot))
                vid += 1
            elif isinstance(node, Union):
                right = stack.pop()
                left = stack.pop()
                info.append((left, right))
                sizes = label_counts[left], label_counts[right]
                label_counts.append(_add(*sizes))
                target_counts.append(_add(target_counts[left], target_counts[right]))
                bounds.append(tuple(map(_pooled, bounds[left], bounds[right], *sizes)))
            elif isinstance(node, Eta):
                child = stack.pop()
                a, b = node.a - 1, node.b - 1
                info.append((child, a, b))
                sizes = label_counts[child]
                label_counts.append(sizes)
                target_counts.append(target_counts[child])
                # irredundant: each class-a vertex gains every class-b vertex
                grids = list(bounds[child])
                if sizes[a] and sizes[b]:
                    grids[a] = _gained(grids[a], sizes[b])
                    grids[b] = _gained(grids[b], sizes[a])
                bounds.append(tuple(grids))
            else:
                child = stack.pop()
                la, lb = node.a - 1, node.b - 1
                info.append((child, la, lb))
                sizes = label_counts[child]
                label_counts.append(_rename(sizes, la, lb))
                target_counts.append(_rename(target_counts[child], la, lb))
                grids = list(bounds[child])
                grids[lb] = _pooled(grids[la], grids[lb], sizes[la], sizes[lb])
                grids[la] = empty
                bounds.append(tuple(grids))
            stack.append(idx)
        self._info = info
        self._label_counts = label_counts
        self._target_counts = target_counts
        self._grids = bounds
        self._zero = ((0,) * self._scan_rounds,) * k
        # class splits by (counts, lo, hi), shared by union and rho nodes
        self._splits: dict = {}
        self._memo = [{} for _ in self._nodes]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def _check_node(self, node: int) -> None:
        if type(node) is not int or not 0 <= node < self.node_count:
            raise ValueError(f"node {node!r} is not in 0..{self.node_count - 1}")

    def subgraph(
        self, node: int
    ) -> tuple[LabeledGraph, tuple[int, ...], dict[int, int]]:
        """Labeled subgraph at a node, its thresholds, and a global->local id map."""
        self._check_node(node)
        local = evaluate(self._nodes[node])
        to_global = {name: v for v, name in enumerate(self.labeled.names)}
        locals_thr = tuple(self.thresholds[to_global[name]] for name in local.names)
        to_local = {to_global[name]: i for i, name in enumerate(local.names)}
        return local, locals_thr, to_local

    def queries(self, node: int) -> list[tuple[CountMatrix, ReductionMatrix]]:
        """All (counts, reductions) pairs evaluated so far at a node."""
        self._check_node(node)
        # before the DP's first use there is nothing to list, nor tables to build
        return [] if self._memo is None else list(self._memo[node])

    def witnessed_entries(
        self,
    ) -> Iterator[tuple[int, CountMatrix, ReductionMatrix]]:
        """Every satisfiable memo entry, across all nodes."""
        for idx, memo in enumerate(self._memo or ()):
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
        """A query's value when known without its children.

        That is a memo hit, a leaf, or an inner query the threshold bound
        rules out, whose children are then never asked.
        """
        table = self._memo[node]
        value = table.get((counts, reds))
        if value is None:
            if type(self._nodes[node]) is Leaf:
                value = table[counts, reds] = self._gamma_leaf(node, counts, reds)
            elif self._exceeds_bound(node, counts, reds):
                value = table[counts, reds] = False
        return value

    def _exceeds_bound(self, node: int, counts, reds) -> bool:
        """Whether some class fires more in rounds 1..i than the bound allows.

        A class-l vertex v of the node's subgraph H that is not a seed and
        fires by round i has at most min(deg_H v, A) active neighbours, A
        being the query's total over rounds 0..i-1, so its threshold is at
        most that plus R, the largest of the class's reductions at rounds
        1..i: the running maximum, since a public query's reductions may
        fall.  The node's grid counts such vertices, and no process fires
        more of the class in rounds 1..i.  The bound grows with i, so a
        class is checked round by round, on running totals made once per
        call, only until its bound covers the class's non-seed total, and
        not at all if the round-1 bound already does.
        """
        seeds = sum(next(zip(*counts)))
        rcap = self.rcap
        active = None
        for row, red, grid in zip(counts, reds, self._grids[node]):
            rest = sum(row) - row[0]
            if not rest:
                continue
            top = len(grid) - 1
            if rest <= grid[min(seeds, top)][min(red[0], rcap)]:
                continue
            if active is None:
                active = [*accumulate(map(sum, zip(*counts)))]
            rounds = zip(accumulate(row[1:]), accumulate(red, max), active)
            for fired, r, total in rounds:
                bound = grid[min(total, top)][min(r, rcap)]
                if fired > bound:
                    return True
                if bound >= rest:
                    break
        return False

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
        cls = type(self._nodes[node])
        if cls is Union:
            left, right = self._info[node]
            for counts1, counts2 in self._union_splits(counts, left, right):
                first, second = (left, counts1, reds), (right, counts2, reds)
                if (yield first) and (yield second):
                    return first, second
            return False
        child, la, lb = self._info[node]
        if cls is Eta:
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
                map(min, map(add, reds[x], accumulate(counts[y])), repeat(rcap))
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

    def _root_counts(self, seeds: int, min_total: int) -> Iterator[CountMatrix]:
        """Admissible root count matrices with ``seeds`` seeds, lexicographically.

        A matrix has rows 0..min(latency, n).  Each column sum lies between
        the targets and the size of its root label class; the seed row sums
        to ``seeds`` and the whole matrix to at least ``min_total``.  A row
        i >= 1 that sums to zero ends the cascade, so every later row is
        zero.  Row i >= 1 of a class is at most its bound at round i with no
        reduction (see :meth:`_exceeds_bound`) less the class total of rows
        1..i-1.  Every row is a ``product`` of per-class ranges, which comes
        in lexicographic order; the seed row's last entry is ``seeds`` less
        the others' sum, kept when it lies in its range.
        """
        root = self.root_index
        rows = self._scan_rounds + 1
        zero_row = (0,) * self.k
        bounds = self._grids[root]

        def options(i, left, need, fired, total):
            if i < rows - 1:
                need = zero_row
            if i == 0:
                *ranges, last = (
                    range(n, min(c, seeds) + 1) for n, c in zip(need, left)
                )
                return (
                    (*head, x)
                    for head in product(*ranges)
                    if (x := seeds - sum(head)) in last
                )
            hi = (
                min(c, grid[min(total, len(grid) - 1)][0] - f)
                for c, f, grid in zip(left, fired, bounds)
            )
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

    def _scan(self, budget: int, requirement: int) -> frozenset[int] | None:
        """The fewest seeds within the budget that meet the requirement, or None.

        Tries each seed count from the floor on: the chain's seeds of that
        count if they meet it all, else the first satisfiable root matrix
        of that count, whose witness gives the seeds.
        """
        _check_count(budget, "budget")
        _check_count(requirement, "requirement")
        bounds = self._bounds
        top = min(budget, self.labeled.graph.n)
        for size in range(bounds.seed_floor(requirement), top + 1):
            seeds = bounds.chain_seeds(size, requirement)
            if seeds is not None:
                return seeds
            self._build()
            root, zero = self.root_index, self._zero
            for matrix in self._root_counts(size, requirement):
                counts = tuple(zip(*matrix))
                if self._gamma(root, counts, zero):
                    return self._process(root, counts, zero)[0]
        return None

    def query(self, counts: CountMatrix, reductions: ReductionMatrix) -> bool:
        """Satisfiability of one query at the root node."""
        key = self._entry(self.root_index, counts, reductions)
        return key is not None and bool(self._gamma(self.root_index, *key))

    def _entry(self, node: int, counts, reductions):
        """A public query as a memo key; None when a class total is out of bounds."""
        self._check_node(node)
        try:
            counts, reds = tuple(map(tuple, counts)), tuple(map(tuple, reductions))
        except TypeError:
            raise ValueError("counts and reductions must be rows of ints") from None
        if (*map(len, counts), *map(len, reds)) not in {
            (rounds + 1,) * self.k + (rounds,) * self.k
            for rounds in (self.latency, self._scan_rounds)
        }:
            raise ValueError(
                "each label class needs r+1 counts and r reductions,"
                " r the latency or min(latency, n)"
            )
        entries = [x for row in (*counts, *reds) for x in row]
        if not set(map(type, entries)) <= {int}:
            raise ValueError("query entries must be ints")
        if any(x < 0 for x in entries):
            raise ValueError("query entries must be non-negative")
        self._build()
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
        seeds = self._scan(budget, requirement)
        if seeds is None:
            return None
        trace = simulate(self.labeled.graph, self.thresholds, seeds, self.latency)
        final = trace.final
        if len(seeds) > budget or len(final) < requirement or not self.targets <= final:
            raise AssertionError(
                "the selected seeds miss the budget, the requirement or a target"
            )
        self._trace = trace
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
        fresh: list[list[int]] = [[] for _ in counts[0]]
        stack = [(node, counts, reductions)]
        while stack:
            node, counts, reds = stack.pop()
            witness = self._memo[node][counts, reds]
            if type(self._nodes[node]) is not Leaf:
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
