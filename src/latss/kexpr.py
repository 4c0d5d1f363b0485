"""k-expressions: parse, print, evaluate, validate, lift, and generate.

A k-expression builds a labeled graph with four operations: introduce a
vertex with a label, disjoint union, insert every edge between two label
classes, and rename a label.  Concrete syntax (whitespace insignificant):

    expr  := label "(" ident ")"
           | "U(" expr "," expr ")"
           | "eta(" label "," label "," expr ")"
           | "rho(" label "->" label "," expr ")"
    label := positive integer
    ident := [A-Za-z0-9_]+

Vertex ids of an evaluated expression are assigned by leaf order in a
left-to-right depth-first traversal (equivalently: order of appearance
in the printed text).  All traversals here are iterative, so deeply
nested expressions — paths with hundreds of thousands of vertices — do
not hit the interpreter's recursion limit.

The parser takes tokens from one compiled regex as it needs them and
works out a line and column only when it raises.  :func:`evaluate`,
:func:`check_irredundant` and :func:`normalize_irredundant` are loops
over one shared walk that keeps the label classes and the path from the
root, so each runs in one pass over the expression, near-linear in its
size plus the edges it produces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Sequence, Union as TypingUnion

from .graphs import (
    Graph,
    is_tree,  # unused here; perfbench/tracing.py rebinds it by this name
    root_forest,
)


@dataclass(frozen=True, slots=True)
class Leaf:
    label: int
    name: str


@dataclass(frozen=True, slots=True)
class Union:
    left: "KExpr"
    right: "KExpr"


@dataclass(frozen=True, slots=True)
class Eta:
    """Insert every edge between label ``a`` and label ``b`` (a != b)."""

    a: int
    b: int
    child: "KExpr"


@dataclass(frozen=True, slots=True)
class Rho:
    """Rename label ``a`` to ``b`` (a != b)."""

    a: int
    b: int
    child: "KExpr"


KExpr = TypingUnion[Leaf, Union, Eta, Rho]


class KExprError(ValueError):
    """Malformed expression."""


class ParseError(KExprError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class PartialRedundancyError(KExprError):
    """An edge-insertion re-covers some existing edges but also adds new ones.

    The normalizer refuses to repair these: downstream solvers require
    that no inserted cross pair exists beforehand, and dropping the
    operation would lose its genuinely new edges.
    """

    def __init__(self, path: tuple[int, ...], a: int, b: int) -> None:
        super().__init__(
            f"eta({a},{b}) at path {path} adds some new edges but re-covers existing ones"
        )
        self.path = path
        self.a = a
        self.b = b


class IrredundancyError(KExprError):
    """Expression rejected because an edge insertion hits existing edges."""

    def __init__(self, violations: list["IrredundancyViolation"]) -> None:
        super().__init__(
            f"expression is not irredundant: {len(violations)} violating eta node(s), "
            f"first at path {violations[0].path}"
        )
        self.violations = violations


@dataclass(frozen=True)
class IrredundancyViolation:
    """An eta node whose label classes already share an edge.

    ``path`` is the chain of child indices from the root (0 = only/left
    child, 1 = right child); ``edge`` names one offending vertex pair.
    """

    path: tuple[int, ...]
    a: int
    b: int
    edge: tuple[str, str]


# ---------------------------------------------------------------------------
# scanner / parser


# One token per match, told apart by group: a word, a punctuation mark,
# or any other non-blank character (an error).  Whitespace never matches.
_TOKEN_RE = re.compile(r"([A-Za-z0-9_]+)|(->|[(),])|(\S)")
_WORD, _PUNCT, _BAD = 1, 2, 3


class _Frame:
    __slots__ = ("op", "a", "b", "left")

    def __init__(self, op: str, a: int = 0, b: int = 0) -> None:
        self.op = op
        self.a = a
        self.b = b
        self.left: KExpr | None = None


def parse(text: str) -> KExpr:
    """Parse concrete syntax into an expression tree.

    Raises :class:`ParseError` with line/column on bad syntax, duplicate
    vertex names, zero labels, or equal labels in an edge-insertion or
    rename.  An unexpected character anywhere in the text is reported
    before any other error.
    """
    matches = _TOKEN_RE.finditer(text)

    def fail(message: str, offset: int):
        # the text before offset scanned clean, so the first unexpected
        # character, if any, lies at or after it
        for m in _TOKEN_RE.finditer(text, offset):
            if m.lastindex == _BAD:
                message, offset = f"unexpected character {m.group()!r}", m.start()
                break
        line = text.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - text.rfind("\n", 0, offset))

    def take() -> tuple[str, str, int]:
        """The next token as (kind, text, offset); kind is 'word', 'end' or the mark."""
        m = next(matches, None)
        if m is None:
            return "end", "", len(text)
        piece = m.group()
        if m.lastindex == _WORD:
            return "word", piece, m.start()
        if m.lastindex == _BAD:
            fail(f"unexpected character {piece!r}", m.start())
        return piece, piece, m.start()

    def expect(kind: str) -> None:
        got, piece, offset = take()
        if got != kind:
            fail(f"expected {kind!r}, found {piece or 'end of input'!r}", offset)

    def take_label() -> int:
        kind, piece, offset = take()
        if kind != "word" or not piece.isdigit():
            fail(f"expected a label, found {piece or 'end of input'!r}", offset)
        label = int(piece)
        if label == 0:
            fail("labels start at 1", offset)
        return label

    names_seen: set[str] = set()
    frames: list[_Frame] = []

    while True:
        kind, head, start = take()
        if kind != "word":
            fail(f"expected an expression, found {head or 'end of input'!r}", start)
        if head == "U":
            expect("(")
            frames.append(_Frame("U"))
            continue
        if head in ("eta", "rho"):
            expect("(")
            a = take_label()
            expect("," if head == "eta" else "->")
            b = take_label()
            if a == b:
                fail(f"{head} needs two distinct labels, got {a} twice", start)
            expect(",")
            frames.append(_Frame(head, a, b))
            continue
        if head.isdigit():
            label = int(head)
            if label == 0:
                fail("labels start at 1", start)
            expect("(")
            kind, name, offset = take()
            if kind != "word":
                fail(f"expected a vertex name, found {name or 'end of input'!r}", offset)
            if name in names_seen:
                fail(f"duplicate vertex name {name!r}", offset)
            names_seen.add(name)
            expect(")")
            value: KExpr = Leaf(label, name)
        else:
            fail(f"expected 'U', 'eta', 'rho', or a label, found {head!r}", start)

        # Attach the completed subexpression upward.
        while True:
            if not frames:
                expect("end")
                return value
            top = frames[-1]
            if top.op == "U" and top.left is None:
                top.left = value
                expect(",")
                break  # parse the right operand next
            frames.pop()
            expect(")")
            if top.op == "U":
                assert top.left is not None
                value = Union(top.left, value)
            elif top.op == "eta":
                value = Eta(top.a, top.b, value)
            else:
                value = Rho(top.a, top.b, value)


def unparse(expr: KExpr) -> str:
    """Canonical text; ``parse(unparse(e)) == e`` for well-formed e."""
    pieces: list[str] = []
    stack: list[KExpr | str] = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
        elif isinstance(item, Leaf):
            pieces.append(f"{item.label}({item.name})")
        elif isinstance(item, Union):
            stack.extend([")", item.right, ", ", item.left, "U("])
        elif isinstance(item, Eta):
            stack.extend([")", item.child, f"eta({item.a},{item.b}, "])
        else:
            stack.extend([")", item.child, f"rho({item.a}->{item.b}, "])
    return "".join(pieces)


# ---------------------------------------------------------------------------
# traversal helpers


def _postorder(expr: KExpr) -> list[KExpr]:
    out: list[KExpr] = []
    stack: list[tuple[KExpr, bool]] = [(expr, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
            continue
        stack.append((node, True))
        if isinstance(node, Union):
            stack.append((node.right, False))
            stack.append((node.left, False))
        elif isinstance(node, (Eta, Rho)):
            stack.append((node.child, False))
    return out


def fold(
    expr: KExpr,
    leaf: Callable[[Leaf], object],
    union: Callable[[Union, object, object], object],
    eta: Callable[[Eta, object], object],
    rho: Callable[[Rho, object], object],
) -> object:
    """Iterative bottom-up fold over the expression tree."""
    vals: list[object] = []
    for node in _postorder(expr):
        if isinstance(node, Leaf):
            vals.append(leaf(node))
        elif isinstance(node, Union):
            right = vals.pop()
            left = vals.pop()
            vals.append(union(node, left, right))
        elif isinstance(node, Eta):
            vals.append(eta(node, vals.pop()))
        else:
            vals.append(rho(node, vals.pop()))
    return vals[0]


def validate(expr: KExpr) -> None:
    """Well-formedness for programmatically built trees.

    Checks what the parser checks: positive labels, distinct labels in
    every edge-insertion/rename, and globally unique leaf names.
    """
    names: set[str] = set()
    for node in _postorder(expr):
        if isinstance(node, Leaf):
            if node.label < 1:
                raise KExprError(f"leaf {node.name!r} has label {node.label} < 1")
            if node.name in names:
                raise KExprError(f"duplicate vertex name {node.name!r}")
            if not re.fullmatch(r"[A-Za-z0-9_]+", node.name):
                raise KExprError(f"invalid vertex name {node.name!r}")
            names.add(node.name)
        elif isinstance(node, (Eta, Rho)):
            if node.a < 1 or node.b < 1:
                raise KExprError("labels start at 1")
            if node.a == node.b:
                op = "eta" if isinstance(node, Eta) else "rho"
                raise KExprError(f"{op} needs two distinct labels, got {node.a} twice")


def width(expr: KExpr) -> int:
    """Largest label mentioned anywhere in the expression."""
    w = 0
    for node in _postorder(expr):
        if isinstance(node, Leaf):
            w = max(w, node.label)
        elif isinstance(node, (Eta, Rho)):
            w = max(w, node.a, node.b)
    return w


def leaf_count(expr: KExpr) -> int:
    return sum(1 for node in _postorder(expr) if isinstance(node, Leaf))


def leaf_names(expr: KExpr) -> list[str]:
    """Leaf names in depth-first order, i.e. by evaluated vertex id."""
    return [n.name for n in _postorder(expr) if isinstance(n, Leaf)]


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class LabeledGraph:
    """Result of evaluating an expression.

    ``labels[v]`` is the final label of vertex v and ``names[v]`` the
    leaf name it was introduced with; ids follow depth-first leaf order.
    ``violations`` lists the edge-insertions that re-covered an existing
    edge (see :func:`check_irredundant`).
    """

    graph: Graph
    labels: tuple[int, ...]
    names: tuple[str, ...]
    violations: tuple[IrredundancyViolation, ...] = ()


def _walk(expr: KExpr):
    """Post-order walk that keeps the label classes of the subgraph built so far.

    Yields ``(node, classes, sides)`` for every node after its children.
    ``classes`` maps each label of the node's subgraph to its vertex ids,
    which count leaves in walk order; unions and renames merge the
    smaller class into the larger, so the whole walk is near-linear in
    the expression size.  ``sides`` is the walk's own stack: the child
    index taken at each ancestor of the node, so ``tuple(sides)`` is the
    node's path from the root.  Both are live and change on the next
    step.
    """
    vals: list[dict[int, list[int]]] = []  # classes of the finished subtrees
    above: list[KExpr] = []  # the node's ancestors, root first
    sides: list[int] = []
    vid = 0
    node = expr
    while True:
        while not isinstance(node, Leaf):
            above.append(node)
            sides.append(0)
            node = node.left if isinstance(node, Union) else node.child
        vals.append({node.label: [vid]})
        vid += 1
        yield node, vals[-1], sides
        while True:
            if not above:
                return
            node = above[-1]
            if isinstance(node, Union) and not sides[-1]:
                # the left operand is done: walk the right one next
                sides[-1] = 1
                node = node.right
                break
            above.pop()
            sides.pop()
            if isinstance(node, Union):
                right = vals.pop()
                left = vals[-1]
                if len(left) < len(right):
                    left, right = right, left
                    vals[-1] = left
                for lab, ids in right.items():
                    if lab in left:
                        left[lab].extend(ids)
                    else:
                        left[lab] = ids
            elif isinstance(node, Rho):
                top = vals[-1]
                if node.a in top:
                    ids = top.pop(node.a)
                    if node.b in top:
                        top[node.b].extend(ids)
                    else:
                        top[node.b] = ids
            yield node, vals[-1], sides


def _evaluate(expr: KExpr):
    """One walk: leaf names, edge set, root label classes, violations."""
    names: list[str] = []
    edges: set[tuple[int, int]] = set()
    violations: list[IrredundancyViolation] = []
    for node, classes, sides in _walk(expr):
        if isinstance(node, Leaf):
            names.append(node.name)
        elif isinstance(node, Eta):
            offending: tuple[str, str] | None = None
            for u in classes.get(node.a, ()):
                for v in classes.get(node.b, ()):
                    key = (u, v) if u < v else (v, u)
                    if key in edges:
                        if offending is None:
                            offending = (names[u], names[v])
                    else:
                        edges.add(key)
            if offending is not None:
                violations.append(
                    IrredundancyViolation(tuple(sides), node.a, node.b, offending)
                )
    return names, edges, classes, violations


def evaluate(expr: KExpr) -> LabeledGraph:
    """Build the labeled graph an expression denotes, noting redundant insertions.

    Assumes a well-formed tree (see :func:`validate`).  Runs in one walk,
    near-linear in the expression size plus the number of produced
    edges.
    """
    names, edges, classes, violations = _evaluate(expr)
    labels = [0] * len(names)
    for lab, ids in classes.items():
        for v in ids:
            labels[v] = lab
    return LabeledGraph(
        Graph(len(names), edges), tuple(labels), tuple(names), tuple(violations)
    )


def check_irredundant(expr: KExpr) -> list[IrredundancyViolation]:
    """List every edge-insertion applied where its classes already share an edge.

    Empty iff, before each ``eta(a,b, ...)``, the child graph has no
    edge between an a-labeled and a b-labeled vertex — exactly the
    precondition the clique-width solver needs.  Each violation's
    ``path`` is built only when its eta violates, so the check is linear
    in the expression size plus the number of edges.
    """
    return _evaluate(expr)[3]


def normalize_irredundant(expr: KExpr) -> KExpr:
    """Drop every edge-insertion that adds no new edge.

    Raises :class:`PartialRedundancyError` when an insertion would add
    some new edges while re-covering existing ones; such expressions
    must be rewritten by the caller.
    """
    edges: set[tuple[int, int]] = set()
    built: list[KExpr] = []
    for node, classes, sides in _walk(expr):
        if isinstance(node, Leaf):
            built.append(node)
        elif isinstance(node, Union):
            right = built.pop()
            left = built.pop()
            same = left is node.left and right is node.right
            built.append(node if same else Union(left, right))
        elif isinstance(node, Eta):
            child = built.pop()
            fresh: list[tuple[int, int]] = []
            covered = False
            for u in classes.get(node.a, ()):
                for v in classes.get(node.b, ()):
                    key = (u, v) if u < v else (v, u)
                    if key in edges:
                        covered = True
                    else:
                        fresh.append(key)
            if not fresh:
                built.append(child)  # no-op eta: delete
                continue
            if covered:
                raise PartialRedundancyError(tuple(sides), node.a, node.b)
            edges.update(fresh)
            built.append(node if child is node.child else Eta(node.a, node.b, child))
        else:  # Rho
            child = built.pop()
            built.append(node if child is node.child else Rho(node.a, node.b, child))
    return built[0]


# ---------------------------------------------------------------------------
# target lifting


def lift_targets(expr: KExpr, target_names: Iterable[str], k: int | None = None) -> KExpr:
    """Split every label class into a plain and a distinguished half.

    Leaves whose names are in ``target_names`` get their label shifted
    up by ``k``; every edge-insertion becomes the composition of the
    four insertions between the split halves, and every rename acts on
    both halves in parallel.  The lifted expression evaluates to the
    same graph, with the distinguished vertices carrying labels > k.
    """
    wanted = set(target_names)
    if k is None:
        k = width(expr)
    elif width(expr) > k:
        raise KExprError(f"expression uses labels above k={k}")
    seen: set[str] = set()

    def on_leaf(node):
        seen.add(node.name)
        if node.name in wanted:
            return Leaf(node.label + k, node.name)
        return node

    def on_eta(node, child):
        a, b = node.a, node.b
        out = Eta(a + k, b + k, child)
        out = Eta(a + k, b, out)
        out = Eta(a, b + k, out)
        return Eta(a, b, out)

    def on_rho(node, child):
        return Rho(node.a, node.b, Rho(node.a + k, node.b + k, child))

    lifted = fold(expr, on_leaf, lambda _n, l, r: Union(l, r), on_eta, on_rho)
    missing = wanted - seen
    if missing:
        raise KExprError(f"unknown target vertex name(s): {sorted(missing)}")
    return lifted


def canonicalize_names(expr: KExpr) -> KExpr:
    """Rename leaves to their depth-first index, so name == str(vertex id)."""
    counter = 0

    def on_leaf(node):
        nonlocal counter
        out = Leaf(node.label, str(counter))
        counter += 1
        return out

    return fold(
        expr,
        on_leaf,
        lambda _n, l, r: Union(l, r),
        lambda n, c: Eta(n.a, n.b, c),
        lambda n, c: Rho(n.a, n.b, c),
    )


# ---------------------------------------------------------------------------
# generators


def path_expression(n: int, names: Sequence[str] | None = None) -> KExpr:
    """Width-3 expression for the path on n vertices.

    ``names`` lists the vertices along the path; by default they are
    chosen so that name == str(evaluated vertex id) and the edge list
    comes out as 0-1, 1-2, ...
    """
    if n < 1:
        raise ValueError("path needs at least one vertex")
    if names is None:
        names = [str(n - 1 - j) for j in range(n)]
    else:
        names = list(names)
        if len(names) != n:
            raise ValueError(f"expected {n} names, got {len(names)}")
    expr: KExpr = Leaf(1, names[0])
    if n == 1:
        return expr
    expr = Eta(2, 1, Union(Leaf(2, names[1]), expr))
    for j in range(2, n):
        grown = expr if j == 2 else Rho(3, 2, Rho(2, 1, expr))
        expr = Eta(3, 2, Union(Leaf(3, names[j]), grown))
    return expr


def star_expression(n: int) -> KExpr:
    """Width-2 expression for the star with centre ``0`` and n-1 leaves."""
    if n < 1:
        raise ValueError("star needs at least one vertex")
    if n == 1:
        return Leaf(1, "0")
    rim: KExpr = Leaf(1, str(n - 1))
    for i in range(n - 2, 0, -1):
        rim = Union(Leaf(1, str(i)), rim)
    return Eta(2, 1, Union(Leaf(2, "0"), rim))


def cograph_expression(n: int, rng: Random) -> KExpr:
    """Random width-2 expression built from unions and complete joins."""
    if n < 1:
        raise ValueError("cograph needs at least one vertex")
    items: list[KExpr] = [Leaf(1, str(i)) for i in range(n)]
    while len(items) > 1:
        first = items.pop(rng.randrange(len(items)))
        second = items.pop(rng.randrange(len(items)))
        if rng.random() < 0.5:
            merged: KExpr = Union(first, second)
        else:
            # join: relabel one side to 2, connect across, retire to 1
            merged = Rho(2, 1, Eta(1, 2, Union(first, Rho(1, 2, second))))
        items.append(merged)
    return items[0]


def tree_expression(tree: Graph, root: int = 0) -> KExpr:
    """Width-3 irredundant expression evaluating to the given tree.

    Standard bottom-up construction: a finished subtree has its root
    labeled 2 and everything else labeled 1; a child is relabeled to 3,
    joined to its parent, then retired to 1.  Leaf names are the tree's
    vertex ids as strings.  A forest of two or more trees is refused.
    """
    # n - 1 edges and no cycle (root_forest raises on one) make a tree
    if len(tree.edges) != tree.n - 1:
        raise ValueError("input graph is not a tree")
    parent, order, _ = root_forest(tree, root)
    if tree.n == 1:
        return Leaf(1, str(root))

    built: dict[int, KExpr] = {}
    for v in order:
        acc: KExpr = Leaf(2, str(v))
        for w in tree.adjacency[v]:
            if parent[w] == v:
                acc = Rho(3, 1, Eta(2, 3, Union(acc, Rho(2, 3, built.pop(w)))))
        built[v] = acc
    return built[root]
