"""k-expressions: parse, print, evaluate, validate, lift, and generate.

A k-expression builds a labeled graph with four operations: introduce a
vertex with a label, disjoint union, insert every edge between two label
classes, and rename a label.  Concrete syntax (whitespace insignificant):

    expr  := label "(" ident ")"
           | "U(" expr "," expr ")"
           | "eta(" label "," label "," expr ")"
           | "rho(" label "->" label "," expr ")"
    label := positive integer of at most sys.get_int_max_str_digits() digits
    ident := [A-Za-z0-9_]+

Vertex ids of an evaluated expression are assigned by leaf order in a
left-to-right depth-first traversal (equivalently: order of appearance
in the printed text).  All traversals here are iterative, so deeply
nested expressions — paths with hundreds of thousands of vertices — do
not hit the interpreter's recursion limit; that holds for comparing,
hashing and printing nodes too.

Nodes are slotted value classes: two trees are equal, and hash alike,
when they list the same node classes and fields in post-order.  They are
not frozen, since a frozen dataclass pays about three times a plain
slot store for each field it sets.  Trees share subtrees, so a node is
never mutated once built.  ``latss gen`` prints its expression as
built, naming each leaf by its vertex id in the one print walk, rather
than rebuilding the tree through :func:`canonicalize_names`.

The parser first screens the text with string builtins: an ASCII text
passes when ``str.translate`` deletes every character of it and each
'-' and '>' is part of a '->'.  Only a text that fails the screen gets a
regex search, which finds the unexpected character to report ahead of
every other error, or none when the only non-ASCII characters are
blanks.  The parser then lists the tokens as plain strings a window of
text at a time, by spacing out the marks and splitting at blanks, not
one by one as it needs them, checks each construct once, token by token
in reading order, and works out a line and column only when it raises.
One checked post-order pass holds every well-formedness check;
:func:`evaluate`, :func:`check_irredundant` and
:func:`normalize_irredundant` are one loop over its node list, and
refuse a malformed tree as :func:`validate` does.  The loop works on
whole label classes: an insertion makes one ``isdisjoint`` test per
vertex of its smaller class and, when no edge joins the two classes,
extends each vertex's adjacency list by the whole other class, so the
Python work goes with the class sizes, not the vertex pairs, and
builtins copy the edges.  Only a violating insertion walks its pairs,
and a root path is read off the list only for it.  The clique-width
solver builds its node table and its evaluation from that list too, so
it walks an expression once.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from random import Random
from typing import Callable, Iterable, Sequence, Union as TypingUnion

from .graphs import (
    Graph,
    is_tree,  # unused here; perfbench/tracing.py rebinds it by this name
    root_forest,
)


class _Node:
    """Value semantics for the four node classes, without recursion.

    A node's value is its key: the class and fields of each node of its
    tree, in post-order.  Each class has a fixed number of children, so
    that sequence fixes the tree's shape.  Two trees are equal when their
    keys are, and equal trees hash alike by construction.  ``repr``
    prints the dataclass text.  The key comes from the iterative
    post-order and ``repr`` keeps an explicit stack, so a deep tree does
    not hit the interpreter's recursion limit.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(
            (Leaf, n.label, n.name) if isinstance(n, Leaf)
            else (Union,) if isinstance(n, Union)
            else (type(n), n.a, n.b)
            for n in _postorder(self)
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        def push(value):  # a node is expanded later; anything else is a piece now
            stack.append(value if isinstance(value, _Node) else repr(value))

        pieces: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
                continue
            cls = type(item).__qualname__
            if isinstance(item, Leaf):
                pieces.append(f"{cls}(label={item.label!r}, name={item.name!r})")
            elif isinstance(item, Union):
                stack.append(")")
                push(item.right)
                stack.append(", right=")
                push(item.left)
                stack.append(f"{cls}(left=")
            else:
                stack.append(")")
                push(item.child)
                stack.append(f"{cls}(a={item.a!r}, b={item.b!r}, child=")
        return "".join(pieces)


@dataclass(slots=True, eq=False, repr=False)
class Leaf(_Node):
    label: int
    name: str


@dataclass(slots=True, eq=False, repr=False)
class Union(_Node):
    left: "KExpr"
    right: "KExpr"


@dataclass(slots=True, eq=False, repr=False)
class Eta(_Node):
    """Insert every edge between label ``a`` and label ``b`` (a != b)."""

    a: int
    b: int
    child: "KExpr"


@dataclass(slots=True, eq=False, repr=False)
class Rho(_Node):
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


# Any character the grammar has no token for: a '-' not starting '->', a
# '>' not ending one, or a non-blank that is no word character or mark.
_BAD_RE = re.compile(r"[^\sA-Za-z0-9_(),>-]|-(?!>)|(?<!-)>")
# Once _BAD_RE finds nothing, every non-blank belongs to one of these;
# _error scans with it again to place the token it reports.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|->|[(),]")
# str.translate deletes every ASCII blank, word character and mark, so an
# ASCII text it empties, whose every '-' and '>' is in a '->', holds nothing
# _BAD_RE finds.  Built over ASCII only: a table over all of Unicode costs
# every import about 0.15 s.
_ASCII_OK = str.maketrans(
    dict.fromkeys(
        c for c in map(chr, range(128)) if c.isspace() or c.isalnum() or c in "_(),->"
    )
)
# Tokens are listed a window of text at a time; a window ends just after
# the first ',' this many characters in, so no token spans two windows.
_WINDOW = 1 << 16
# Tokens read past a construct's head: "eta ( a , b ," is the longest.
_LOOKAHEAD = 6
_END = [""] * _LOOKAHEAD  # "" stands for the end of the input
_MARKS = frozenset(["(", ")", ",", "->", ""])  # every token that is no word
_HEADERS = {"eta": (Eta, ","), "rho": (Rho, "->")}


def _screened(text: str) -> bool:
    """Whether ``_BAD_RE`` surely finds nothing in ``text``, told without a regex.

    False for any text with a non-ASCII character, blank or not.
    """
    return (
        text.isascii()
        and not text.translate(_ASCII_OK)
        and text.count("-") == text.count("->") == text.count(">")
    )


def _windows(text: str):
    """The text's tokens, a window at a time; the last window ends with ``_END``.

    The text must hold nothing ``_BAD_RE`` finds.  Then spacing out the
    marks and splitting at blanks lists what ``_TOKEN_RE.findall`` would:
    ``str.split`` and the regex ``\\s`` split at the same characters.
    """
    pos, end = 0, len(text)
    while True:
        cut = text.find(",", pos + _WINDOW) + 1 or end
        toks = (
            text[pos:cut]
            .replace("(", " ( ")
            .replace(")", " ) ")
            .replace(",", " , ")
            .replace("->", " -> ")
            .split()
        )
        if cut == end:
            yield toks + _END
            return
        yield toks
        pos = cut


def _parse_error(text: str, message: str, offset: int) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _error(text: str, message: str, token: int) -> ParseError:
    """The error at the ``token``-th token, found by scanning again; past the last, at the end."""
    m = next(islice(_TOKEN_RE.finditer(text), token, None), None)
    return _parse_error(text, message, len(text) if m is None else m.start())


def _expected(text: str, want: str, found: str, token: int) -> ParseError:
    return _error(text, f"expected {want!r}, found {found or 'end of input'!r}", token)


def parse(text: str) -> KExpr:
    """Parse concrete syntax into an expression tree.

    Raises :class:`ParseError` with line/column on bad syntax, duplicate
    vertex names, zero labels, labels longer than the interpreter's
    integer digit limit, or equal labels in an edge-insertion or rename.
    An unexpected character anywhere in the text is reported first;
    otherwise the first error in reading order, as each construct is
    checked once, token by token (equal labels at the eta or rho).

    A clean text runs no regex.  Its characters are screened with
    ``str.translate`` and ``str.count``; a regex search looks for the
    first unexpected character only in a text that fails that screen.
    The tokens are then listed as plain strings, one window of text at a
    time, by ``str.replace`` and ``str.split``, and the parser indexes
    into that short list, so memory beyond the tree stays small.  A
    token's line and column are worked out only when it raises, by
    scanning the text again up to that token.  Raises
    :class:`KExprError` if ``text`` is not a ``str``.
    """
    if not isinstance(text, str):
        raise KExprError(f"expression text must be a str, not {type(text).__name__}")
    if not _screened(text):
        bad = _BAD_RE.search(text)  # None if only blanks are non-ASCII
        if bad is not None:
            raise _parse_error(text, f"unexpected character {bad.group()!r}", bad.start())

    # int() refuses longer labels; a limit of 0 means none
    digits = sys.get_int_max_str_digits() or len(text)
    windows = _windows(text)
    toks: list[str] = []
    i = base = 0  # toks[i] is the next token, the (base + i)-th of the text
    limit = -1  # list the next window before reading a head past toks[limit]
    names: set[str] = set()
    # the open operations, innermost last: None for a union awaiting its
    # left operand, then that operand; a, b, Eta or Rho for an open eta or
    # rho (flat, so a deep expression's stack stays small)
    frames: list = []
    while True:
        while i > limit:  # never past the last window: its _END stops the parse
            toks = toks[i:] + next(windows)
            base += i
            limit = len(toks) - _LOOKAHEAD
            i = 0

        head = toks[i]
        header = _HEADERS.get(head)
        if header is None and head != "U":  # a leaf, headed by its label
            if not head.isdigit():
                message = (
                    f"expected an expression, found {head or 'end of input'!r}"
                    if head in _MARKS
                    else f"expected 'U', 'eta', 'rho', or a label, found {head!r}"
                )
                raise _error(text, message, base + i)
            if len(head) > digits:
                raise _error(text, f"label has more than {digits} digits", base + i)
            label = int(head)
            if not label:
                raise _error(text, "labels start at 1", base + i)
        if toks[i + 1] != "(":
            raise _expected(text, "(", toks[i + 1], base + i + 1)
        if header is not None:
            cls, sep = header
            # checked inline: a call per label costs the parse about 5%
            ta = toks[i + 2]
            if not ta.isdigit():
                message = f"expected a label, found {ta or 'end of input'!r}"
                raise _error(text, message, base + i + 2)
            if len(ta) > digits:
                raise _error(text, f"label has more than {digits} digits", base + i + 2)
            a = int(ta)
            if not a:
                raise _error(text, "labels start at 1", base + i + 2)
            if toks[i + 3] != sep:
                raise _expected(text, sep, toks[i + 3], base + i + 3)
            tb = toks[i + 4]
            if not tb.isdigit():
                message = f"expected a label, found {tb or 'end of input'!r}"
                raise _error(text, message, base + i + 4)
            if len(tb) > digits:
                raise _error(text, f"label has more than {digits} digits", base + i + 4)
            b = int(tb)
            if not b:
                raise _error(text, "labels start at 1", base + i + 4)
            if a == b:
                message = f"{head} needs two distinct labels, got {a} twice"
                raise _error(text, message, base + i)
            if toks[i + 5] != ",":
                raise _expected(text, ",", toks[i + 5], base + i + 5)
            frames += (a, b, cls)
            i += 6
            continue
        if head == "U":
            frames.append(None)
            i += 2
            continue
        name = toks[i + 2]
        if name in _MARKS:
            message = f"expected a vertex name, found {name or 'end of input'!r}"
            raise _error(text, message, base + i + 2)
        if name in names:
            raise _error(text, f"duplicate vertex name {name!r}", base + i + 2)
        if toks[i + 3] != ")":
            raise _expected(text, ")", toks[i + 3], base + i + 3)
        names.add(name)
        value: KExpr = Leaf(label, name)
        i += 4

        # Attach the completed subexpression upward.  A window ends with
        # a ',' or _END, so these reads stay inside the list.
        while True:
            tok = toks[i]
            if not frames:
                if tok:
                    raise _expected(text, "end", tok, base + i)
                return value
            top = frames[-1]
            if top is None:
                if tok != ",":
                    raise _expected(text, ",", tok, base + i)
                frames[-1] = value
                i += 1
                break  # parse the right operand next
            if tok != ")":
                raise _expected(text, ")", tok, base + i)
            i += 1
            if type(top) is type:
                value = top(frames[-3], frames[-2], value)
                del frames[-3:]
            else:
                value = Union(top, value)
                frames.pop()


def unparse(expr: KExpr) -> str:
    """Canonical text; ``parse(unparse(e)) == e`` for well-formed e."""
    return _unparse(expr, False)


class _Text(str):
    """Closing text on :func:`_unparse`'s stack, told apart from a str child."""


_CLOSE, _COMMA = _Text(")"), _Text(", ")


def _unparse(expr: KExpr, numbered: bool) -> str:
    """The text of ``expr``; if ``numbered``, the i-th leaf printed is named ``i``.

    Leaves print in evaluated vertex order, so the numbered text is
    ``unparse(canonicalize_names(expr))``, made without building a tree.
    Raises :class:`KExprError` on anything that is not a node.
    """
    pieces: list[str] = []
    stack: list = [expr]
    leaves = 0
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is _Text:
            pieces.append(item)
        elif cls is Leaf:
            pieces.append(f"{item.label}({leaves if numbered else item.name})")
            leaves += 1
        elif cls is Union:
            pieces.append("U(")
            stack += (_CLOSE, item.right, _COMMA, item.left)
        elif cls is Eta:
            pieces.append(f"eta({item.a},{item.b}, ")
            stack += (_CLOSE, item.child)
        elif cls is Rho:
            pieces.append(f"rho({item.a}->{item.b}, ")
            stack += (_CLOSE, item.child)
        else:
            raise KExprError(f"{item!r} is not an expression node")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# traversal helpers


def _postorder(expr: KExpr) -> list[KExpr]:
    """Every node, children first; KExprError on anything that is not a node."""
    # a pre-order that takes right operands first, reversed, is the post-order;
    # one type() per node, compared by identity, is cheaper than isinstance
    out: list[KExpr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        cls = type(node)
        if cls is Union:
            stack.append(node.left)
            stack.append(node.right)
        elif cls is Eta or cls is Rho:
            stack.append(node.child)
        elif cls is not Leaf:
            raise KExprError(f"{node!r} is not an expression node")
    out.reverse()
    return out


def fold(
    expr: KExpr,
    leaf: Callable[[Leaf], object],
    union: Callable[[Union, object, object], object],
    eta: Callable[[Eta, object], object],
    rho: Callable[[Rho, object], object],
) -> object:
    """Iterative bottom-up fold over the expression tree."""
    return _fold(_postorder(expr), leaf, union, eta, rho)


def _fold(post, leaf, union, eta, rho):
    """:func:`fold` over a post-order node list."""
    vals: list[object] = []
    for node in post:
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


_NAME_RE = re.compile(r"[A-Za-z0-9_]+")


def _checked_postorder(expr: KExpr) -> tuple[list[KExpr], int]:
    """Post-order node list and width; raises as :func:`validate` does."""
    post = _postorder(expr)
    names: set[str] = set()
    # raised by comparisons: a max() call per node costs about as much as the walk
    w = 0
    for node in post:
        cls = type(node)
        if cls is Leaf:
            label, name = node.label, node.name
            if type(name) is not str:
                raise KExprError(f"vertex name {name!r} is not a str")
            if type(label) is not int:
                raise KExprError(f"leaf {name!r} has label {label!r}, not an int")
            if label < 1:
                raise KExprError(f"leaf {name!r} has label {label} < 1")
            if name in names:
                raise KExprError(f"duplicate vertex name {name!r}")
            if not _NAME_RE.fullmatch(name):
                raise KExprError(f"invalid vertex name {name!r}")
            names.add(name)
            if label > w:
                w = label
        elif cls is not Union:
            a, b = node.a, node.b
            if type(a) is not int or type(b) is not int:
                raise KExprError(f"labels {a!r} and {b!r} are not both ints")
            if a < 1 or b < 1:
                raise KExprError("labels start at 1")
            if a == b:
                op = "eta" if cls is Eta else "rho"
                raise KExprError(f"{op} needs two distinct labels, got {a} twice")
            if a > w:
                w = a
            if b > w:
                w = b
    return post, w


def validate(expr: KExpr) -> None:
    """Well-formedness for programmatically built trees.

    Checks what the parser checks: labels that are positive ints,
    distinct labels in every edge-insertion/rename, and leaf names that
    are globally unique strings of word characters.
    """
    _checked_postorder(expr)


def width(expr: KExpr) -> int:
    """Largest label anywhere in the expression; raises as :func:`validate` does."""
    return _checked_postorder(expr)[1]


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


def _evaluate(post: list[KExpr]):
    """Leaf names, adjacency lists, root classes and verdicts of a checked node list.

    Keeps the label classes of the subgraph built so far: each label maps
    to its vertex ids, which count leaves in list order; unions and
    renames merge the smaller class into the larger.  An insertion works
    on whole classes: one ``isdisjoint`` call per vertex of the smaller
    class, against a set of the larger, tells whether an edge already
    joins them, and if none does, each vertex's adjacency list is
    extended by the whole other class.  Only a violating insertion walks
    its vertex pairs, u of class a before v of class b, naming the first
    pair that is already an edge and adding only the missing ones, so
    the lists, returned unsorted, hold no repeats.  Besides the
    violations it returns ``idle``, the ids of the etas that add no edge
    (a checked tree holds each node once, since every node has a leaf
    below it), and ``partial``, the ``(path, a, b)`` of the first eta
    that adds some edges while re-covering others, or None.
    """
    names: list[str] = []
    adj: list[list[int]] = []  # each vertex's neighbours so far
    found: list[tuple] = []  # (index, a, b, offending pair, added) of violating etas
    idle: set[int] = set()
    vals: list[dict[int, list[int]]] = []  # classes of the finished subtrees
    for i, node in enumerate(post):
        cls = type(node)
        if cls is Leaf:
            vals.append({node.label: [len(names)]})
            names.append(node.name)
            adj.append([])
        elif cls is Union:
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
        elif cls is Rho:
            top = vals[-1]
            if node.a in top:
                ids = top.pop(node.a)
                if node.b in top:
                    top[node.b].extend(ids)
                else:
                    top[node.b] = ids
        else:
            a, b = node.a, node.b
            top = vals[-1]
            us, vs = top.get(a), top.get(b)  # a class is never empty, but may be missing
            if us is None or vs is None:
                idle.add(id(node))
                continue
            small, large = (us, vs) if len(us) <= len(vs) else (vs, us)
            if len(large) == 1:  # then small has one vertex too
                joined = large[0] in adj[small[0]]
            else:
                cover = set(large)
                joined = not all(map(cover.isdisjoint, map(adj.__getitem__, small)))
            if not joined:
                for u in us:
                    adj[u] += vs
                for v in vs:
                    adj[v] += us
                continue
            offending: tuple[str, str] | None = None
            added = False
            for u in us:
                near = set(adj[u])
                for v in vs:
                    if v in near:
                        if offending is None:
                            offending = (names[u], names[v])
                    else:
                        adj[u].append(v)
                        adj[v].append(u)
                        added = True
            if not added:
                idle.add(id(node))
            found.append((i, a, b, offending, added))
    violations, partial = _violations(post, found)
    return names, adj, vals[0], violations, idle, partial


def _violations(post: list[KExpr], found: list[tuple]):
    """The violations and the partial insertion of :func:`_evaluate`'s records.

    A second loop over the list, made only when some eta violates, notes
    each node's parent, so no path is built for any other node.
    """
    violations: list[IrredundancyViolation] = []
    partial = None
    if not found:
        return violations, partial
    up: list = [None] * len(post)  # (parent index, child side); None at the root
    pending: list[int] = []  # finished subtrees still waiting for their parent
    for i, node in enumerate(post):
        cls = type(node)
        if cls is Union:
            up[pending.pop()] = (i, 1)
        if cls is not Leaf:
            up[pending.pop()] = (i, 0)
        pending.append(i)
    for i, a, b, edge, added in found:
        sides = []
        while up[i] is not None:
            i, side = up[i]
            sides.append(side)
        path = tuple(reversed(sides))
        violations.append(IrredundancyViolation(path, a, b, edge))
        if added and partial is None:
            partial = path, a, b
    return violations, partial


def _labeled_graph(post: list[KExpr]) -> LabeledGraph:
    """:func:`evaluate` of a checked post-order node list."""
    names, adj, classes, violations, _, _ = _evaluate(post)
    labels = [0] * len(names)
    for lab, ids in classes.items():
        for v in ids:
            labels[v] = lab
    # the loop's lists are symmetric, loop-free and free of repeats: no re-check
    graph = Graph._from_adjacency(adj)
    return LabeledGraph(graph, tuple(labels), tuple(names), tuple(violations))


def evaluate(expr: KExpr) -> LabeledGraph:
    """Build the labeled graph an expression denotes, noting redundant insertions.

    Raises as :func:`validate` does.  Reads the checked pass's node list
    once; an insertion costs Python work per vertex of its two label
    classes, and builtins copy the edges it adds.  The graph is built
    from the adjacency lists, so its ``edges`` set is made only if read.
    """
    return _labeled_graph(_checked_postorder(expr)[0])


def check_irredundant(expr: KExpr) -> list[IrredundancyViolation]:
    """List every edge-insertion applied where its classes already share an edge.

    Empty iff, before each ``eta(a,b, ...)``, the child graph has no
    edge between an a-labeled and a b-labeled vertex — exactly the
    precondition the clique-width solver needs.  Each insertion is
    tested with one ``isdisjoint`` call per vertex of its smaller class;
    only a violating one walks its vertex pairs, and its ``path`` is
    built only then.  Raises as :func:`validate` does.
    """
    return _evaluate(_checked_postorder(expr)[0])[3]


def normalize_irredundant(expr: KExpr) -> KExpr:
    """Drop every edge-insertion that adds no new edge.

    Raises :class:`PartialRedundancyError` when an insertion would add
    some new edges while re-covering existing ones; such expressions
    must be rewritten by the caller.  Returns ``expr`` itself when no
    insertion is dropped; otherwise rebuilds only the changed spine, from
    the same node list.  Raises as :func:`validate` does.
    """
    post = _checked_postorder(expr)[0]
    *_, idle, partial = _evaluate(post)
    if partial is not None:
        raise PartialRedundancyError(*partial)
    if not idle:
        return expr
    return _fold(
        post,
        lambda n: n,
        lambda n, l, r: n if l is n.left and r is n.right else Union(l, r),
        lambda n, c: c if id(n) in idle else n if c is n.child else Eta(n.a, n.b, c),
        lambda n, c: n if c is n.child else Rho(n.a, n.b, c),
    )


# ---------------------------------------------------------------------------
# target lifting


def lift_targets(expr: KExpr, target_names: Iterable[str]) -> KExpr:
    """Split every label class into a plain and a distinguished half.

    Leaves whose names are in ``target_names`` get their label shifted
    up by the expression's width k; every edge-insertion becomes the
    composition of the four insertions between the split halves, and
    every rename acts on both halves in parallel.  The lifted
    expression evaluates to the same graph, with the distinguished
    vertices carrying labels > k.
    """
    wanted = set(target_names)
    post, k = _checked_postorder(expr)
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

    lifted = _fold(post, on_leaf, lambda _n, l, r: Union(l, r), on_eta, on_rho)
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


def tree_expression(tree: Graph) -> KExpr:
    """Width-3 irredundant expression evaluating to the given forest.

    Standard bottom-up construction: a finished subtree has its root
    labeled 2 and everything else labeled 1; a child is relabeled to 3,
    joined to its parent, then retired to 1.  A forest is the union of
    its trees by smallest vertex, each rooted at its smallest vertex.
    Leaf names are the forest's vertex ids as strings.  A graph with a
    cycle or with no vertex raises ValueError.
    """
    if tree.n == 0:
        raise ValueError("forest needs at least one vertex")
    parent, order, roots = root_forest(tree)
    if tree.n == 1:
        return Leaf(1, "0")

    built: dict[int, KExpr] = {}
    for v in order:
        acc: KExpr = Leaf(2, str(v))
        for w in tree.adjacency[v]:
            if parent[w] == v:
                acc = Rho(3, 1, Eta(2, 3, Union(acc, Rho(2, 3, built.pop(w)))))
        built[v] = acc
    return reduce(Union, map(built.pop, roots))
