"""The three seeded workloads: documents, op argv lists and answer checks.

Every input is drawn from ``Random(f"{workload}:{seed}")``, so one seed
always yields byte-identical documents.  The program only ever sees the
documents and the argv of each op, exactly as a user would type them.

Each op's check returns ``None`` for a correct answer or a reason.  It
compares against references the timed code path did not produce: the
brute-force oracle for ``cwd-small`` (computed here, during set-up), and
the recoded cascade, generator replays and closed forms of
:mod:`reference` for ``tree-large`` and ``kexpr-large``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from random import Random
from typing import Callable

import reference

# Sizes per workload.  "tiny" is the self-test's: every op kind, seconds.
# A full-size pass holds at least 40 distinct ops, so op_tail_ms has ten
# ops of every pass beyond a percentile of 75 or more.  On a 2-core
# machine a tree-large or kexpr-large pass takes 7-15 s, so a 30 s run
# measures two to four.  A cwd-small pass takes about 25 s, so a run
# measures one: single cwd instances differ up to tenfold in cost, and
# only many distinct ones make a pass cost the same from seed to seed.
SIZES = {
    "full": {
        # (n, latency) strata of cwd-small, crossed with the three families
        "cwd_strata": [(12, 1), (10, 1), (6, 2), (5, 2), (4, 3)],
        # each (n, λ), family and variant five times
        "cwd_ops": 450,
        # (family, n) of the gen documents solved with their default λ = n
        "cwd_default": [("path", 5), ("star", 5), ("random-tree", 4)],
        "tree_n": [8_000, 12_000, 16_000, 20_000, 24_000],
        "simulate_n": [400, 600, 800, 1_000, 1_200],
        "gen_n": [2_000, 4_000, 6_000],
        "gen_cograph_n": [300, 400, 500],
        "read_n": [1_500, 2_000, 2_500],
        "check_path_n": [600, 900, 1_200],
        "read_cograph_n": [300, 400, 500],
    },
    "tiny": {
        "cwd_strata": [(5, 1), (4, 2)],
        "cwd_ops": 36,
        "cwd_default": [("path", 3), ("star", 3), ("random-tree", 3)],
        "tree_n": [200, 300],
        "simulate_n": [20, 40],
        "gen_n": [60],
        "gen_cograph_n": [30],
        "read_n": [80],
        "check_path_n": [50],
        "read_cograph_n": [30],
    },
}

# Per-op limit, ten times the slowest op at the seed commit or more: an
# op running longer is stopped and counted as failed.
OP_LIMIT_S = {"cwd-small": 10.0, "tree-large": 10.0, "kexpr-large": 10.0}

Check = Callable[[int, str], "str | None"]


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Check


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)
    oracle_s: float = 0.0
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


class _Docs:
    """Writes documents into the work directory and hashes every byte."""

    def __init__(self, workdir: str, workload: Workload) -> None:
        self.workdir = workdir
        self.workload = workload
        self.count = 0

    def _path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:03d}-{stem}.json")

    def write(self, stem: str, doc: dict) -> str:
        path = self._path(stem)
        data = json.dumps(doc, separators=(",", ":")).encode()
        self.workload._digest.update(data)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def generate(self, family: str, n: int, seed: int) -> tuple[str, dict]:
        """A document written by the package's own ``latss gen``."""
        from latss import cli

        path = self._path(f"gen-{family}-{n}")
        with redirect_stdout(io.StringIO()):
            rc = cli.main(
                ["gen", family, "--n", str(n), "--seed", str(seed), "--output", path]
            )
        if rc != 0:
            raise RuntimeError(f"latss gen {family} --n {n} exited {rc}")
        with open(path, "rb") as fh:
            data = fh.read()
        self.workload._digest.update(data)
        return path, json.loads(data)


def _result(out: str) -> dict:
    doc = json.loads(out)
    doc.pop("wall_time_s", None)
    return doc


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Spread every group evenly over the pass, so any prefix has each kind."""
    keyed = [
        ((k + 0.5) / len(group), g, op)
        for g, group in enumerate(groups)
        for k, op in enumerate(group)
    ]
    return [op for _, _, op in sorted(keyed, key=lambda item: item[:2])]


# ---------------------------------------------------------------------------
# cwd-small


def _cwd_check(doc: dict, variant: str, expect: dict) -> Check:
    """Check a cwd answer against the oracle's reference values."""
    adj = reference.adjacency(doc["n"], doc["edges"])
    targets = set(doc.get("targets", ()))

    def check(rc: int, out: str) -> str | None:
        feasible = expect["feasible"]
        if rc != (0 if feasible else 1):
            return f"exit {rc}, oracle says feasible={feasible}"
        res = _result(out)
        if res.get("feasible") is not feasible:
            return "feasibility differs from the oracle"
        if not feasible:
            return None if res.get("target_set") is None else "witness on infeasible"
        seeds = res["target_set"]
        sizes, final = reference.cascade_sizes(
            adj, doc["thresholds"], seeds, doc["lambda"]
        )
        if res["round_sizes"] != sizes or res["size"] != len(seeds):
            return "round_sizes or size disagree with the cascade"
        if variant == "lA":
            if len(seeds) != expect["optimum"]:
                return f"size {len(seeds)}, oracle optimum {expect['optimum']}"
        elif len(seeds) > doc["budget"]:
            return "witness over budget"
        if variant == "lba":
            return None if len(final) >= doc["alpha"] else "witness short of alpha"
        return None if targets <= final else "witness misses targets"

    return check


def _best_activation(graph, thresholds, latency: int, budget: int) -> list[int]:
    """Most vertices activated with at most b seeds, for b = 0..budget (oracle)."""
    from latss import oracle

    masks = oracle.neighbor_masks(graph)
    best = [0] * (budget + 1)
    for size in range(budget + 1):
        for comb in combinations(range(graph.n), size):
            seed = 0
            for v in comb:
                seed |= 1 << v
            got = oracle.cascade(masks, thresholds, seed, latency).bit_count()
            best[size] = max(best[size], got)
        if size:
            best[size] = max(best[size], best[size - 1])
    return best


# Variant cycle of cwd-small: a third of the answers are "infeasible".
CWD_VARIANTS = ("lA", "lbA-opt", "lbA-below", "lba-frontier", "lba-past", "lbA-opt")


# Targets-only and budget+targets instances are drawn this many times,
# keeping the draw with the median optimum: their cost grows steeply with
# the optimum (the CLI builds a solver per budget up to it), so a single
# draw would let a few unlucky instances set a seed's cost.
CWD_DRAWS = 9


def _cwd_draw(rng: Random, family: str, n: int):
    """A random expression of one family and size, its graph and thresholds."""
    from latss import kexpr
    from latss.graphs import random_tree

    if family == "path":
        expr = kexpr.path_expression(n)
    elif family == "tree":
        expr = kexpr.tree_expression(random_tree(n, rng))
    else:
        expr = kexpr.cograph_expression(n, rng)
    expr = kexpr.canonicalize_names(expr)
    graph = kexpr.evaluate(expr).graph
    thresholds = [rng.randint(1, graph.degree(v) + 1) for v in range(n)]
    return expr, graph, thresholds


def _cwd_op(docs: _Docs, rng: Random, family: str, n: int, latency: int,
            variant: str, half_targets: bool, wl: Workload) -> Op:
    """A fresh random instance of one family and size, posed as one variant."""
    from latss import kexpr, oracle

    if variant.startswith("lba"):
        expr, graph, thresholds = _cwd_draw(rng, family, n)
        # the largest budget up to n/4 at which not every vertex is reachable
        start = time.perf_counter()
        best = _best_activation(graph, thresholds, latency, max(1, n // 4))
        wl.oracle_s += time.perf_counter() - start
        budget = max(b for b in range(len(best)) if best[b] < n)
        extra = {"budget": budget, "alpha": best[budget] + (variant == "lba-past")}
        expect = {"feasible": variant == "lba-frontier"}
    else:
        draws = []
        for _ in range(CWD_DRAWS):
            expr, graph, thresholds = _cwd_draw(rng, family, n)
            targets = sorted(rng.sample(range(n), n // 2)) if half_targets else list(range(n))
            start = time.perf_counter()
            optimum = len(oracle.brute_min_target(graph, thresholds, latency, targets))
            wl.oracle_s += time.perf_counter() - start
            draws.append((optimum, expr, graph, thresholds, targets))
        median = sorted(d[0] for d in draws)[CWD_DRAWS // 2]
        optimum, expr, graph, thresholds, targets = next(d for d in draws if d[0] == median)
        extra = {"targets": targets}
        if variant != "lA":
            extra["budget"] = optimum - (variant == "lbA-below")
        expect = {"optimum": optimum, "feasible": variant != "lbA-below"}
    doc = {
        "n": n,
        "edges": sorted([u, v] for u, v in graph.edges),
        "thresholds": thresholds,
        "lambda": latency,
        "kexpr": kexpr.unparse(expr),
        **extra,
    }

    path = docs.write(f"cwd-{family}-{n}-l{latency}-{variant}", doc)
    return Op(
        f"solve-cwd-{variant}",
        ["solve", "--method", "cwd", "--instance", path],
        _cwd_check(doc, variant[:3], expect),
    )


def _cwd_small(wl: Workload, docs: _Docs, rng: Random, size: dict) -> None:
    from latss import oracle
    from latss.graphs import Graph

    # every op gets its own instance: many distinct instances keep the
    # workload's cost from hanging on a few lucky or unlucky draws
    strata = size["cwd_strata"]
    families = ("path", "tree", "cograph")
    ops = []
    for i in range(size["cwd_ops"]):
        n, latency = strata[i % len(strata)]
        family = families[(i // len(strata)) % 3]
        variant = CWD_VARIANTS[(i // (3 * len(strata))) % len(CWD_VARIANTS)]
        ops.append(_cwd_op(docs, rng, family, n, latency, variant, i % 2 == 1, wl))
    # documents exactly as `latss gen` writes them: unit thresholds, λ = n
    defaults = []
    for family, n in size["cwd_default"]:
        path, doc = docs.generate(family, n, rng.randrange(1 << 30))
        graph = Graph(doc["n"], [tuple(e) for e in doc["edges"]])
        start = time.perf_counter()
        optimum = len(
            oracle.brute_min_target(graph, doc["thresholds"], doc["lambda"], doc["targets"])
        )
        wl.oracle_s += time.perf_counter() - start
        defaults.append(
            Op(
                "solve-cwd-default-lambda",
                ["solve", "--method", "cwd", "--instance", path],
                _cwd_check(doc, "lA", {"optimum": optimum, "feasible": True}),
            )
        )
    wl.ops = _interleave([ops, defaults])


# ---------------------------------------------------------------------------
# tree-large


def _tree_check(doc: dict, optimum: int | None) -> Check:
    """Cascade check on the answer, plus the closed-form optimum if known."""

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        res = _result(out)
        seeds = res.get("target_set")
        if res.get("feasible") is not True or seeds is None:
            return "no seed set"
        if optimum is not None and len(seeds) != optimum:
            return f"size {len(seeds)}, closed-form optimum {optimum}"
        adj = reference.adjacency(doc["n"], doc["edges"])
        sizes, final = reference.cascade_sizes(
            adj, doc["thresholds"], seeds, doc["lambda"]
        )
        if res["round_sizes"] != sizes:
            return "round_sizes disagree with the cascade"
        if not set(doc["targets"]) <= final:
            return "seed set misses targets"
        return None

    return check


def _verified_once(load: Callable[[], dict], make: Callable[[dict], Check]) -> Check:
    """Check fully the first time; afterwards an answer must equal that one.

    Large documents are re-read from disk only for the full check, so the
    benchmark holds none of them between ops.
    """
    verified: list[dict] = []

    def check(rc: int, out: str) -> str | None:
        if verified:
            if rc == 0 and _result(out) == verified[0]:
                return None
        reason = make(load())(rc, out)
        if reason is None and not verified:
            verified.append(_result(out))
        return reason

    return check


def _loader(path: str) -> Callable[[], dict]:
    def load() -> dict:
        with open(path) as fh:
            return json.load(fh)

    return load


def _tree_doc(n: int, edges, thresholds, latency: int, targets) -> dict:
    return {
        "n": n,
        "edges": [list(e) for e in edges],
        "thresholds": thresholds,
        "lambda": latency,
        "targets": targets,
    }


def _degree_thresholds(n: int, edges, rng: Random) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return [rng.randint(1, max(1, d)) for d in deg]


def _tree_large(wl: Workload, docs: _Docs, rng: Random, size: dict) -> None:
    from latss.graphs import path_graph, random_tree, star_graph

    ops = []

    def add(kind: str, doc: dict, optimum: int | None) -> None:
        path = docs.write(f"{kind}-{doc['n']}", doc)
        ops.append(
            Op(
                f"solve-tree-{kind}",
                ["solve", "--method", "tree", "--instance", path],
                _verified_once(_loader(path), partial(_tree_check, optimum=optimum)),
            )
        )

    for n in size["tree_n"]:
        everyone = list(range(n))
        for kind, targets in (("random-tree", everyone), ("random-tree-half", None)):
            edges = sorted(random_tree(n, rng).edges)
            if targets is None:
                targets = sorted(rng.sample(range(n), n // 2))
            thr = _degree_thresholds(n, edges, rng)
            add(kind, _tree_doc(n, edges, thr, rng.randint(3, 8), targets), None)

        path_edges = sorted(path_graph(n).edges)
        for kind, latency in (("path-lambda-n", n), ("path-lambda-6", 6)):
            doc = _tree_doc(n, path_edges, [1] * n, latency, everyone)
            add(kind, doc, reference.unit_path_optimum(n, latency))

        # star: the centre alone reaches every leaf (threshold 1) in round 1
        star_edges = sorted(star_graph(n).edges)
        thr = [rng.randint(1, n - 1)] + [1] * (n - 1)
        add("star", _tree_doc(n, star_edges, thr, rng.randint(1, 4), everyone), 1)

        # caterpillar: a spine of n/5 vertices, every other vertex a leg on it
        spine = n // 5
        cat_edges = [(i, i + 1) for i in range(spine - 1)]
        cat_edges += [(rng.randrange(spine), v) for v in range(spine, n)]
        thr = _degree_thresholds(n, cat_edges, rng)
        half = sorted(rng.sample(range(n), n // 2))
        add("caterpillar", _tree_doc(n, cat_edges, thr, rng.randint(3, 8), half), None)

        # forest: random trees of 1..n/10 vertices until n vertices are used
        forest_edges = []
        base = 0
        while base < n:
            part = min(n - base, rng.randint(1, n // 10))
            forest_edges += [(base + rng.randrange(i), base + i) for i in range(1, part)]
            base += part
        thr = _degree_thresholds(n, forest_edges, rng)
        add("forest", _tree_doc(n, forest_edges, thr, rng.randint(3, 8), everyone), None)

    # a seed at one end of a unit path with λ = m: round i holds 0..i
    for m in size["simulate_n"]:
        path = docs.write(f"simulate-path-{m}", _tree_doc(
            m, sorted(path_graph(m).edges), [1] * m, m, list(range(m))))
        ops.append(Op("simulate-path", ["simulate", "--instance", path, "--seed", "0"],
                      _simulate_check(m)))
    wl.ops = _interleave([[op] for op in ops])


def _simulate_check(m: int) -> Check:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        res = _result(out)
        want = [min(i + 1, m) for i in range(m + 1)]
        if res.get("round_sizes") != want:
            return "round_sizes are not 1, 2, ..., n, n"
        rounds = res.get("rounds")
        if len(rounds) != m + 1 or any(r != list(range(len(r))) for r in rounds):
            return "a round is not the prefix 0..i of the path"
        return None

    return check


# ---------------------------------------------------------------------------
# kexpr-large


def _stable_cograph_seed(n: int, rng: Random) -> int:
    """Of 16 drawn generator seeds, the one closest to the mean edge count.

    Random cographs of one size differ fivefold in edge count, which
    would make this workload's cost depend on the seed more than on the
    code.  The generator joins any two vertices with probability 1/2, at
    the step that merges their groups, so its mean density is 1/2;
    choosing the draw nearest it keeps the size steady across seeds at
    the size users get on average.
    """
    mean = n * (n - 1) / 4
    seeds = [rng.randrange(1 << 30) for _ in range(16)]
    return min(seeds, key=lambda s: abs(reference.cograph_shape(n, s)[0] - mean))


def _gen_check(family: str, n: int, seed: int) -> Check:
    """A generated document must describe the graph the generator replays."""
    if family == "path":
        want = list(range(n - 1))
    elif family == "random-tree":
        edges = reference.random_tree_edges(n, seed)
        want = (len(edges), reference.degree_multiset(n, edges))
    else:
        count, degrees, _ = reference.cograph_shape(n, seed)
        want = (count, degrees)

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        doc = json.loads(out)
        if doc.get("n") != n or doc.get("lambda") != n:
            return "n or lambda differ"
        if doc.get("thresholds") != [1] * n or doc.get("targets") != list(range(n)):
            return "thresholds or targets are not the gen defaults"
        if not isinstance(doc.get("kexpr"), str):
            return "no kexpr"
        edges = doc.get("edges")
        if family == "path":
            ok = edges == [[i, i + 1] for i in want]
        else:
            ok = (len(edges), reference.degree_multiset(n, edges)) == want
        return None if ok else "edges differ from the generator's graph"

    return check


def _read_checks(family: str, n: int, seed: int, path: str) -> dict[str, Check]:
    """Checks of `kexpr check|parse|eval` and `solve --method tree` on a doc."""
    if family == "path":
        count, degrees = n - 1, reference.degree_multiset(
            n, [(i, i + 1) for i in range(n - 1)]
        )
        width = 3
    elif family == "random-tree":
        edges = reference.random_tree_edges(n, seed)
        count, degrees, width = len(edges), reference.degree_multiset(n, edges), 3
    else:
        count, degrees, width = reference.cograph_shape(n, seed)
    load = _loader(path)

    def check_check(rc: int, out: str) -> str | None:
        res = json.loads(out)
        if rc != 0 or res.get("irredundant") is not True or res.get("violations"):
            return f"exit {rc}: not reported irredundant"
        return None

    def check_parse(rc: int, out: str) -> str | None:
        res = json.loads(out)
        if rc != 0 or res.get("vertices") != n or res.get("width") != width:
            return f"exit {rc}: vertices or width differ"
        return None if res.get("formatted") == load()["kexpr"] else "text not reproduced"

    def check_eval(rc: int, out: str) -> str | None:
        res = json.loads(out)
        edges = res.get("edges", [])
        if rc != 0 or res.get("n") != n or len(edges) != count:
            return f"exit {rc}: n or edge count differ"
        if reference.degree_multiset(n, edges) != degrees:
            return "degree multiset differs from the generator's graph"
        return None

    return {
        "check": check_check,
        "parse": check_parse,
        "eval": check_eval,
        # unit thresholds and λ = n on a connected graph: one seed reaches all
        "solve": _verified_once(load, partial(_tree_check, optimum=1)),
    }


def _kexpr_large(wl: Workload, docs: _Docs, rng: Random, size: dict) -> None:
    write_side = []
    for n in size["gen_n"]:
        for family in ("random-tree", "path"):
            seed = rng.randrange(1 << 30)
            write_side.append(
                Op(f"gen-{family}", ["gen", family, "--n", str(n), "--seed", str(seed)],
                   _gen_check(family, n, seed))
            )
    for n in size["gen_cograph_n"]:
        seed = _stable_cograph_seed(n, rng)
        write_side.append(
            Op("gen-cograph", ["gen", "cograph", "--n", str(n), "--seed", str(seed)],
               _gen_check("cograph", n, seed))
        )

    read_side = []
    reads = [
        ("random-tree", size["read_n"], ("check", "parse", "eval", "solve")),
        ("path", size["read_n"], ("parse", "eval", "solve")),
        # check on a path is quadratic in expression depth: kept small
        ("path", size["check_path_n"], ("check",)),
        ("cograph", size["read_cograph_n"], ("check", "parse", "eval")),
    ]
    for family, sizes, actions in reads:
        for n in sizes:
            if family == "cograph":
                seed = _stable_cograph_seed(n, rng)
            else:
                seed = rng.randrange(1 << 30)
            path, _ = docs.generate(family, n, seed)
            checks = _read_checks(family, n, seed, path)
            for action in actions:
                if action == "solve":
                    argv = ["solve", "--method", "tree", "--instance", path]
                else:
                    argv = ["kexpr", action, "--instance", path]
                read_side.append(Op(f"{action}-{family}", argv, checks[action]))
    wl.ops = _interleave([write_side, read_side])


WORKLOADS = {
    "cwd-small": _cwd_small,
    "tree-large": _tree_large,
    "kexpr-large": _kexpr_large,
}


def build(name: str, seed: int, workdir: str, size: str = "full") -> Workload:
    """Generate one workload's documents, references and ops."""
    wl = Workload(name)
    WORKLOADS[name](wl, _Docs(workdir, wl), Random(f"{name}:{seed}"), SIZES[size])
    return wl
