"""The DP work corpus: its draw, its tally, and its answers against references.

The whole corpus runs on request (``python tests/dp_corpus.py``), which
checks its answer digest; here a seeded pick of one instance per row
keeps the run short.  No count is pinned: a DP change may move the
tally, never an answer.
"""

import random

from latss import trees
from latss.cliquewidth import CliqueWidthSolver
from latss.oracle import brute_select

import dp_corpus
from dp_corpus import PER_ROW, ROWS, ask, draw_corpus, tally

CASES = draw_corpus()
PICKED = [
    CASES[row * PER_ROW + random.Random(0).randrange(PER_ROW)]
    for row in range(len(ROWS))
]


def test_the_draw_follows_the_rows():
    assert len(CASES) == len(ROWS) * PER_ROW
    for i, case in enumerate(CASES):
        family, n, latency = ROWS[i // PER_ROW]
        assert (case.family, case.graph.n, case.latency) == (family, n, latency)
        assert all(1 <= t <= case.graph.degree(v) + 1
                   for v, t in enumerate(case.thresholds))
    assert [c.thresholds for c in draw_corpus()] == [c.thresholds for c in CASES]


def test_answers_match_the_references():
    for case in PICKED:
        graph, thr, lam, targets = case.graph, case.thresholds, case.latency, case.targets
        n = graph.n
        least, below, most = ask(
            CliqueWidthSolver(case.expression, thr, lam, targets)
        )
        assert len(least) == len(brute_select(graph, thr, lam, n, targets, 0))
        if case.family != "cograph":
            assert len(least) == len(trees.solve(graph, thr, lam, targets))
        assert below is (False if least else None)
        want = brute_select(graph, thr, lam, n, targets, 3 * n // 4)
        assert (most is None) == (want is None)
        if most is not None:
            assert len(most) == len(want)


def test_tally_counts_the_memo_and_is_repeatable():
    cographs = [case for case in CASES if case.family == "cograph"][:4]
    entries, roots, digest = tally(cographs)
    assert entries > roots > 0
    assert len(digest) == 64
    assert tally(cographs) == (entries, roots, digest)


def test_main_exits_one_when_the_digest_moves(monkeypatch, capsys):
    monkeypatch.setattr(dp_corpus, "draw_corpus", lambda: [])
    for digest, code in ((dp_corpus.DIGEST, 0), ("0" * 64, 1)):
        monkeypatch.setattr(dp_corpus, "tally", lambda cases: (5, 2, digest))
        assert dp_corpus.main() == code
        out = capsys.readouterr().out
        assert out.startswith("memo entries 5\nroot queries 2\n")
        assert (dp_corpus.DIGEST in out and "0" * 64 in out) == bool(code)
