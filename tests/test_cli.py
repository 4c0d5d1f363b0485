"""CLI dispatch, instance document validation, exit codes, output schema."""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latss
from latss import cliquewidth, kexpr, oracle, trees
from latss.cli import _edge_list, document_to_instance, load_instance, main
from latss.cli import InstanceError
from latss.graphs import random_tree, simulate
from latss.kexpr import (
    KExprError,
    Leaf,
    Union,
    check_irredundant,
    cograph_expression,
    evaluate,
    leaf_names,
    parse,
    path_expression,
    tree_expression,
    unparse,
)

from strategies import expressions, forests, graphs, random_expression


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def run_captured(argv):
    """Exit code, standard output and standard error of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_quietly(argv):
    """Exit code and standard output of one run; for use inside Hypothesis."""
    return run_captured(argv)[:2]


def write(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


P3_DOC = {
    "n": 3,
    "edges": [[0, 1], [1, 2]],
    "thresholds": [1, 2, 1],
    "lambda": 1,
    "targets": [0, 1, 2],
}


class TestDocuments:
    def test_minimal_document(self):
        instance, expr, _ = document_to_instance(
            {"n": 1, "edges": [], "thresholds": [1], "lambda": 1, "targets": [0]}
        )
        assert instance.graph.n == 1 and expr is None

    @pytest.mark.parametrize(
        "entry, message",
        [
            ([0], "bad edge entry"),
            ([0, 1, 2], "bad edge entry"),
            ("0-1", "bad edge entry"),
            ({"u": 0}, "bad edge entry"),
            ([0, True], "bad edge entry"),
            ([1, 1], "self-loop"),
            ([0, 5], "out of range"),
        ],
        ids=["short", "long", "string", "object", "bool", "self-loop",
             "out-of-range"],
    )
    def test_bad_edge_entry(self, entry, message):
        # the entry follows a good one: each is checked where it stands
        with pytest.raises(InstanceError, match=message):
            document_to_instance(
                {
                    "n": 3,
                    "edges": [[0, 1], entry],
                    "thresholds": [1, 1, 1],
                    "lambda": 1,
                    "targets": [0],
                }
            )

    def test_matching_kexpr_loads(self):
        doc = {
            "n": 5,
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
            "thresholds": [1] * 5,
            "lambda": 2,
            "targets": [0, 4],
            "kexpr": (
                "eta(3,2, U(3(z), rho(3->2, rho(2->1, eta(3,2, U(3(y), rho(3->2, "
                "rho(2->1, eta(3,2, U(3(x), eta(2,1, U(2(v), 1(u)))))))))))))"
            ),
        }
        instance, expr, _ = document_to_instance(doc)
        assert expr is not None and instance.graph.n == 5

    def test_mismatched_kexpr_rejected(self):
        doc = {
            "n": 2,
            "edges": [],
            "thresholds": [1, 1],
            "lambda": 1,
            "targets": [0],
            "kexpr": "eta(2,1, U(2(v), 1(u)))",
        }
        with pytest.raises(InstanceError, match="vertex-for-vertex"):
            document_to_instance(doc)

    def test_missing_fields(self):
        with pytest.raises(InstanceError, match="missing"):
            document_to_instance({"n": 1})

    def test_thresholds_shape(self):
        with pytest.raises(InstanceError, match="thresholds"):
            document_to_instance(
                {"n": 2, "edges": [], "thresholds": [1], "lambda": 0, "targets": []}
            )

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None])
    @pytest.mark.parametrize(
        "where", ["n", "lambda", "budget", "alpha", "edge", "threshold", "target"]
    )
    def test_non_integers_rejected(self, capsys, tmp_path, where, bad):
        doc = json.loads(json.dumps(P3_DOC))
        if where == "edge":
            doc["edges"][1][0] = bad
        elif where == "threshold":
            doc["thresholds"][1] = bad
        elif where == "target":
            doc["targets"][1] = bad
        else:
            doc[where] = bad
        with pytest.raises(InstanceError):
            document_to_instance(doc)
        path = write(tmp_path, doc)
        assert main(["solve", "--method", "brute", "--instance", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--method", "tree"],
            ["solve", "--method", "brute"],
            ["solve", "--method", "cwd"],
            ["simulate", "--seed", "0"],
        ],
    )
    def test_lambda_above_n_reads_as_n(self, capsys, tmp_path, argv):
        doc = {**P3_DOC, "thresholds": [1, 1, 1], "lambda": 10**30}
        assert document_to_instance(doc)[0].latency == 3
        code, out = run(capsys, argv + ["--instance", write(tmp_path, doc)])
        assert code == 0 and out["round_sizes"] == [1, 2, 3, 3]

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(InstanceError, match="JSON"):
            load_instance(str(path))


class TestRefusals:
    """Input errors of the command line: each exits 2 with its message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--method", "tree", "--instance", "{n0}"], "n must be at least 1"),
            (["solve", "--method", "brute", "--instance", "{missing}"], "cannot read"),
            (["simulate", "--seed", "1,,2", "--instance", "{p3}"], "bad seed list"),
            (["solve", "--method", "cwd", "--instance", "{mismatch}"],
             "vertex-for-vertex"),
        ],
        ids=["n-below-one", "missing-instance", "empty-seed-entry", "kexpr-mismatch"],
    )
    def test_exits_two(self, tmp_path, argv, message):
        paths = {
            "n0": write(tmp_path, {**P3_DOC, "n": 0}, name="n0.json"),
            "missing": str(tmp_path / "absent.json"),
            "p3": write(tmp_path, P3_DOC, name="p3.json"),
            # three isolated vertices against the path's two edges
            "mismatch": write(
                tmp_path, {**P3_DOC, "kexpr": "U(1(a), U(1(b), 1(c)))"},
                name="mismatch.json",
            ),
        }
        code, out, err = run_captured([arg.format(**paths) for arg in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err


class TestSimulateCommand:
    def test_trace_document(self, capsys, tmp_path):
        path = write(tmp_path, P3_DOC)
        code, doc = run(capsys, ["simulate", "--instance", path, "--seed", "1"])
        assert code == 0
        assert doc["round_sizes"] == [1, 3]
        assert doc["rounds"][0] == [1]

    def test_bad_seed_is_input_error(self, capsys, tmp_path):
        path = write(tmp_path, P3_DOC)
        code = main(["simulate", "--instance", path, "--seed", "9"])
        capsys.readouterr()
        assert code == 2

    def test_memory_stays_near_the_output(self, tmp_path):
        # one list per round, each merged from the last; a set per round
        # besides them took about 17 times the output
        n = 1000
        doc = {"n": n, "edges": [[v, v + 1] for v in range(n - 1)],
               "thresholds": [1] * n, "lambda": n, "targets": []}
        path, out = write(tmp_path, doc), tmp_path / "rounds.json"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = main(
                ["simulate", "--instance", path, "--seed", "0", "--output", str(out)]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out.read_text())["round_sizes"][-1] == n
        assert peak - before <= 8 * out.stat().st_size


class TestSolveCommand:
    def test_tree_method(self, capsys, tmp_path):
        path = write(tmp_path, P3_DOC)
        code, doc = run(capsys, ["solve", "--method", "tree", "--instance", path])
        assert code == 0
        assert doc["feasible"] and doc["target_set"] == [1] and doc["size"] == 1

    def test_methods_agree_on_minimum(self, capsys, tmp_path):
        path = write(tmp_path, P3_DOC)
        sizes = {}
        for method in ("tree", "brute", "cwd"):
            code, doc = run(capsys, ["solve", "--method", method, "--instance", path])
            assert code == 0
            sizes[method] = doc["size"]
        assert len(set(sizes.values())) == 1

    def test_non_tree_to_tree_method_fails(self, capsys, tmp_path):
        doc = {
            "n": 3,
            "edges": [[0, 1], [1, 2], [0, 2]],
            "thresholds": [1, 1, 1],
            "lambda": 1,
            "targets": [0],
        }
        path = write(tmp_path, doc)
        code = main(["solve", "--method", "tree", "--instance", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: input graph has a cycle" in captured.err

    def test_cwd_without_kexpr_refuses_a_cycle(self, capsys, tmp_path):
        doc = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "thresholds": [1, 1, 1],
               "lambda": 1, "targets": [0]}
        code = main(["solve", "--method", "cwd", "--instance", write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "needs a kexpr in the instance (graph has a cycle)" in captured.err

    def test_cwd_without_kexpr_solves_a_forest(self, capsys, tmp_path):
        # the expression is the union of one expression per tree
        doc = {"n": 3, "edges": [[0, 1]], "thresholds": [1, 1, 1], "lambda": 1,
               "targets": [0, 2]}
        path = write(tmp_path, doc)
        code, out = run(capsys, ["solve", "--method", "cwd", "--instance", path])
        assert code == 0 and out["size"] == 2 and 2 in out["target_set"]

    def test_cwd_forest_fallback_evaluates_once(self, capsys, tmp_path, monkeypatch):
        # the built expression is evaluated once, for the vertex order, and
        # the solver takes that evaluation rather than making its own
        calls = []
        for module, name in ((kexpr, "evaluate"), (cliquewidth, "_labeled_graph")):
            original = getattr(module, name)

            def counted(expr, original=original, name=name):
                calls.append(name)
                return original(expr)

            monkeypatch.setattr(module, name, counted)
        doc = {"n": 3, "edges": [[0, 2], [2, 1]], "thresholds": [1, 3, 1],
               "lambda": 1, "budget": 1, "targets": [0, 2]}
        path = write(tmp_path, doc)
        code, out = run(capsys, ["solve", "--method", "cwd", "--instance", path])
        assert code == 0 and out["size"] == 1
        assert calls == ["evaluate"]

    @pytest.mark.parametrize(
        "fields",
        [{"budget": 3, "alpha": 5}, {"budget": 2, "targets": [1, 5]},
         {"targets": [0, 3, 5]}],
        ids=["lba", "lbA", "lA"],
    )
    def test_brute_prints_the_oracle_witness(self, capsys, tmp_path, fields):
        # each instance has several optima; the oracle's is the
        # lexicographically first among the fewest seeds
        doc = dict(n=6, edges=[[v, v + 1] for v in range(5)],
                   thresholds=[1, 2, 1, 1, 1, 1], **{"lambda": 1}, **fields)
        instance = document_to_instance(doc)[0]
        args = instance.graph, instance.thresholds, instance.latency
        expected = {
            "lba": lambda: oracle.brute_select(
                *args, instance.budget, (), instance.requirement
            ),
            "lbA": lambda: oracle.brute_select(
                *args, instance.budget, instance.targets, 0
            ),
            "lA": lambda: oracle.brute_min_target(*args, instance.targets),
        }[instance.variant]()
        path = write(tmp_path, doc)
        code, out = run(capsys, ["solve", "--method", "brute", "--instance", path])
        assert code == 0 and out["variant"] == instance.variant
        assert out["target_set"] == sorted(expected)

    def test_variant_assertion(self, capsys, tmp_path):
        path = write(tmp_path, P3_DOC)
        code = main(
            ["solve", "--method", "brute", "--variant", "lba", "--instance", path]
        )
        capsys.readouterr()
        assert code == 2

    def test_infeasible_decision_exits_one(self, capsys, tmp_path):
        doc = dict(P3_DOC)
        doc.pop("targets")
        doc["lambda"] = 0  # only seeds are active, so the budget caps the count
        doc["budget"] = 1
        doc["alpha"] = 3
        path = write(tmp_path, doc)
        for method in ("brute", "cwd"):
            code, out = run(capsys, ["solve", "--method", method, "--instance", path])
            assert code == 1
            assert out["feasible"] is False and out["target_set"] is None

    def test_budget_variant_agreement(self, capsys, tmp_path):
        doc = dict(P3_DOC)
        doc["budget"] = 1
        path = write(tmp_path, doc)
        answers = {}
        for method in ("brute", "cwd"):
            code, out = run(capsys, ["solve", "--method", method, "--instance", path])
            answers[method] = (code, out["feasible"], out["size"])
        assert answers["brute"] == answers["cwd"]

    def test_cwd_fallback_respects_vertex_identity(self, capsys, tmp_path):
        # path 0-2-1: the built expression permutes vertex ids, and the
        # asymmetric thresholds make any mix-up change the answer
        doc = {
            "n": 3,
            "edges": [[0, 2], [2, 1]],
            "thresholds": [1, 3, 1],
            "lambda": 1,
            "budget": 1,
            "targets": [0, 2],
        }
        path = write(tmp_path, doc)
        answers = {}
        for method in ("brute", "cwd"):
            code, out = run(capsys, ["solve", "--method", method, "--instance", path])
            answers[method] = (code, out["feasible"], out["size"])
        assert answers["brute"] == answers["cwd"] == (0, True, 1)

    def test_targets_only_cwd_builds_one_solver(self, capsys, tmp_path, monkeypatch):
        built = []
        init = cliquewidth.CliqueWidthSolver.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cliquewidth.CliqueWidthSolver, "__init__", counting_init)
        scans = []
        select = cliquewidth.CliqueWidthSolver.select

        def counting_select(self, *args, **kwargs):
            scans.append(args)
            return select(self, *args, **kwargs)

        monkeypatch.setattr(cliquewidth.CliqueWidthSolver, "select", counting_select)
        code, doc = run(capsys, ["gen", "path", "--n", "6", "--latency", "2"])
        path = write(tmp_path, doc)
        code, out = run(capsys, ["solve", "--method", "cwd", "--instance", path])
        assert code == 0 and out["variant"] == "lA" and out["size"] == 2
        assert len(built) == 1
        # one scan at budget n finds the minimum
        assert len(scans) == 1

    def test_cwd_evaluates_a_kexpr_document_once(self, capsys, tmp_path, monkeypatch):
        # document_to_instance evaluates the expression to match it against
        # the edges, and the solver takes that evaluation
        code, doc = run(capsys, ["gen", "cograph", "--n", "7", "--seed", "3"])
        path = write(tmp_path, doc)
        calls = []

        def counting(evaluate):
            def wrapper(expr):
                calls.append(expr)
                return evaluate(expr)

            return wrapper

        monkeypatch.setattr(kexpr, "evaluate", counting(kexpr.evaluate))
        monkeypatch.setattr(cliquewidth, "evaluate", counting(cliquewidth.evaluate))
        code, out = run(capsys, ["solve", "--method", "cwd", "--instance", path])
        assert code == 0 and out["feasible"]
        assert len(calls) == 1

    def test_deep_expression_solves(self, capsys, tmp_path):
        # a 400-vertex path nests its expression about 1,200 levels deep
        code, doc = run(capsys, ["gen", "path", "--n", "400", "--latency", "1"])
        doc.pop("targets")
        doc["budget"] = 0
        doc["alpha"] = 0
        path = write(tmp_path, doc)
        code, out = run(capsys, ["solve", "--method", "cwd", "--instance", path])
        assert code == 0
        assert out["feasible"] and out["target_set"] == []
        assert out["round_sizes"] == [0, 0]

    def test_wide_label_solves(self, capsys, tmp_path):
        # more labels in use than the interpreter's recursion limit: the root
        # scan steps through 1,001 label classes without recursing per class.
        # One target only: with every vertex a target, each smaller seed row
        # is refused one by one and the solve takes minutes.
        n = 1001
        expr = Leaf(n, str(n - 1))
        for v in range(n - 2, -1, -1):
            expr = Union(Leaf(v + 1, str(v)), expr)
        assert cliquewidth.CliqueWidthSolver(expr, (1,) * n, 1).k == n
        doc = {"n": n, "edges": [], "thresholds": [1] * n, "lambda": 1,
               "targets": [n - 1], "kexpr": unparse(expr)}
        path = write(tmp_path, doc)
        code, out = run(capsys, ["solve", "--method", "cwd", "--instance", path])
        assert code == 0 and out["target_set"] == [n - 1]

    @pytest.mark.parametrize("label", [3, 30_000, 10**30])
    def test_width_counts_the_labels_in_use(self, capsys, tmp_path, label):
        # a 3-vertex path on labels 1, 2 and L: a width of L would size every
        # query by L, and at 10**30 overflow
        text = f"eta({label},2, U({label}(c), eta(2,1, U(2(b), 1(a)))))"
        doc = {"n": 3, "edges": [[0, 1], [1, 2]], "thresholds": [1, 1, 1],
               "lambda": 2, "targets": [0, 1, 2], "kexpr": text}
        path = write(tmp_path, doc)
        code, out = run(capsys, ["solve", "--method", "cwd", "--instance", path])
        assert code == 0
        assert (out["target_set"], out["round_sizes"]) == ([0], [1, 2, 3])
        assert cliquewidth.CliqueWidthSolver(parse(text), (1, 1, 1), 2).k == 3

    def test_internal_error_exits_three(self, capsys, tmp_path, monkeypatch):
        def broken(self, *args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(cliquewidth.CliqueWidthSolver, "select", broken)
        path = write(tmp_path, P3_DOC)
        code = main(["solve", "--method", "cwd", "--instance", path])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "internal error: RuntimeError: injected" in captured.err

    # the star's leaves are forced seeds, so a chain prefix of two that
    # holds the centre misses a leaf
    FORCED_STAR = {"n": 3, "edges": [[0, 1], [0, 2]], "thresholds": [2, 2, 2],
                   "lambda": 1, "targets": [0, 1, 2]}

    def test_a_false_chain_tally_exits_three(self, capsys, tmp_path, monkeypatch):
        # every chain prefix claims to reach all; select's own simulation,
        # not an assert, reports the miss
        grow = cliquewidth._Bounds.grow

        def claims_all(self):
            grow(self)
            self.reach[-1] = (len(self.targets), self.graph.n)

        monkeypatch.setattr(cliquewidth._Bounds, "grow", claims_all)
        path = write(tmp_path, self.FORCED_STAR)
        code = main(["solve", "--method", "cwd", "--instance", path])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "internal error: AssertionError" in captured.err

    def test_a_false_chain_tally_exits_three_under_O(self, tmp_path):
        # the same false tally in a child run with assert statements off
        script = """
import sys
from latss import cliquewidth
from latss.cli import main

if __debug__:
    sys.exit("assert statements are on")
grow = cliquewidth._Bounds.grow

def claims_all(self):
    grow(self)
    self.reach[-1] = (len(self.targets), self.graph.n)

cliquewidth._Bounds.grow = claims_all
sys.exit(main(sys.argv[1:]))
"""
        src = Path(latss.__file__).resolve().parent.parent
        path = write(tmp_path, self.FORCED_STAR)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script,
             "solve", "--method", "cwd", "--instance", path],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "internal error: AssertionError" in proc.stderr

    def test_output_roundtrips(self, capsys, tmp_path):
        path = write(tmp_path, P3_DOC)
        out_path = tmp_path / "result.json"
        code = main(
            [
                "solve",
                "--method",
                "tree",
                "--instance",
                path,
                "--output",
                str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["command"] == "solve" and doc["solver"] == "tree"


def _command(name, tmp_path):
    """The argv of one valid run of each command."""
    path = write(tmp_path, P3_DOC)
    return {
        "gen": ["gen", "path", "--n", "4"],
        "solve": ["solve", "--method", "tree", "--instance", path],
        "simulate": ["simulate", "--instance", path, "--seed", "1"],
        "kexpr": ["kexpr", "parse", "--expr", "eta(2,1, U(2(v), 1(u)))"],
    }[name]


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["gen", "solve", "simulate", "kexpr"])
    def test_exits_two(self, tmp_path, command):
        # a missing directory, and a directory as the file
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            argv = _command(command, tmp_path) + ["--output", str(target)]
            code, out, err = run_captured(argv)
            assert code == 2 and out == ""
            assert err.startswith(f"error: cannot write {target}: ")


class TestClosedStdout:
    """A stdout that no one reads, or none at all, exits 2 with a message."""

    @staticmethod
    def gen_path(n, **popen):
        src = Path(latss.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)  # keep stdout buffered as usual
        proc = subprocess.run(
            [sys.executable, "-m", "latss.cli", "gen", "path", "--n", str(n)],
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
            **popen,
        )
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert err.startswith("error: cannot write stdout: ")
        assert "internal error" not in err and "Exception ignored" not in err

    # a document that fits the stdout buffer fails at the flush, a larger
    # one at the write itself
    @pytest.mark.parametrize("n", [5, 2000])
    def test_reader_gone(self, n):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            self.gen_path(n, stdout=write_end)
        finally:
            os.close(write_end)

    def test_no_stdout(self):
        # with fd 1 closed at start-up, sys.stdout is None
        self.gen_path(5, preexec_fn=lambda: os.close(1))


@pytest.fixture
def collector():
    """Restore the collector's state after a test that changes it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _infeasible_budget(tmp_path):
    doc = dict(P3_DOC, budget=0)  # no seed activates a vertex of threshold >= 1
    return ["solve", "--method", "brute", "--instance", write(tmp_path, doc)]


class TestCollectorState:
    RUNS = {
        0: lambda tmp_path: _command("gen", tmp_path),
        1: _infeasible_budget,
        2: lambda tmp_path: ["kexpr", "parse", "--expr", "1("],
        3: lambda tmp_path: ["solve", "--method", "cwd", "--instance",
                             write(tmp_path, P3_DOC)],
    }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("code", sorted(RUNS))
    def test_left_as_the_caller_set_it(
        self, tmp_path, monkeypatch, collector, code, enabled
    ):
        def broken(self, *args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(cliquewidth.CliqueWidthSolver, "select", broken)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert run_captured(self.RUNS[code](tmp_path))[0] == code
        assert gc.isenabled() is enabled

    def test_paused_while_a_command_runs(self, capsys, tmp_path, monkeypatch, collector):
        seen = []
        solve = trees.solve

        def recording(*args):
            seen.append(gc.isenabled())
            return solve(*args)

        monkeypatch.setattr(trees, "solve", recording)
        gc.enable()
        code, doc = run(capsys, _command("solve", tmp_path))
        assert code == 0 and doc["target_set"] == [1]
        assert seen == [False] and gc.isenabled()


def _drawn_document(expr, data):
    """A valid instance document on a drawn expression, of a drawn variant."""
    graph = evaluate(expr).graph
    n = graph.n
    doc = {
        "n": n,
        "edges": _edge_list(graph),
        "thresholds": [
            data.draw(st.integers(0, graph.degree(v) + 2)) for v in range(n)
        ],
        "lambda": data.draw(st.integers(0, 3)),
        "kexpr": unparse(expr),
    }
    variant = data.draw(st.sampled_from(["lba", "lbA", "lA"]))
    if variant != "lA":
        doc["budget"] = data.draw(st.integers(0, n))
    if variant == "lba":
        doc["alpha"] = data.draw(st.integers(0, n))
    else:
        doc["targets"] = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    return doc


class TestCwdWitnesses:
    """``solve --method cwd`` answers on a seeded corpus, pinned byte for byte."""

    # sha256 over each solve's exit code, stdout without wall_time_s, and
    # stderr, recorded when the root scan still special-cased the seed floor
    DIGEST = "b983df75e33fc775cc8228e19429e7360bba14614632c5baf4050c3e9e05a036"

    @staticmethod
    def corpus():
        """Paths, trees, cographs and random expressions, in lA, lbA and lba turns."""
        rng = random.Random(54)
        for i in range(300):
            n = rng.randint(4, 9)
            expr = (
                lambda: path_expression(n),
                lambda: tree_expression(random_tree(n, rng)),
                lambda: cograph_expression(n, rng),
                lambda: random_expression(rng, max_vertices=9, k=3),
            )[i % 4]()
            graph = evaluate(expr).graph
            n = graph.n
            doc = {
                "n": n,
                "edges": _edge_list(graph),
                "thresholds": [rng.randint(1, graph.degree(v) + 1) for v in range(n)],
                "lambda": rng.randint(0, 3),
                "kexpr": unparse(expr),
            }
            variant = i // 4 % 3
            if variant < 2:
                doc["targets"] = sorted(rng.sample(range(n), rng.randint(1, n)))
            if variant:
                doc["budget"] = rng.randint(0, n // 2)
            if variant == 2:
                doc["alpha"] = rng.randint(0, n)
            yield doc

    def test_outputs_are_pinned(self, tmp_path, monkeypatch):
        # which bound answered each feasible solve: the chain, else a DP witness
        chain_seeds = cliquewidth._Bounds.chain_seeds
        hits = []

        def spied(self, size, requirement):
            seeds = chain_seeds(self, size, requirement)
            hits.append(seeds is not None)
            return seeds

        monkeypatch.setattr(cliquewidth._Bounds, "chain_seeds", spied)
        digest = hashlib.sha256()
        seen = set()
        for doc in self.corpus():
            hits.clear()
            argv = ["solve", "--method", "cwd", "--instance", write(tmp_path, doc)]
            code, out, err = run_captured(argv)
            result = json.loads(out) if out else {}
            result.pop("wall_time_s", None)
            digest.update(repr((code, json.dumps(result), err)).encode())
            answer = None if code else "chain" if any(hits) else "dp"
            seen.add((result.get("variant"), code, answer))
        # every variant answers feasible and infeasible, and both the chain
        # and a DP witness answer
        assert {(v, c) for v, c, _ in seen} == {
            (v, c) for v in ("lA", "lbA", "lba") for c in (0, 1)
        } - {("lA", 1)}
        assert {a for _, _, a in seen} == {None, "chain", "dp"}
        assert digest.hexdigest() == self.DIGEST


class TestSolveFuzz:
    """``solve`` on drawn expression instances: one JSON line, exit 0 or 1,
    and the clique-width DP agrees with brute force."""

    # at least three vertices, so most instances have edges to spread along
    @settings(max_examples=200, deadline=None)
    @given(
        expressions(max_labels=3, min_leaves=3, max_leaves=6).filter(
            lambda e: not check_irredundant(e)
        ),
        st.data(),
    )
    def test_cwd_agrees_with_brute_force(self, tmp_path_factory, expr, data):
        doc = _drawn_document(expr, data)
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(json.dumps(doc))
        results = []
        for method in ("cwd", "brute"):
            code, out = run_quietly(
                ["solve", "--method", method, "--instance", str(path)]
            )
            assert code in (0, 1) and out.count("\n") == 1 and out.endswith("\n")
            result = json.loads(out)
            assert result["feasible"] == (code == 0)
            results.append((result["feasible"], result["size"]))
        assert results[0] == results[1]


class TestForestFuzz:
    """``solve --method tree`` and ``simulate`` on drawn forest documents:
    exit 0, one JSON line, one round size per round up to min(lambda, n),
    and the tree solver's size equals brute force's."""

    @settings(max_examples=150, deadline=None)
    @given(forests(max_n=8), st.data())
    def test_tree_and_simulate(self, tmp_path_factory, forest, data):
        n = forest.n
        lam = data.draw(st.integers(0, n + 2) | st.just(10**30))
        doc = {
            "n": n,
            "edges": _edge_list(forest),
            "thresholds": [
                data.draw(st.integers(0, forest.degree(v) + 2)) for v in range(n)
            ],
            "lambda": lam,
            "targets": sorted(data.draw(st.sets(st.integers(0, n - 1)))),
        }
        seed = ",".join(map(str, sorted(data.draw(st.sets(st.integers(0, n - 1))))))
        path = tmp_path_factory.getbasetemp() / "forest.json"
        path.write_text(json.dumps(doc))
        sizes = []
        for argv in (
            ["solve", "--method", "tree"],
            ["solve", "--method", "brute"],
            ["simulate", "--seed", seed],
        ):
            code, out = run_quietly(argv + ["--instance", str(path)])
            assert code == 0 and out.count("\n") == 1 and out.endswith("\n")
            result = json.loads(out)
            assert len(result["round_sizes"]) == min(lam, n) + 1
            sizes.append(result.get("size"))
        assert sizes[0] == sizes[1]
        # the printed rounds are the library's, padded the same way
        trace = simulate(
            forest, doc["thresholds"], json.loads(f"[{seed}]"), min(lam, n)
        )
        assert result["rounds"] == [sorted(s) for s in trace.rounds]
        assert result["round_sizes"] == [len(r) for r in result["rounds"]]


    @settings(max_examples=150, deadline=None)
    @given(forests(max_n=7), st.data())
    def test_cwd_agrees_with_tree(self, tmp_path_factory, forest, data):
        # without a kexpr, cwd solves the union of the trees' expressions
        n = forest.n
        doc = {
            "n": n,
            "edges": _edge_list(forest),
            "thresholds": [
                data.draw(st.integers(0, forest.degree(v) + 2)) for v in range(n)
            ],
            "lambda": data.draw(st.integers(0, n)),
            "targets": sorted(data.draw(st.sets(st.integers(0, n - 1)))),
        }
        path = tmp_path_factory.getbasetemp() / "forest.json"
        path.write_text(json.dumps(doc))
        sizes = []
        for method in ("tree", "cwd"):
            code, out = run_quietly(
                ["solve", "--method", method, "--instance", str(path)]
            )
            assert code == 0
            chosen = json.loads(out)["target_set"]
            final = simulate(forest, doc["thresholds"], chosen, doc["lambda"]).final
            assert set(doc["targets"]) <= final
            sizes.append(len(chosen))
        assert sizes[0] == sizes[1]


class TestMalformedDocumentFuzz:
    """Mutated valid documents: every command exits 0, 1 or 2, never 3.
    Exits 0 and 1 print one JSON line; exit 2 prints ``error:`` on
    stderr and nothing on stdout."""

    COMMANDS = (
        ["solve", "--method", "tree"],
        ["solve", "--method", "cwd"],
        ["solve", "--method", "brute"],
        ["simulate", "--seed", "0"],
        ["kexpr", "parse"],
    )
    OTHER_TYPES = (None, True, False, 1.5, "1", [], {}, [1], {"n": 1})
    EXTREMES = (-1, 10**30)
    # no drawn document has more than five vertices
    BAD_IDS = (-1, 5, 10**30)
    PIECES = ("", "(", ")", ",", "U", "eta", "->", "0", "99999", "x")

    def mutate(self, doc, kind, data):
        """The document with one defect of the given kind."""
        draw = data.draw
        if kind == "wrap":
            return [doc]
        if kind == "delete" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif kind in ("retype", "extreme") and doc:
            holder, at = doc, draw(st.sampled_from(sorted(doc)))
            # sometimes an entry of a list field, or of an edge, instead
            while isinstance(holder[at], list) and holder[at] and draw(st.booleans()):
                holder = holder[at]
                at = draw(st.integers(0, len(holder) - 1))
            pool = self.OTHER_TYPES if kind == "retype" else self.EXTREMES
            holder[at] = draw(st.sampled_from(pool))
        elif kind == "bad-id":
            bad = draw(st.sampled_from(self.BAD_IDS))
            field = draw(st.sampled_from(["edges", "targets"]))
            if isinstance(doc.get(field), list):
                doc[field].append(
                    draw(st.sampled_from([[0, bad], [bad, 0], [0, 0]]))
                    if field == "edges"
                    else bad
                )
        elif kind == "thresholds" and isinstance(doc.get("thresholds"), list):
            thresholds = doc["thresholds"]
            if thresholds and draw(st.booleans()):
                thresholds.pop()
            else:
                thresholds.append(1)
        elif kind == "kexpr" and isinstance(doc.get("kexpr"), str):
            text = doc["kexpr"]
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 2))
            piece = draw(st.sampled_from(self.PIECES))
            doc["kexpr"] = text[:at] + piece + text[at + cut :]
        return doc

    @settings(max_examples=120, deadline=None)
    @given(
        expressions(max_labels=3, max_leaves=5).filter(
            lambda e: not check_irredundant(e)
        ),
        st.lists(
            st.sampled_from(
                ["delete", "retype", "extreme", "bad-id", "thresholds", "kexpr", "wrap"]
            ),
            min_size=1,
            max_size=3,
        ),
        st.data(),
    )
    def test_exit_codes(self, tmp_path_factory, expr, kinds, data):
        doc = _drawn_document(expr, data)
        for kind in kinds:
            if isinstance(doc, list):
                break
            doc = self.mutate(doc, kind, data)
        path = tmp_path_factory.getbasetemp() / "malformed.json"
        path.write_text(json.dumps(doc))
        for argv in self.COMMANDS:
            code, out, err = run_captured(argv + ["--instance", str(path)])
            assert code in (0, 1, 2), err
            if code == 2:
                assert out == "" and err.startswith("error:")
            else:
                assert out.count("\n") == 1 and out.endswith("\n")
                json.loads(out)


class TestKexprCommand:
    def test_parse(self, capsys):
        code, doc = run(
            capsys, ["kexpr", "parse", "--expr", "eta(2,1, U(2(v), 1(u)))"]
        )
        assert code == 0 and doc["width"] == 2 and doc["vertices"] == 2

    def test_parse_error_exits_two(self, capsys):
        code = main(["kexpr", "parse", "--expr", "eta(1,1, 1(u))"])
        capsys.readouterr()
        assert code == 2

    def test_eval(self, capsys):
        code, doc = run(capsys, ["kexpr", "eval", "--expr", "eta(2,1, U(2(v), 1(u)))"])
        assert code == 0 and doc["edges"] == [[0, 1]]

    def test_check_flags_redundancy(self, capsys):
        code, doc = run(
            capsys,
            ["kexpr", "check", "--expr", "eta(2,1, eta(2,1, U(2(v), 1(u))))"],
        )
        assert code == 1 and doc["irredundant"] is False

    def test_lift(self, capsys):
        code, doc = run(
            capsys,
            [
                "kexpr",
                "lift",
                "--expr",
                "eta(2,1, U(2(v), 1(u)))",
                "--targets",
                "v",
            ],
        )
        assert code == 0 and doc["width"] == 4

    def test_instance_source(self, capsys, tmp_path):
        doc = {
            "n": 2,
            "edges": [[0, 1]],
            "thresholds": [1, 1],
            "lambda": 1,
            "targets": [0],
            "kexpr": "eta(2,1, U(2(0), 1(1)))",
        }
        path = write(tmp_path, doc)
        code, out = run(capsys, ["kexpr", "parse", "--instance", path])
        assert code == 0 and out["vertices"] == 2

    def test_file_source(self, tmp_path):
        text = "eta(2,1,\n  U(2(v), 1(u)))\n"
        path = tmp_path / "expr.txt"
        path.write_text(text)
        from_file = run_captured(["kexpr", "parse", "--file", str(path)])
        assert from_file == run_captured(["kexpr", "parse", "--expr", text])
        assert from_file[0] == 0 and json.loads(from_file[1])["vertices"] == 2

    def test_missing_file_exits_two(self, tmp_path):
        missing = str(tmp_path / "absent.txt")
        code, out, err = run_captured(["kexpr", "parse", "--file", missing])
        assert (code, out) == (2, "") and "cannot read" in err

    def test_instance_kexpr_of_wrong_type_exits_two(self, capsys, tmp_path):
        path = write(tmp_path, {"kexpr": 5})
        code = main(["kexpr", "parse", "--instance", path])
        captured = capsys.readouterr()
        assert code == 2
        assert "field 'kexpr' has the wrong type" in captured.err

    @pytest.mark.parametrize(
        "sources",
        [[], ["--expr", "1(a)", "--file", "absent.txt"],
         ["--expr", "1(a)", "--instance", "absent.json"]],
        ids=["none", "expr-and-file", "expr-and-instance"],
    )
    def test_exactly_one_source(self, capsys, sources):
        # argparse refuses the command line before any source is read
        with pytest.raises(SystemExit) as exc:
            main(["kexpr", "parse", *sources])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--expr" in captured.err

    def test_deeply_nested_instance_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"kexpr": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code = main(["kexpr", "parse", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")


class TestGenCommand:
    @pytest.mark.parametrize("family", ["path", "star", "random-tree", "cograph"])
    def test_generated_documents_load_and_solve(self, capsys, tmp_path, family):
        code, doc = run(capsys, ["gen", family, "--n", "6", "--seed", "2"])
        assert code == 0 and doc["n"] == 6
        assert "kexpr" in doc
        path = write(tmp_path, doc, name=f"{family}.json")
        instance, expr, _ = load_instance(path)
        method = "tree" if family != "cograph" else "brute"
        code, out = run(capsys, ["solve", "--method", method, "--instance", path])
        assert code == 0 and out["feasible"]

    def test_output_is_one_compact_line(self, capsys):
        main(["gen", "path", "--n", "3"])
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"

    def test_latency_override(self, capsys):
        code, doc = run(capsys, ["gen", "path", "--n", "4", "--latency", "2"])
        assert code == 0 and doc["lambda"] == 2

    def test_negative_latency_exits_two(self, capsys):
        # every solve refuses a negative lambda, so gen must not write one
        code = main(["gen", "path", "--n", "3", "--latency", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: latency must be non-negative\n"

    # sha256 of the stdout of `gen FAMILY --n N --seed SEED [--latency L]`,
    # recorded when gen still rebuilt its tree through canonicalize_names
    DIGESTS = {
    ('path', 1, 1, None): "6d4559f6ad2ad646d97456e724c50d6ce4777146b1bd42c34c2295d9db7fd5cf",
    ('path', 1, 2, None): "6d4559f6ad2ad646d97456e724c50d6ce4777146b1bd42c34c2295d9db7fd5cf",
    ('path', 2, 1, None): "d936463b14e73b3c341d4d9e217d8d490929ba62f1a956e2e698b392792a695b",
    ('path', 2, 2, None): "d936463b14e73b3c341d4d9e217d8d490929ba62f1a956e2e698b392792a695b",
    ('path', 7, 1, None): "6e55328a9ebd6b20372c561154e5744140a32ea02138d54344accd30fcb0e9e4",
    ('path', 7, 2, None): "6e55328a9ebd6b20372c561154e5744140a32ea02138d54344accd30fcb0e9e4",
    ('path', 300, 1, None): "6278ca46e1d69775c3b5662c5fdb0622637da2f0f5703c948b11d9f3ef65e04e",
    ('path', 300, 2, None): "6278ca46e1d69775c3b5662c5fdb0622637da2f0f5703c948b11d9f3ef65e04e",
    ('star', 1, 1, None): "6d4559f6ad2ad646d97456e724c50d6ce4777146b1bd42c34c2295d9db7fd5cf",
    ('star', 1, 2, None): "6d4559f6ad2ad646d97456e724c50d6ce4777146b1bd42c34c2295d9db7fd5cf",
    ('star', 2, 1, None): "d936463b14e73b3c341d4d9e217d8d490929ba62f1a956e2e698b392792a695b",
    ('star', 2, 2, None): "d936463b14e73b3c341d4d9e217d8d490929ba62f1a956e2e698b392792a695b",
    ('star', 7, 1, None): "7d13bab232f28a9592ac2b759992995700d9b24cbe790ad1e42a215f9c15016e",
    ('star', 7, 2, None): "7d13bab232f28a9592ac2b759992995700d9b24cbe790ad1e42a215f9c15016e",
    ('star', 300, 1, None): "2a3e29123baeabd2debbadcde02a48403cfd6ca023e8491d2c2d4d4fac4c09c1",
    ('star', 300, 2, None): "2a3e29123baeabd2debbadcde02a48403cfd6ca023e8491d2c2d4d4fac4c09c1",
    ('random-tree', 1, 1, None): "6d4559f6ad2ad646d97456e724c50d6ce4777146b1bd42c34c2295d9db7fd5cf",
    ('random-tree', 1, 2, None): "6d4559f6ad2ad646d97456e724c50d6ce4777146b1bd42c34c2295d9db7fd5cf",
    ('random-tree', 2, 1, None): "0e69560641b550d86bdf489eb4711841ec80907cadb7b11792821a9dfd374fee",
    ('random-tree', 2, 2, None): "0e69560641b550d86bdf489eb4711841ec80907cadb7b11792821a9dfd374fee",
    ('random-tree', 7, 1, None): "eeaf8fbeb7aa37cdef4e9c775b8689538cf15663c95c2fb4c66508680c8556fa",
    ('random-tree', 7, 2, None): "d58fd7e52a447fac532365c02f207cf3dfd35ca8cde9e165ecf21c2e8c84da2e",
    ('random-tree', 300, 1, None): "440abee7454a2091c178296eefd45587a71740d141b4a20d6082c3ac04109414",
    ('random-tree', 300, 2, None): "333aac077a8ebbb3e389f62b7f56095f5009ef27e05137488623dc4b176abd2e",
    ('cograph', 1, 1, None): "6d4559f6ad2ad646d97456e724c50d6ce4777146b1bd42c34c2295d9db7fd5cf",
    ('cograph', 1, 2, None): "6d4559f6ad2ad646d97456e724c50d6ce4777146b1bd42c34c2295d9db7fd5cf",
    ('cograph', 2, 1, None): "e99961e67a326d283af8d8b450f3758f5e92050c78fcac1906474617ea4afcae",
    ('cograph', 2, 2, None): "e99961e67a326d283af8d8b450f3758f5e92050c78fcac1906474617ea4afcae",
    ('cograph', 7, 1, None): "74927d1d134290e429b2316e094025e9b964a22cd47bb87c971eab2a53a2e7ac",
    ('cograph', 7, 2, None): "4998f94f6c4b011a8572d7080bc156daf365c76eb93c80919382217bdc26a77c",
    ('cograph', 300, 1, None): "ded2a37012e8202d1822680fa5750dd5b38bc4981bc1249b81ccca995ad1fbd9",
    ('cograph', 300, 2, None): "95fd97ea039100f6c91118bb7b277e75201ade41ceda6fe623fb617b99e81e0b",
    ('cograph', 7, 3, 0): "c1e6cb380f05b8f89cd8c203d093a1a9361a8716b13f8034693feae3012a6e4f",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS, key=repr), ids=repr)
    def test_output_is_pinned(self, capsys, case):
        family, n, seed, latency = case
        argv = ["gen", family, "--n", str(n), "--seed", str(seed)]
        if latency is not None:
            argv += ["--latency", str(latency)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[case]

    @pytest.mark.parametrize("family", ["path", "star", "random-tree", "cograph"])
    def test_builds_one_tree(self, capsys, monkeypatch, family):
        calls = []

        def counted(name):
            original = getattr(kexpr, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(kexpr, name, wrapper)

        counted("canonicalize_names")
        counted("fold")
        assert main(["gen", family, "--n", "40", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert calls == []
        assert leaf_names(parse(doc["kexpr"])) == [str(v) for v in range(40)]


class TestEdgeLists:
    """``edges`` as written by ``kexpr eval`` and ``gen``: the sorted pairs."""

    @settings(max_examples=300)
    @given(graphs(max_n=10))
    def test_read_off_the_adjacency(self, graph):
        assert _edge_list(graph) == sorted(map(list, graph.edges))

    @settings(max_examples=100)
    @given(expressions(max_leaves=12))
    def test_kexpr_eval(self, expr):
        code, out = run_quietly(["kexpr", "eval", "--expr", unparse(expr)])
        assert code == 0
        assert json.loads(out)["edges"] == sorted(map(list, evaluate(expr).graph.edges))

    @pytest.mark.parametrize("text", ["1(a)", "U(1(a), 1(b))", "rho(1->2, U(1(a), 1(b)))"])
    def test_kexpr_eval_without_edges(self, capsys, text):
        code, doc = run(capsys, ["kexpr", "eval", "--expr", text])
        assert code == 0 and doc["edges"] == []

    @pytest.mark.parametrize("family", ["path", "star", "random-tree", "cograph"])
    def test_gen(self, capsys, family):
        edgeless = 0
        for n in (1, 2, 3, 9):
            for seed in range(4):
                code, doc = run(capsys, ["gen", family, "--n", str(n), "--seed", str(seed)])
                graph = evaluate(parse(doc["kexpr"])).graph
                assert code == 0 and doc["n"] == graph.n == n
                assert doc["edges"] == sorted(map(list, graph.edges))
                edgeless += not doc["edges"]
        assert edgeless >= 4  # every n = 1 document


class TestFrontEndFuzz:
    """Mutated expression texts end in a result or an input error, never a fault."""

    PIECES = ["(", ")", ",", "->", "-", ">", "0", "1", "7", "U", "eta", "rho", "x",
              " ", "\n", "\u00e9", "!", "U(", "1(y)", "eta(1,2,"]

    def _mutate(self, rng, text):
        for _ in range(rng.choice([1, 1, 2, 3])):
            at = rng.randrange(len(text) + 1)
            op = rng.randrange(5)
            if op == 0:
                text = text[:at] + text[at + 1 :]
            elif op == 1:
                text = text[:at] + rng.choice(self.PIECES) + text[at:]
            elif op == 2:
                text = text[:at] + rng.choice(self.PIECES) + text[at + 1 :]
            elif op == 3:
                text = text[:at]
            else:
                end = rng.randrange(at, len(text) + 1)
                text = text[:at] + text[at:end] * 2 + text[end:]
        return text

    def test_mutated_texts(self):
        rng = random.Random(20240611)
        parsed = 0
        for step in range(400):
            n = rng.randint(1, 12)
            family = step % 3
            if family == 0:
                expr = path_expression(n)
            elif family == 1:
                expr = tree_expression(random_tree(n, rng))
            else:
                expr = cograph_expression(n, rng)
            text = unparse(expr)
            if step % 8:  # every eighth text goes in unchanged
                text = self._mutate(rng, text)
            codes = []
            for action in ("parse", "eval"):
                code, out = run_quietly(["kexpr", action, "--expr=" + text])
                assert code in (0, 1, 2), (action, text)
                codes.append(code)
            try:
                tree = parse(text)
            except KExprError:
                assert codes == [2, 2], text
                continue
            parsed += 1
            assert codes == [0, 0], text
            formatted = unparse(tree)
            assert parse(formatted) == tree
            code, out = run_quietly(["kexpr", "parse", "--expr=" + text])
            assert json.loads(out)["formatted"] == formatted
        assert 50 <= parsed < 400  # both outcomes are exercised
