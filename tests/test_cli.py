"""CLI dispatch, instance document validation, exit codes, output schema."""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latss import cliquewidth
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
    parse,
    path_expression,
    tree_expression,
    unparse,
)

from strategies import expressions, forests, graphs


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
        instance, expr = document_to_instance(
            {"n": 1, "edges": [], "thresholds": [1], "lambda": 1, "targets": [0]}
        )
        assert instance.graph.n == 1 and expr is None

    def test_edge_out_of_range(self):
        with pytest.raises(InstanceError, match="out of range"):
            document_to_instance(
                {
                    "n": 3,
                    "edges": [[0, 5]],
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
        instance, expr = document_to_instance(doc)
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
        instance, expr = load_instance(path)
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
