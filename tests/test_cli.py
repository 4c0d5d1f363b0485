"""CLI dispatch, instance document validation, exit codes, output schema."""

import json

import pytest

from latss import cliquewidth
from latss.cli import document_to_instance, load_instance, main
from latss.cli import InstanceError


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


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

    @pytest.mark.parametrize(
        "edges", [[[0, 1], [1, 2], [0, 2]], [[0, 1]]], ids=["cycle", "forest"]
    )
    def test_cwd_without_kexpr_needs_a_tree(self, capsys, tmp_path, edges):
        doc = {"n": 3, "edges": edges, "thresholds": [1, 1, 1], "lambda": 1, "targets": [0]}
        code = main(["solve", "--method", "cwd", "--instance", write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cwd method needs a kexpr in the instance (non-tree graph)" in captured.err

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
        code, doc = run(capsys, ["gen", "path", "--n", "6", "--latency", "2"])
        path = write(tmp_path, doc)
        code, out = run(capsys, ["solve", "--method", "cwd", "--instance", path])
        assert code == 0 and out["variant"] == "lA" and out["size"] == 2
        assert len(built) == 1

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


class TestGenCommand:
    @pytest.mark.parametrize("family", ["path", "star", "random-tree", "cograph"])
    def test_generated_documents_load_and_solve(self, capsys, tmp_path, family):
        code, doc = run(capsys, ["gen", family, "--n", "6", "--seed", "2"])
        assert code == 0 and doc["n"] == 6
        if family == "star":
            assert "kexpr" not in doc
        else:
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
