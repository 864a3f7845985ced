import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conceptq.cli import main
from conceptq.evaluation import planted_instance

REPO = Path(__file__).resolve().parents[1]


def write_taxonomy(path, records):
    lines = [f"{r.concept}\t{r.entity}\t{r.count}" for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def planted_path(tmp_path):
    inst = planted_instance(seed=0)
    return write_taxonomy(tmp_path / "planted.tsv", inst.records), inst


class TestValidate:
    def test_f1_statistics(self, f1_path, capsys):
        assert main(["validate", str(f1_path)]) == 0
        out = capsys.readouterr().out
        assert "concepts=4" in out
        assert "entities=5" in out
        assert "edges=11" in out
        assert "grand_total=21" in out
        assert "marginals=ok" in out

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "concepts=0" in out
        assert "grand_total=0" in out

    def test_malformed_line_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("c\te\t1\nc\te\t2\nc\te\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_json_format(self, f1_path, capsys):
        assert main(["validate", str(f1_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["grand_total"] == 21


class TestQuery:
    def test_text_output(self, f1_path, capsys):
        code = main(["query", str(f1_path), "top american university", "--k", "4"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("# conceptq ")
        for key in ("model=", "gamma=", "lambda=", "delta=", "alpha=", "beta="):
            assert key in lines[0]
        # the aggregation's stopping bound is a constant, not a setting
        assert "tol=" not in lines[0]
        # nothing in a query is random, so its header echoes no seed
        assert "seed=" not in lines[0]
        rows = [line.split("\t") for line in lines if not line.startswith("#")]
        assert [r[1] for r in rows] == ["a", "b", "c", "d"]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        assert rows[0][3] == "seed"
        assert rows[2][3] == "baseline-only"

    def test_k_larger_than_universe(self, f1_path, capsys):
        assert main(["query", str(f1_path), "top american university", "--k", "50"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert len(rows) == 5

    def test_json_output(self, f1_path, capsys):
        code = main([
            "query", str(f1_path), "top american university",
            "--k", "3", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "seed" not in doc["config"]
        assert doc["short_concepts"] == ["top university", "american university"]
        assert [r["entity"] for r in doc["results"]] == ["a", "b", "c"]
        assert doc["results"][0]["provenance"] == "seed"

    def test_both_models_echo_parameters(self, f1_path, capsys):
        for flag in ("nb", "noisy-or"):
            code = main([
                "query", str(f1_path), "top american university", "--model", flag,
                "--gamma", "0.7", "--lambda", "0.2", "--delta", "0.4",
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert f"model={flag!r}" in out
            assert "gamma=0.7" in out
            assert "lambda=0.2" in out

    def test_head_override(self, tmp_path, capsys):
        from conceptq.taxonomy import CooccurrenceRecord

        path = write_taxonomy(
            tmp_path / "t.tsv",
            [
                CooccurrenceRecord("great state school", "umich", 2),
                CooccurrenceRecord("public state school", "umich", 1),
            ],
        )
        code = main([
            "query", str(path), "great public state school", "--head", "state school",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "umich" in out

    def test_unanswerable_query_exit_code(self, f1_path, capsys):
        assert main(["query", str(f1_path), "shiny glossy university"]) == 4
        assert "not answerable" in capsys.readouterr().err

    def test_degenerate_query_exit_code(self, f1_path, capsys):
        assert main(["query", str(f1_path), "university"]) == 4

    def test_missing_taxonomy_exit_code(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope.tsv"), "top american university"]) == 3

    def test_byte_identical_reruns(self, f1_path, capsys):
        argv = ["query", str(f1_path), "top american university", "--k", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_usage_error_from_argparse(self, f1_path):
        with pytest.raises(SystemExit) as err:
            main(["query", str(f1_path), "top american university", "--no-such-flag"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["query", str(f1_path), "top american university", "--seed", "1"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["query", str(f1_path), "top american university", "--tol", "1e-6"])
        assert err.value.code == 2

    def test_readme_example_rows(self, f1_path, capsys):
        # the rows README.md shows for this query on the f1 fixture
        expected = [
            "1\ta\t6.330140\tseed",
            "2\tb\t3.440394\tseed",
            "3\tc\t0.269682\tbaseline-only",
            "4\td\t-3.266628\tbaseline-only",
        ]
        assert main(["query", str(f1_path), "top american university", "--k", "4"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert rows == expected
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "\n".join(expected) in readme

    @pytest.mark.parametrize("n_modifiers, seed", [(1, 0), (2, 1), (3, 2), (4, 3), (6, 4)])
    def test_json_and_text_reports_agree(self, tmp_path, capsys, n_modifiers, seed):
        inst = planted_instance(n_modifiers=n_modifiers, seed=seed)
        path = write_taxonomy(tmp_path / "planted.tsv", inst.records)
        argv = ["query", str(path), inst.query, "--k", "25"]
        assert main(argv) == 0
        text = capsys.readouterr().out.splitlines()
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)

        short, unresolved = text[1].removeprefix("# short-concepts=").split(" unresolved=")
        assert ast.literal_eval(short) == doc["short_concepts"]
        assert ast.literal_eval(unresolved) == doc["unresolved_modifiers"]
        rows = [line.split("\t") for line in text[2:]]
        assert rows == [
            [str(r["rank"]), r["entity"], f"{r['score']:.6f}", r["provenance"]]
            for r in doc["results"]
        ]
        assert len(rows) > 10

    def test_json_reports_ignore_the_hash_seed(self, tmp_path):
        inst = planted_instance(n_modifiers=4, seed=0)
        path = write_taxonomy(tmp_path / "planted.tsv", inst.records)
        queries = tmp_path / "queries.txt"
        queries.write_text(inst.query + "\n", encoding="utf-8")
        runs = [
            ["query", str(path), inst.query, "--format", "json"],
            ["eval", str(path), str(queries), "--holdout", "0.5", "--seed", "3",
             "--format", "json"],
        ]
        for argv in runs:
            outputs = []
            for hash_seed in ("0", "1"):
                env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                       "PYTHONPATH": str(REPO / "src")}
                proc = subprocess.run(
                    [sys.executable, "-m", "conceptq", *argv],
                    env=env, capture_output=True, check=True, timeout=120,
                )
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1]
            assert json.loads(outputs[0])["config"]["command"] == argv[0]


class TestEval:
    def test_truth_scoring(self, f1_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("top american university\n", encoding="utf-8")
        truth = tmp_path / "truth.tsv"
        truth.write_text(
            "top american university\ta\ntop american university\tc\n",
            encoding="utf-8",
        )
        code = main(["eval", str(f1_path), str(queries), str(truth), "--k", "2,4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# conceptq ")
        assert "precision@2=0.500000" in out
        assert "recall@4=1.000000" in out
        assert "average" in out

    def test_queries_without_truth_are_skipped(self, f1_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("top american university\ntop famous university\n", encoding="utf-8")
        truth = tmp_path / "truth.tsv"
        truth.write_text("top american university\ta\n", encoding="utf-8")
        code = main(["eval", str(f1_path), str(queries), str(truth)])
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err
        assert not any(l.startswith("query=top famous") for l in captured.out.splitlines())
        assert "skipped query='top famous university' reason='no ground truth'" in (
            captured.out.splitlines()
        )
        assert main(["eval", str(f1_path), str(queries), str(truth), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["skipped"] == [{"query": "top famous university", "reason": "no ground truth"}]
        assert [q["query"] for q in doc["per_query"]] == ["top american university"]

    def test_json_and_text_reports_agree(self, f1_path, tmp_path, capsys):
        # one scored query and two skips: no truth, and no known short concept
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "top american university\ntop famous university\nunheard-of gadget\n",
            encoding="utf-8",
        )
        truth = tmp_path / "truth.tsv"
        truth.write_text(
            "top american university\ta\nunheard-of gadget\ta\n", encoding="utf-8"
        )
        argv = ["eval", str(f1_path), str(queries), str(truth), "--k", "2,4"]
        assert main(argv) == 0
        text = capsys.readouterr().out.splitlines()
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)

        def metric_line(label, metrics):
            return "\t".join([label] + [f"{k}={metrics[k]:.6f}" for k in sorted(metrics)])

        assert text[1:] == [
            *(metric_line(f"query={q['query']}", q["metrics"]) for q in doc["per_query"]),
            *(f"skipped query={s['query']!r} reason={s['reason']!r}" for s in doc["skipped"]),
            metric_line("average", doc["averages"]),
        ]
        skipped = [s["query"] for s in doc["skipped"]]
        assert skipped == ["top famous university", "unheard-of gadget"]
        assert len(doc["per_query"]) == 1

    def test_byte_order_marks_change_nothing(self, f1_path, tmp_path, capsys):
        # taxonomy, query and truth files saved with a UTF-8 byte-order mark
        # give the same statistics and scores as plain ones
        texts = {
            "f1.tsv": f1_path.read_text(encoding="utf-8"),
            "queries.txt": "top american university\ntop famous university\n",
            "truth.tsv": "top american university\ta\ntop american university\tc\n",
        }
        docs = []
        for encoding in ("utf-8", "utf-8-sig"):
            paths = []
            for name, text in texts.items():
                path = tmp_path / encoding / name
                path.parent.mkdir(exist_ok=True)
                path.write_text(text, encoding=encoding)
                paths.append(str(path))
            assert main(["validate", paths[0], "--format", "json"]) == 0
            stats = json.loads(capsys.readouterr().out)["stats"]
            assert main(["eval", *paths, "--k", "2,4", "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            docs.append((stats, doc["per_query"], doc["skipped"], doc["averages"]))
        assert docs[0] == docs[1]
        assert docs[0][0]["concepts"] == 4
        assert [q["query"] for q in docs[0][1]] == ["top american university"]

    def test_malformed_truth_after_a_byte_order_mark_keeps_its_line(
        self, f1_path, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("top american university\n", encoding="utf-8-sig")
        truth = tmp_path / "truth.tsv"
        truth.write_text("top american university\ta\nbroken-line\n", encoding="utf-8-sig")
        assert main(["eval", str(f1_path), str(queries), str(truth)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_malformed_truth_aborts_with_line(self, f1_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("top american university\n", encoding="utf-8")
        truth = tmp_path / "truth.tsv"
        truth.write_text("top american university\ta\nbroken-line\n", encoding="utf-8")
        assert main(["eval", str(f1_path), str(queries), str(truth)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_empty_query_file(self, f1_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("", encoding="utf-8")
        truth = tmp_path / "truth.tsv"
        truth.write_text("top american university\ta\n", encoding="utf-8")
        assert main(["eval", str(f1_path), str(queries), str(truth)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# conceptq ")

    def test_holdout_dispatch(self, planted_path, tmp_path, capsys):
        taxonomy_path, inst = planted_path
        queries = tmp_path / "queries.txt"
        queries.write_text(inst.query + "\n", encoding="utf-8")
        code = main([
            "eval", str(taxonomy_path), str(queries),
            "--holdout", "0.5", "--seed", "7", "--k", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall@10=" in out
        assert "ratio@10=" in out

    def test_holdout_scores_every_k(self, planted_path, tmp_path, capsys):
        taxonomy_path, inst = planted_path
        queries = tmp_path / "queries.txt"
        queries.write_text(inst.query + "\n", encoding="utf-8")
        code = main([
            "eval", str(taxonomy_path), str(queries),
            "--holdout", "0.5", "--seed", "7", "--k", "5,10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "k='5,10'" in out
        assert "seed=7" in out
        for k in (5, 10):
            for name in ("precision", "recall", "ratio"):
                assert f"{name}@{k}=" in out

    def test_holdout_seed_determinism(self, planted_path, tmp_path, capsys):
        taxonomy_path, inst = planted_path
        queries = tmp_path / "queries.txt"
        queries.write_text(inst.query + "\n", encoding="utf-8")
        argv = ["eval", str(taxonomy_path), str(queries), "--holdout", "0.5", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_needs_truth_or_holdout(self, f1_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("top american university\n", encoding="utf-8")
        assert main(["eval", str(f1_path), str(queries)]) == 2

    def test_truth_and_holdout_is_usage_error(self, f1_path, tmp_path, capsys):
        # hold-out never reads the truth file, so the pair is refused
        queries = tmp_path / "queries.txt"
        queries.write_text("top american university\n", encoding="utf-8")
        truth = tmp_path / "truth.tsv"
        truth.write_text("top american university\ta\n", encoding="utf-8")
        assert main(["eval", str(f1_path), str(queries), str(truth), "--holdout", "0.5"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_truth_scoring_echoes_no_seed(self, f1_path, tmp_path, capsys):
        # only hold-out reads --seed, so truth scoring does not echo it
        queries = tmp_path / "queries.txt"
        queries.write_text("top american university\n", encoding="utf-8")
        truth = tmp_path / "truth.tsv"
        truth.write_text("top american university\ta\n", encoding="utf-8")
        assert main(["eval", str(f1_path), str(queries), str(truth), "--seed", "3"]) == 0
        assert "seed=" not in capsys.readouterr().out.splitlines()[0]
        assert main([
            "eval", str(f1_path), str(queries), str(truth), "--seed", "3", "--format", "json",
        ]) == 0
        assert "seed" not in json.loads(capsys.readouterr().out)["config"]

    def test_bad_k_list(self, f1_path, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("top american university\n", encoding="utf-8")
        truth = tmp_path / "truth.tsv"
        truth.write_text("top american university\ta\n", encoding="utf-8")
        assert main(["eval", str(f1_path), str(queries), str(truth), "--k", "x"]) == 2

    def test_json_report(self, f1_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("top american university\n", encoding="utf-8")
        truth = tmp_path / "truth.tsv"
        truth.write_text("top american university\ta\n", encoding="utf-8")
        code = main([
            "eval", str(f1_path), str(queries), str(truth), "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["per_query"][0]["query"] == "top american university"
        assert "precision@10" in doc["averages"]


class TestUsageValidation:
    def test_query_k_must_be_positive(self, f1_path, capsys):
        assert main(["query", str(f1_path), "top american university", "--k", "0"]) == 2
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gamma", "2.0"],
            ["--lambda", "1.0"],
            ["--delta", "0.0"],
            ["--alpha", "0.8", "--beta", "0.5"],
            ["--concepts-top-k", "0"],
        ],
    )
    def test_out_of_range_values_are_usage_errors(self, f1_path, capsys, flags):
        code = main(["query", str(f1_path), "top american university", *flags])
        assert code == 2
        assert "error:" in capsys.readouterr().err
