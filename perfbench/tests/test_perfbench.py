"""Self-tests of the benchmark: generator, metric names, percentile rule, spans.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = gen.Spec(
    entities=400, noise_concepts=60, noise_edges=1_500, heads=4,
    modifiers_per_head=5, k_block=(2, 3, 4), short_noise=3,
    answers_from_top=(), head_zipf=1.1, queries=40,
)


@pytest.fixture(scope="module")
def cq():
    return run.import_package()


def benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["holdout", "interactive"])
def test_generator_is_byte_identical_per_seed(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.write(workload, seed, tmp_path / name)
    a, b, c = ((tmp_path / n / "taxonomy.tsv").read_bytes() for n in "abc")
    assert a == b
    assert a != c
    assert (tmp_path / "a" / "queries.json").read_bytes() == (tmp_path / "b" / "queries.json").read_bytes()


def test_generator_plants_answers_behind_every_query():
    rows, queries = gen.generate("holdout", 3, TINY)
    members = {}
    for concept, entity, _ in rows:
        members.setdefault(concept, set()).add(entity)
    assert len({(c, e) for c, e, _ in rows}) == len(rows)  # one row per pair
    for q in queries:
        *modifiers, head = q["query"].split()
        answers = set(q["answers"])
        assert len(answers) == gen.ANSWERS
        assert members[f"eq{head[1:]}"] == answers
        core = set.intersection(*(members[f"{m} {head}"] for m in modifiers))
        assert len(core & answers) == gen.CORE  # the rest is found only by expansion


def test_metric_names_and_units_match_benchmark_json(tmp_path, cq):
    bench = benchmark_json()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layer == run.layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for workload in ("interactive", "holdout"):
        gen.write(workload, 3, tmp_path / workload, TINY)
        queries = json.loads((tmp_path / workload / "queries.json").read_text())["queries"]
        for trace, expected in ((False, e2e), (True, layer)):
            result = run.measure(cq, workload, tmp_path / workload / "taxonomy.tsv", queries,
                                 0.3, trace, min_samples=3)
            loop = result["loop"]
            assert not loop.errors
            assert len(loop.latencies) >= (1 if trace else 3)
            assert set(result["metrics"]) == set(expected)
            assert all(math.isfinite(v) for v in result["metrics"].values())
            if not trace:
                assert result["metrics"]["recall_at_10"] > 0
                assert result["metrics"]["ratio_at_10"] > 0


def test_reported_percentile_has_ten_samples_beyond_it():
    assert run.reportable_percentile(99) is None
    assert run.reportable_percentile(100) == 90.0
    assert run.reportable_percentile(999) == 90.0
    assert run.reportable_percentile(1_000) == 99.0
    assert run.reportable_percentile(10_000) == 99.9
    for n in (100, 137, 1_000):
        samples = list(range(n))
        p = run.reportable_percentile(n)
        value = run.percentile(samples, p)
        assert sum(s > value for s in samples) >= 10
        assert sum(s <= value for s in samples) >= p / 100 * n


def test_check_rejects_broken_replies(cq):
    taxonomy = cq.fixture_f1()
    result = cq.run_query(taxonomy, "top american university")
    outcome = run.Outcome(taxonomy, result, frozenset({"a"}), frozenset({"a", "b"}))
    assert run.check(cq, outcome) is None

    def broken(**changes):
        res = types.SimpleNamespace(**{**vars(result), **changes})
        return run.check(cq, run.Outcome(taxonomy, res, outcome.truth, outcome.intersection))

    assert "permutation" in broken(ranking=result.ranking[:-1])
    assert "non-increasing" in broken(ranking=result.ranking[::-1])
    first = result.ranking[0]
    wrong = type(first)(first.entity, first.score, "expanded")
    assert "provenance" in broken(ranking=[wrong, *result.ranking[1:]])
    nan = type(first)(first.entity, float("nan"), first.provenance)
    assert "non-finite" in broken(ranking=[nan, *result.ranking[1:]])


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("pipeline", 0.0, 10.0, -1, 0),
        tracing.Span("aggregate", 1.0, 7.0, 0, 0),
        tracing.Span("query.parse", 2.0, 3.0, 1, 0),
        tracing.Span("query.decompose", 8.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 5.0, 1.0, 1.0]
    totals = tracing.per_query_self(spans, run.SPAN_GROUP.__getitem__)
    assert totals[0] == {"pipeline.self": 3.0, "aggregate": 5.0, "query.self": 2.0}


def test_patched_names_are_restored_after_an_error():
    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f
    with pytest.raises(RuntimeError):
        with tracing.patched([(module, "f", lambda fn: lambda: fn() + 1)]):
            assert module.f() == 2
            raise RuntimeError
    assert module.f is original


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    command = benchmark_json()["command"]
    proc = subprocess.run(
        command + ["--workload", "holdout", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
