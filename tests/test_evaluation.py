import json
import random

import numpy as np
import pytest

from conceptq import evaluation
from conceptq.aggregate import ScoreVector
from conceptq.errors import EngineError
from conceptq.evaluation import (
    GroundTruth,
    evaluate_queries,
    holdout_experiment,
    intpro_baseline,
    precision_at_k,
    ratio_at_k,
    recall_at_k,
)
from conceptq.pipeline import PipelineConfig, run_query
from conceptq.taxonomy import entity_intersection, ingest

from helpers import planted_instance, random_taxonomy

TRUTH_AC = GroundTruth(query="q", answers=frozenset({"a", "c"}))


class TestPrecisionAtK:
    def test_half_right(self):
        assert precision_at_k(["a", "b", "c"], TRUTH_AC, 2) == 0.5

    def test_all_returned_correct(self):
        truth = GroundTruth(query="q", answers=frozenset({"a", "b", "c", "d"}))
        ranked = ["a", "b", "c"]
        for k in range(1, len(ranked) + 1):
            assert precision_at_k(ranked, truth, k) == 1.0

    def test_empty_ranking(self):
        assert precision_at_k([], TRUTH_AC, 5) == 0.0

    def test_short_list_divides_by_list_length(self):
        assert precision_at_k(["a"], TRUTH_AC, 10) == 1.0

    def test_k_validated(self):
        with pytest.raises(ValueError):
            precision_at_k(["a"], TRUTH_AC, 0)


@pytest.mark.parametrize("k", [0, True, 2.5])
@pytest.mark.parametrize("metric", [precision_at_k, recall_at_k])
def test_a_metric_cutoff_is_an_integer_of_at_least_one(metric, k):
    with pytest.raises(ValueError):
        metric(["a", "b", "c"], TRUTH_AC, k)


class TestRecallAtK:
    def test_half_found(self):
        assert recall_at_k(["a", "b", "c"], TRUTH_AC, 2) == 0.5

    def test_complete_recall(self):
        assert recall_at_k(["a", "b", "c"], TRUTH_AC, 3) == 1.0

    def test_disjoint(self):
        assert recall_at_k(["x", "y"], TRUTH_AC, 2) == 0.0


class TestRatioAtK:
    def test_two_new_over_three(self):
        assert ratio_at_k(["n1", "n2", "old"], {"old", "o2", "o3"}) == 0.5

    def test_all_inside_intersection(self):
        assert ratio_at_k(["a", "b"], {"a", "b", "c"}) == 0.0

    def test_empty_intersection_floor(self):
        assert ratio_at_k(["a", "b", "c", "d", "e"], set()) == 5.0


class TestMetricIntegrality:
    def test_counting_origin(self):
        rng = random.Random(2)
        pool = [f"e{i}" for i in range(12)]
        for _ in range(200):
            ranked = rng.sample(pool, rng.randint(0, len(pool)))
            answers = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
            truth = GroundTruth(query="q", answers=answers)
            k = rng.randint(1, 15)
            if ranked:
                p = precision_at_k(ranked, truth, k) * min(k, len(ranked))
                assert abs(p - round(p)) < 1e-9
            r = recall_at_k(ranked, truth, k) * len(answers)
            assert abs(r - round(r)) < 1e-9

    def test_ground_truth_requires_answers(self):
        with pytest.raises(ValueError):
            GroundTruth(query="q", answers=frozenset())

    def test_a_string_of_answers_is_rejected_not_split_into_characters(self):
        with pytest.raises(ValueError, match="collection of names"):
            GroundTruth(query="top american university", answers="ab")

    @pytest.mark.parametrize(
        "score",
        [
            lambda: recall_at_k("abc", GroundTruth(query="q", answers=["a"]), 2),
            lambda: precision_at_k("abc", GroundTruth(query="q", answers=["a"]), 2),
            lambda: ratio_at_k("ab", ["a"]),
            lambda: ratio_at_k(["a"], "ab"),
        ],
        ids=["recall-ranked", "precision-ranked", "ratio-top-k", "ratio-intersection"],
    )
    def test_a_string_of_entities_is_rejected_by_every_metric(self, score):
        with pytest.raises(ValueError, match="collection of names"):
            score()

    def test_an_answer_that_is_not_a_string_is_rejected(self):
        with pytest.raises(ValueError, match="must be names"):
            GroundTruth(query="q", answers=["a", None])

    def test_ground_truth_normalizes_its_answers(self):
        truth = GroundTruth(query="q", answers=frozenset({"A", " Big  Apple ", "a"}))
        assert truth.answers == {"a", "big apple"}

    @pytest.mark.parametrize("blank", ["", "  ", "\t"])
    def test_an_answer_that_normalizes_to_empty_is_rejected(self, blank):
        with pytest.raises(ValueError, match="non-empty"):
            GroundTruth(query="q", answers=frozenset({"a", blank}))


class TestIntPro:
    def test_f1_ordering(self, f1):
        # a: 2+1 = 3, b: 1+2 = 3, tie broken lexicographically
        got = intpro_baseline(f1, ["top university", "american university"], 5)
        assert got == ["a", "b"]

    def test_truncation(self, f1):
        got = intpro_baseline(f1, ["top university", "american university"], 1)
        assert got == ["a"]

    @pytest.mark.parametrize("k", [0, True, 2.5])
    def test_k_is_an_integer_of_at_least_one(self, f1, k):
        with pytest.raises(ValueError):
            intpro_baseline(f1, ["top university", "american university"], k)

    def test_a_bare_string_is_rejected_not_read_as_one_letter_names(self, f1):
        with pytest.raises(ValueError, match="collection of names"):
            intpro_baseline(f1, "top university", 5)

    def test_an_element_that_is_not_a_string_is_rejected(self, f1):
        with pytest.raises(ValueError, match="short concepts must be names, got 3"):
            intpro_baseline(f1, ["top university", 3], 2)

    def test_a_respelled_concept_counts_once(self):
        # b: 1 + 4 = 5 beats a: 3 + 1 = 4; counting "top u" twice gives a 7, b 6
        t = ingest([("top u", "a", 3), ("top u", "b", 1), ("am u", "a", 1), ("am u", "b", 4)])
        assert intpro_baseline(t, ["top u", "am u"], 5) == ["b", "a"]
        assert intpro_baseline(t, ["top u", "Top  U", "am u"], 5) == ["b", "a"]

    def test_empty_intersection(self):
        t = ingest([("c1", "a", 1), ("c2", "b", 1)])
        assert intpro_baseline(t, ["c1", "c2"], 5) == []

    def test_output_inside_every_concept(self):
        rng = random.Random(13)
        for _ in range(25):
            t = random_taxonomy(rng, max_concepts=4, max_entities=6, max_edges=15)
            concepts = sorted(t.concept_names)[:3]
            if not concepts:
                continue
            for e in intpro_baseline(t, concepts, 10):
                for c in concepts:
                    assert e in t.entities_of(c)


class TestPlantedInstance:
    def test_determinism(self):
        a = planted_instance(seed=4)
        b = planted_instance(seed=4)
        assert a.records == b.records
        assert planted_instance(seed=5).records != a.records

    def test_intersection_is_exactly_the_answers(self):
        inst = planted_instance(seed=0)
        t = inst.build()
        shared = set(t.entities_of(f"{inst.modifiers[0]} {inst.head}"))
        for m in inst.modifiers[1:]:
            shared &= set(t.entities_of(f"{m} {inst.head}"))
        assert shared == set(inst.answers)

    def test_equivalent_concept_contains_exactly_the_answers(self):
        inst = planted_instance(seed=1)
        t = inst.build()
        assert set(t.entities_of(inst.equivalent_concept)) == set(inst.answers)

    def test_parameters_shape_the_instance(self):
        inst = planted_instance(n_answers=6, n_modifiers=2, noise_per_concept=3, seed=0)
        t = inst.build()
        assert len(inst.answers) == 6
        assert len(inst.modifiers) == 2
        first = f"{inst.modifiers[0]} {inst.head}"
        assert len(t.entities_of(first)) == 6 + 3


class TestHoldout:
    def test_same_seed_gives_identical_report(self):
        inst = planted_instance(seed=2)
        t = inst.build()
        one = holdout_experiment(t, inst.query, 0.5, rng_seed=7, k=10)
        two = holdout_experiment(t, inst.query, 0.5, rng_seed=7, k=10)
        assert one == two

    def test_different_seed_changes_removal(self):
        inst = planted_instance(seed=2)
        t = inst.build()
        one = holdout_experiment(t, inst.query, 0.5, rng_seed=1, k=10)
        two = holdout_experiment(t, inst.query, 0.5, rng_seed=2, k=10)
        assert one.per_query[0].extras["removed"] != two.per_query[0].extras["removed"]

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_out_of_range_rejected(self, fraction):
        inst = planted_instance(seed=0)
        with pytest.raises(ValueError):
            holdout_experiment(inst.build(), inst.query, fraction, rng_seed=0, k=10)

    @pytest.mark.parametrize("k", [0, [5, 0], [], True, [5, False], 2.5, [2.5]])
    def test_bad_cutoffs_rejected_before_the_pipeline_runs(self, k, monkeypatch):
        inst = planted_instance(seed=0)
        t = inst.build()

        def run_query(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(evaluation, "run_query", run_query)
        with pytest.raises(ValueError, match="cutoff"):
            holdout_experiment(t, inst.query, 0.5, rng_seed=0, k=k)

    def test_a_string_is_one_cutoff_not_one_per_character(self, f1):
        with pytest.raises(ValueError, match=r"got \['10'\]"):
            holdout_experiment(f1, "top american university", 0.5, 0, "10")

    def test_a_numpy_integer_is_one_cutoff(self):
        inst = planted_instance(seed=2)
        t = inst.build()
        numpy_k = holdout_experiment(t, inst.query, 0.5, 7, np.int64(5))
        python_k = holdout_experiment(t, inst.query, 0.5, 7, 5)
        assert numpy_k.averages == python_k.averages
        assert json.dumps(numpy_k.params) == json.dumps(python_k.params)

    def test_small_intersection_rejected(self):
        t = ingest([("c1 thing", "only", 1), ("c2 thing", "only", 1)])
        with pytest.raises(EngineError):
            holdout_experiment(t, "c1 c2 thing", 0.5, rng_seed=0, k=5)

    def test_a_removal_that_empties_a_query_concept_is_rejected(self):
        # ceil(0.99 * 2) removes all of I = {a, b}, which is all "top
        # university" holds: the run would answer "american university" alone
        t = ingest([
            ("top university", "a", 2), ("top university", "b", 1),
            ("american university", "a", 1), ("american university", "b", 2),
            ("american university", "c", 3), ("ivy league", "a", 1), ("ivy league", "c", 1),
        ])
        with pytest.raises(EngineError, match=r"removing 0\.99 of the 2 entities in the "
                           r"intersection of 'top american university' leaves \['top university'\]"):
            holdout_experiment(t, "top american university", 0.99, rng_seed=0, k=10)

    def test_removed_entities_keep_their_equivalent_edges(self):
        # the removal must strip only the query-concept edges, leaving the
        # planted equivalent concept as the recovery channel
        inst = planted_instance(seed=3)
        t = inst.build()
        report = holdout_experiment(t, inst.query, 0.5, rng_seed=3, k=10)
        removed = report.per_query[0].extras["removed"]
        assert removed
        reduced = ingest(
            rec
            for rec in t.records()
            if not (
                rec.concept in {f"{m} {inst.head}" for m in inst.modifiers}
                and rec.entity in set(removed)
            )
        )
        for entity in removed:
            assert reduced.count(inst.equivalent_concept, entity) == t.count(
                inst.equivalent_concept, entity
            )

    def test_recovery_on_planted_instance(self):
        inst = planted_instance(seed=0)
        report = holdout_experiment(inst.build(), inst.query, 0.5, rng_seed=0, k=10)
        metrics = report.per_query[0].metrics
        assert metrics["recall@10"] == 1.0
        assert metrics["ratio@10"] > 0.0

    def test_list_of_cutoffs_matches_single_cutoffs(self):
        inst = planted_instance(seed=2)
        t = inst.build()
        both = holdout_experiment(t, inst.query, 0.5, 7, [5, 10])
        five = holdout_experiment(t, inst.query, 0.5, 7, 5)
        ten = holdout_experiment(t, inst.query, 0.5, 7, 10)
        assert both.averages == {**five.averages, **ten.averages}
        assert both.per_query[0].extras == ten.per_query[0].extras

    def test_params_echoed(self):
        inst = planted_instance(seed=0)
        report = holdout_experiment(inst.build(), inst.query, 0.5, rng_seed=4, k=10)
        assert report.params["removal_fraction"] == 0.5
        assert report.params["rng_seed"] == 4
        assert report.params["model"] == "noisy_or"

    def test_report_matches_reingested_reduction(self):
        # The reduced taxonomy is cut from the parent's arrays; the pipeline
        # on a re-ingest of the filtered records must give the same report.
        for seed in range(6):
            inst = planted_instance(seed=seed)
            t = inst.build()
            short = {f"{m} {inst.head}" for m in inst.modifiers}
            for fraction in (0.3, 0.5, 0.95):
                # 100 is beyond the universe, so the cut list is the whole ranking
                report = holdout_experiment(
                    t, inst.query, fraction, rng_seed=seed, k=[5, 10, 100]
                )
                extras = report.per_query[0].extras
                removed = set(extras["removed"])
                reduced = ingest(
                    r for r in t.records() if not (r.concept in short and r.entity in removed)
                )
                ranked = run_query(reduced, inst.query).entities()
                assert len(ranked) < 100 and extras["top_k"] == ranked
                assert extras["reduced_intersection"] == sorted(entity_intersection(reduced, short))
                truth = GroundTruth(query=inst.query, answers=frozenset(removed))
                for k in (5, 10, 100):
                    assert report.averages[f"precision@{k}"] == precision_at_k(ranked, truth, k)
                    assert report.averages[f"recall@{k}"] == recall_at_k(ranked, truth, k)
                    assert report.averages[f"ratio@{k}"] == ratio_at_k(
                        ranked[:k], extras["reduced_intersection"]
                    )

    def test_removal_may_empty_the_intersection(self):
        # ceil(0.95 * 10) = 10 removes every intersection entity; the reduced
        # query then has no full intersection and the pipeline must fall back
        # to subset seeding instead of failing
        inst = planted_instance(seed=1)
        report = holdout_experiment(inst.build(), inst.query, 0.95, rng_seed=1, k=10)
        metrics = report.per_query[0].metrics
        assert report.per_query[0].extras["reduced_intersection"] == []
        assert len(report.per_query[0].extras["removed"]) == 10
        assert 0.0 <= metrics["recall@10"] <= 1.0


class TestEvaluateQueries:
    def test_f1_hand_metrics(self, f1):
        # final pipeline ordering on F1 is [a, b, c, d, x]
        truth = GroundTruth(
            query="top american university", answers=frozenset({"a", "c"})
        )
        report = evaluate_queries(f1, [truth], ks=[2, 4, 10], config=PipelineConfig())
        metrics = report.per_query[0].metrics
        assert metrics["precision@2"] == 0.5   # {a} of top-2 [a, b]
        assert metrics["recall@2"] == 0.5
        assert metrics["ratio@2"] == 0.0       # top-2 inside intersection {a, b}
        assert metrics["precision@4"] == 0.5   # {a, c} of [a, b, c, d]
        assert metrics["recall@4"] == 1.0
        assert metrics["ratio@4"] == pytest.approx(2 / 3)  # c, d outside {a, b}
        # k beyond the five-entity ranking: precision divides by its length
        assert metrics["precision@10"] == 0.4
        assert metrics["recall@10"] == 1.0
        assert metrics["ratio@10"] == 1.0     # c, d, x outside {a, b}
        assert report.averages == metrics

    def test_answers_are_matched_as_normalized_names(self, f1):
        truth = GroundTruth("Top American University", frozenset({"A", "B"}))
        metrics = evaluate_queries(f1, [truth], [2]).per_query[0].metrics
        assert metrics["precision@2"] == metrics["recall@2"] == 1.0

    @pytest.mark.parametrize("ks", [[], [0], [5, 0], [2.5], [True], 10, None])
    def test_bad_cutoffs_rejected(self, f1, ks):
        truth = GroundTruth(query="top american university", answers=frozenset({"a"}))
        with pytest.raises(ValueError, match="cutoff"):
            evaluate_queries(f1, [truth], ks=ks)

    def test_empty_query_set(self, f1):
        report = evaluate_queries(f1, [], ks=[5])
        assert report.per_query == []
        assert report.averages == {}

    def test_macro_average(self, f1):
        truths = [
            GroundTruth(query="top american university", answers=frozenset({"a"})),
            GroundTruth(query="top famous university", answers=frozenset({"a", "x"})),
        ]
        report = evaluate_queries(f1, truths, ks=[3])
        first, second = (qm.metrics for qm in report.per_query)
        for key, value in report.averages.items():
            assert value == pytest.approx((first[key] + second[key]) / 2)


class TestNamesRead:
    """A scored run reads the names of its top max(k) entities only."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Each run's universe size and the names read after it ran."""
        runs = []
        names_at = ScoreVector.names_at

        def counted(self, positions):
            names = names_at(self, positions)
            runs[-1][1] += len(names)
            return names

        def run(*args, **kwargs):
            result = run_query(*args, **kwargs)
            runs.append([len(result.order), 0])
            return result

        monkeypatch.setattr(ScoreVector, "names_at", counted)
        monkeypatch.setattr(evaluation, "run_query", run)
        return runs

    @pytest.mark.parametrize("ks", [[2], [5, 3], [1, 100]])
    def test_a_hold_out_run_reads_its_top_names(self, runs, ks):
        inst = planted_instance(seed=0)
        holdout_experiment(inst.build(), inst.query, 0.5, rng_seed=0, k=ks)
        [(n, read)] = runs
        assert read == min(max(ks), n)

    @pytest.mark.parametrize("ks", [[2], [5, 3], [1, 100]])
    def test_a_truth_file_run_reads_its_top_names(self, runs, ks, f1):
        truths = [GroundTruth("top american university", frozenset({"a"})),
                  GroundTruth("top famous university", frozenset({"x"}))]
        evaluate_queries(f1, truths, ks)
        assert len(runs) == 2
        assert [read for _, read in runs] == [min(max(ks), n) for n, _ in runs]
