import itertools
import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptq.aggregate import optimize
from conceptq.baseline import baseline_rank
from conceptq.errors import UnanswerableQueryError
from conceptq.evaluation import planted_instance
from conceptq.pipeline import PipelineConfig, run_query
from conceptq.query import membership
from conceptq.taxonomy import entity_union, ingest

from helpers import random_rows


def test_a_query_and_a_holdout_run_import_no_scipy():
    # numpy is the package's only dependency
    code = (
        "import sys\n"
        "from conceptq import fixture_f1, holdout_experiment, run_query\n"
        "run_query(fixture_f1(), 'top american university')\n"
        "holdout_experiment(fixture_f1(), 'top american university', 0.5, 0, 10)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert proc.stdout.strip() == "[]"


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "fields",
        [
            {"gamma": 2.0},
            {"concepts_top_k": 0},
            {"alpha": 0.8, "beta": 0.5},
            {"model_kind": "bogus"},
        ],
    )
    def test_out_of_range_settings_raise_on_construction(self, fields):
        with pytest.raises(ValueError):
            PipelineConfig(**fields)

    def test_fields_cannot_be_assigned_after_validation(self):
        config = PipelineConfig()
        with pytest.raises(FrozenInstanceError):
            config.concepts_top_k = 0
        assert config.concepts_top_k == PipelineConfig.concepts_top_k


class TestRunQueryOnF1:
    def test_full_ranking(self, f1):
        result = run_query(f1, "top american university")
        assert result.entities() == ["a", "b", "c", "d", "x"]

    def test_intersection_members_beat_single_concept_members(self, f1):
        result = run_query(f1, "top american university")
        positions = {r.entity: i for i, r in enumerate(result.ranking)}
        assert positions["a"] < positions["c"]
        assert positions["a"] < positions["d"]
        assert positions["b"] < positions["c"]
        assert positions["b"] < positions["d"]

    def test_provenance_markers(self, f1):
        result = run_query(f1, "top american university")
        marks = {r.entity: r.provenance for r in result.ranking}
        assert marks == {
            "a": "seed",
            "b": "seed",
            "c": "baseline-only",
            "d": "baseline-only",
            "x": "expanded",
        }

    def test_top_k_never_pads(self, f1):
        result = run_query(f1, "top american university")
        assert len(result.top(100)) == 5
        assert len(result.top(2)) == 2

    def test_both_models_run(self, f1):
        for kind in ("noisy_or", "naive_bayes"):
            config = PipelineConfig(model_kind=kind)
            result = run_query(f1, "top american university", config)
            assert result.config.model_kind == kind
            assert result.entities()
            assert result.entities()[:2] == ["a", "b"]

    def test_deterministic(self, f1):
        one = run_query(f1, "top american university")
        two = run_query(f1, "top american university")
        assert one.ranking == two.ranking
        assert one.scores == two.scores

    def test_unresolved_modifier_tolerated(self, f1):
        result = run_query(f1, "top shiny university")
        assert result.decomposition.unresolved == ("shiny",)
        assert result.entities()

    def test_unanswerable_query_raises(self, f1):
        with pytest.raises(UnanswerableQueryError):
            run_query(f1, "shiny glossy university")

    def test_scores_ordered_with_ranking(self, f1):
        result = run_query(f1, "top american university")
        scores = [r.score for r in result.ranking]
        assert scores == sorted(scores, reverse=True)


class TestEmptyIntersectionQueries:
    def test_disjoint_short_concepts_still_answerable(self):
        t = ingest(
            [
                ("red car", "mini", 2),
                ("red car", "beetle", 1),
                ("fast car", "slingshot", 2),
                ("fast car", "veyron", 3),
                ("cult car", "mini", 1),
                ("cult car", "slingshot", 1),
                ("cult car", "delorean", 2),
            ]
        )
        result = run_query(t, "red fast car")
        entities = result.entities()
        # both maximal singleton seed sets contribute, and the shared
        # concept "cult car" surfaces delorean as an expanded entity
        assert set(entities) >= {"mini", "beetle", "slingshot", "veyron", "delorean"}
        marks = {r.entity: r.provenance for r in result.ranking}
        assert marks["delorean"] == "expanded"
        assert marks["mini"] == "seed"

    def test_subsets_recorded_in_result(self, f1):
        result = run_query(f1, "top american university")
        assert result.subsets[0].entities == frozenset({"a", "b"})
        assert result.baseline.ordering == ["a", "b", "c", "d"]


@st.composite
def random_queries(draw):
    """A random taxonomy whose concepts are "<c> kind", a query over one to
    four of its modifiers, and a config under either relevance model."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    t = ingest([(f"{c} kind", e, n) for c, e, n in random_rows(rng)])
    modifiers = sorted(c.split()[0] for c in t.concept_names)
    chosen = draw(st.lists(st.sampled_from(modifiers), min_size=1, max_size=4, unique=True))
    alpha = draw(st.sampled_from([0.0, 0.2, 1.0 / 3.0, 0.6]))
    beta = draw(st.sampled_from([0.0, 0.3, 1.0 - alpha]))
    kind = draw(st.sampled_from(["noisy_or", "naive_bayes"]))
    config = PipelineConfig(model_kind=kind, alpha=alpha, beta=beta)
    return t, " ".join([*chosen, "kind"]), config


class TestIdPath:
    """run_query solves over id and position arrays; its results must be
    those of the name-keyed API read through the stages' name views."""

    @given(random_queries())
    @settings(max_examples=150, deadline=None)
    def test_run_query_equals_optimize_over_the_name_views(self, case):
        t, query, config = case
        result = run_query(t, query, config)
        scores, ordering = optimize(
            result.baseline.ordering, result.expansion.r_c, result.expansion.r_p, config.weights()
        )
        # bit for bit: float.hex tells -0.0 from 0.0
        assert [(e, s.hex()) for e, s in result.scores.scores.items()] == [
            (e, s.hex()) for e, s in scores.scores.items()
        ]
        assert result.scores.universe == scores.universe
        assert (result.scores.iterations, result.scores.converged) == (
            scores.iterations, scores.converged
        )
        assert [(r.entity, r.score.hex()) for r in result.ranking] == [
            (e, scores.scores[e].hex()) for e in ordering
        ]

    @given(random_queries())
    @settings(max_examples=150, deadline=None)
    def test_provenance_follows_the_name_level_definition(self, case):
        t, query, config = case
        result = run_query(t, query, config)
        union = entity_union(t, result.decomposition.short_concepts)
        for r in result.ranking:
            if r.entity in result.expansion.seed_entities:
                expected = "seed"
            elif r.entity not in union:
                expected = "expanded"
            else:
                expected = "baseline-only"
            assert r.provenance == expected


class TestRowOrderInvariance:
    @given(
        instance_seed=st.integers(0, 20),
        shuffle_seed=st.integers(0, 2**16),
        kind=st.sampled_from(["noisy_or", "naive_bayes"]),
        extra=st.lists(
            st.tuples(
                st.sampled_from(["sleek gadget", "compact gadget", "collector favorite", "misc"]),
                st.sampled_from(["item00", "item03", "noise000", "junk01", "loner"]),
                st.integers(1, 5),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_permuting_rows_leaves_ranking_unchanged(self, instance_seed, shuffle_seed, kind, extra):
        inst = planted_instance(n_modifiers=2, seed=instance_seed)
        rows = list(inst.records) + extra
        shuffled = list(rows)
        random.Random(shuffle_seed).shuffle(shuffled)
        config = PipelineConfig(model_kind=kind)
        one = run_query(ingest(rows), inst.query, config)
        two = run_query(ingest(shuffled), inst.query, config)
        assert one.ranking == two.ranking
        assert one.expansion.concepts == two.expansion.concepts


def symmetric_taxonomy():
    """Six short concepts "m<i> h", each holding the same six answers plus
    two noise entities of its own: every answer ties every other answer, and
    every noise entity every other noise entity, by symmetry."""
    rows = [(f"m{i} h", f"answer{j}", 1) for i in range(6) for j in range(6)]
    rows += [(f"m{i} h", f"noise{i}{j}", 1) for i in range(6) for j in range(2)]
    return ingest(rows)


class TestModifierOrderInvariance:
    @given(
        instance_seed=st.integers(0, 20),
        n_modifiers=st.integers(2, 6),
        kind=st.sampled_from(["noisy_or", "naive_bayes"]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_permuting_modifiers_leaves_ranking_unchanged(
        self, instance_seed, n_modifiers, kind, data
    ):
        inst = planted_instance(n_modifiers=n_modifiers, seed=instance_seed)
        t = ingest(inst.records)
        modifiers = data.draw(st.permutations(inst.modifiers))
        config = PipelineConfig(model_kind=kind)
        one = run_query(t, inst.query, config)
        two = run_query(t, " ".join([*modifiers, inst.head]), config)
        assert one.ranking == two.ranking

    @given(modifiers=st.permutations([f"m{i}" for i in range(6)]))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_fixture_ranking_ignores_modifier_order(self, modifiers):
        t = symmetric_taxonomy()
        reference = run_query(t, "m0 m1 m2 m3 m4 m5 h")
        assert run_query(t, " ".join([*modifiers, "h"])).ranking == reference.ranking

    def test_symmetric_fixture_baseline_ignores_concept_order(self):
        t = symmetric_taxonomy()
        concepts = [f"m{i} h" for i in range(6)]
        answers_first = sorted(t.entity_names, key=lambda e: (not e.startswith("answer"), e))
        for perm in itertools.permutations(concepts):
            assert baseline_rank(t, membership(t, perm)).ordering == answers_first
