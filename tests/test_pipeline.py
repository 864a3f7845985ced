import functools
import itertools
import os
import random
import re
import subprocess
import sys
import types
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conceptq
from conceptq import pipeline
from conceptq.aggregate import ScoreVector
from conceptq.baseline import BaselineRanking, baseline_rank
from conceptq.errors import UnanswerableQueryError
from conceptq.expansion import ExpansionResult
from conceptq.pipeline import PipelineConfig, QueryResult, RankedEntity, run_query
from conceptq.query import membership
from conceptq.taxonomy import entity_union, ingest

from helpers import (
    disjoint_concept_taxonomy, names_of, optimize, oracle_run_query, planted_instance, random_rows,
    relevance, tied,
)


def test_a_query_and_a_holdout_run_import_no_scipy():
    # numpy is the package's only dependency, and numpy.ma (which numpy 2
    # imports lazily, e.g. from a plain np.unique) is not needed either
    code = (
        "import sys\n"
        "import numpy\n"
        "eager = set(sys.modules)\n"
        "from conceptq import fixture_f1, holdout_experiment, run_query\n"
        "run_query(fixture_f1(), 'top american university')\n"
        "holdout_experiment(fixture_f1(), 'top american university', 0.5, 0, 10)\n"
        "new = set(sys.modules) - eager\n"
        "print(sorted(m for m in new if m in ('scipy', 'numpy.ma') or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert proc.stdout.strip() == "[]"


def test_the_readme_lists_exactly_the_package_exports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = readme.split("`conceptq` exports these names and no others:\n\n", 1)[1]
    listed = re.findall(r"`(\w+)`", listing.split("\n\n", 1)[0])
    exported = {
        name for name, value in vars(conceptq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == exported


def test_the_readme_lists_exactly_the_stage_name_views():
    # "(`baseline.ordering`; `expansion.r_c`, ...)": one group per stage,
    # whose first view carries the stage's name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"The name views\s+\((.*?)\)", readme, re.S).group(1)
    listed = []
    for group in listing.split(";"):
        names = re.findall(r"`([\w.]+)`", group)
        stage = names[0].split(".")[0]
        listed += [(stage, name.split(".")[-1]) for name in names]
    views = {
        (stage, name)
        for stage, cls in (
            ("baseline", BaselineRanking), ("expansion", ExpansionResult),
            ("scores", ScoreVector), ("result", QueryResult),
        )
        for name, value in vars(cls).items() if isinstance(value, functools.cached_property)
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == views


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "fields",
        [
            {"gamma": 2.0},
            {"concepts_top_k": 0},
            {"alpha": 0.8, "beta": 0.5},
            {"model_kind": "bogus"},
            {"concepts_top_k": True},
            {"concepts_top_k": 2.5},
            {"head": ""},
            {"head": "  "},
            {"head": 5},
        ],
    )
    def test_out_of_range_settings_raise_on_construction(self, fields):
        with pytest.raises(ValueError):
            PipelineConfig(**fields)

    def test_a_numpy_integer_cutoff_is_kept_as_an_int(self):
        config = PipelineConfig(concepts_top_k=np.int64(5))
        assert type(config.concepts_top_k) is int and config.echo()["concepts_top_k"] == 5

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

    @pytest.mark.parametrize("k", [-1, 0, True, 2.5, "2"])
    def test_top_applies_the_cutoff_rule(self, f1, k):
        # a cutoff is an integer of at least 1, and a bool is not one
        result = run_query(f1, "top american university")
        with pytest.raises(ValueError):
            result.top(k)
        assert [r.entity for r in result.top(np.int64(2))] == ["a", "b"]

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
        assert one.scores.values.tolist() == two.scores.values.tolist()
        assert (one.scores.iterations, one.scores.converged) == (
            two.scores.iterations, two.scores.converged)

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


# run_query's ranking as it was when the result's views were built eagerly,
# as (entity, score to 12 decimals, provenance)
EAGER_RANKINGS = {
    "f1": [
        ("a", 3.230416047323, "seed"),
        ("b", 3.230416047323, "seed"),
        ("c", -0.984464225429, "baseline-only"),
        ("d", -0.984464225429, "baseline-only"),
        ("x", -4.491903643788, "expanded"),
    ],
    "planted": [
        ("item00", 4.631081971229, "seed"),
        ("item07", 4.631081971229, "seed"),
        ("item09", 4.572379814536, "seed"),
        ("item01", 4.443251964173, "seed"),
        ("item05", 4.443251964173, "seed"),
        ("item08", 4.351864553619, "seed"),
        ("item04", 4.239639807752, "seed"),
        ("item03", 4.094247205303, "seed"),
        ("item02", 3.887757033677, "seed"),
        ("item06", 3.530658256420, "seed"),
        ("noise200", 0.414890780750, "baseline-only"),
        ("noise201", 0.414890780750, "baseline-only"),
        ("noise000", -1.818549647260, "baseline-only"),
        ("noise001", -1.818549647260, "baseline-only"),
        ("noise100", -4.312464996065, "baseline-only"),
        ("noise101", -4.312464996065, "baseline-only"),
        ("junk00", -7.848241704240, "expanded"),
        ("junk01", -7.848241704240, "expanded"),
        ("junk02", -7.848241704240, "expanded"),
        ("junk03", -7.848241704240, "expanded"),
    ],
}


class TestLazyViews:
    """run_query returns score and order arrays; names, the name-keyed
    scores and RankedEntity rows are built only when a view is read."""

    def test_run_query_reads_no_entity_name_and_builds_no_row(self, f1, monkeypatch):
        f1.entity_rank  # the taxonomy's name ranks, built once before any query
        reads, rows = [], []

        class CountedNames(list):
            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

            def __iter__(self):
                reads.append("iter")
                return super().__iter__()

        def ranked_entity(*row):
            rows.append(row)
            return RankedEntity(*row)

        monkeypatch.setattr(f1, "entity_names", CountedNames(f1.entity_names))
        monkeypatch.setattr(pipeline, "RankedEntity", ranked_entity)
        result = run_query(f1, "top american university")
        assert (reads, rows) == ([], [])
        assert len(result.top(3)) == 3
        assert (len(reads), len(rows)) == (3, 3)
        assert result.entities() == ["a", "b", "c", "d", "x"]
        assert len(rows) == 3
        assert len(result.ranking) == 5 and len(rows) == 8
        assert result.ranking is result.ranking and len(rows) == 8

    @pytest.mark.parametrize("case", ["f1", "planted"])
    def test_the_views_agree_and_equal_the_eagerly_built_ones(self, case, f1):
        inst = planted_instance(seed=0)
        t, query = (f1, "top american university") if case == "f1" else (
            ingest(inst.records), inst.query
        )
        expected = EAGER_RANKINGS[case]
        result = run_query(t, query)
        scores = result.scores
        rows = [(r.entity, r.score, r.provenance) for r in result.ranking]
        # the views agree with each other and with the arrays, bit for bit
        assert rows == [
            (e, scores.values[i], result.provenance[i])
            for e, i in zip(result.entities(), result.order.tolist())
        ]
        assert all(scores.scores[e] == s for e, s, _ in rows)
        assert result.top(3) == result.ranking[:3]
        assert list(scores.scores) == sorted(scores.scores)
        assert scores.universe == set(scores.scores)
        # and give the eagerly built ranking's names, provenance and scores
        assert [(e, p) for e, _, p in rows] == [(e, p) for e, _, p in expected]
        for (_, score, _), (_, pinned, _) in zip(rows, expected):
            assert abs(score - pinned) < 1e-9


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

    @pytest.mark.parametrize("kind", ["noisy_or", "naive_bayes"])
    def test_concept_outside_every_seed_run_pools_its_score_over_the_runs(self, kind):
        t = disjoint_concept_taxonomy()
        config = PipelineConfig(model_kind=kind)
        result = run_query(t, "red fast cult blue car", config)
        runs = [p for p in result.subsets if p.size == result.subsets[0].size]
        assert [p.size for p in runs] == [2, 2]
        assert not any("blue car" in p.subset for p in runs)
        short = result.decomposition.short_concepts
        pooled = {c.concept: c.score for c in result.expansion.concepts}
        for concept in short:
            expected = sum(
                relevance(t, concept, names_of(t, p.ids), short, config.expansion_model()) for p in runs
            )
            assert expected > 0
            assert pooled[concept] == expected, concept

    def test_covering_a_seed_never_lowers_a_short_concepts_score(self):
        # The full intersection is empty and the runs are {a} and {b}: c1
        # covers seed a, c4 covers no seed, and both sum every run's score.
        rows = [("c1 thing", "a", 1), ("c2 thing", "a", 1), ("c2 thing", "b", 1),
                ("c3 thing", "b", 1), ("c4 thing", "d", 1)]
        rows += [(f"c{c} thing", f"e{c}{i}", 1) for c in (1, 4) for i in range(5)]
        rows += [(f"other {i}", "a", 1) for i in range(30)]
        t = ingest(rows)
        result = run_query(t, "c1 c2 c3 c4 thing")
        assert [names_of(t, p.ids) for p in result.subsets if p.size == 2] == [["a"], ["b"]]
        pooled = {c.concept: c.score for c in result.expansion.concepts}
        assert pooled["c1 thing"] == pytest.approx(5.475)
        assert pooled["c4 thing"] == pytest.approx(4.8)

    def test_subsets_recorded_in_result(self, f1):
        result = run_query(f1, "top american university")
        assert names_of(f1, result.subsets[0].ids) == ["a", "b"]
        assert result.baseline.ordering == ["a", "b", "c", "d"]


@st.composite
def random_queries(draw, **rows):
    """A random taxonomy whose concepts are "<c> kind" (``rows`` are
    ``random_rows``' limits), a query over one to four of its modifiers,
    and a config under either relevance model."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    t = ingest([(f"{c} kind", e, n) for c, e, n in random_rows(rng, **rows)])
    modifiers = sorted(c.split()[0] for c in t.concept_names)
    chosen = draw(st.lists(st.sampled_from(modifiers), min_size=1, max_size=4, unique=True))
    alpha = draw(st.sampled_from([0.0, 0.2, 1.0 / 3.0, 0.6]))
    beta = draw(st.sampled_from([0.0, 0.3, 1.0 - alpha]))
    kind = draw(st.sampled_from(["noisy_or", "naive_bayes"]))
    config = PipelineConfig(model_kind=kind, alpha=alpha, beta=beta)
    return t, " ".join([*chosen, "kind"]), config


class TestNameIndependence:
    """Name order is no evidence: an entity's score depends on its rows,
    not on what it is called."""

    @pytest.mark.parametrize("kind", ["noisy_or", "naive_bayes"])
    @given(case=random_queries(max_concepts=10, max_edges=30, max_count=3),
           gamma=st.sampled_from([0.5, 1.0]), top_k=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_reversing_the_other_concepts_name_order_changes_no_score(self, kind, case, gamma, top_k):
        # every concept but the query's own is renamed so that their name
        # order reverses; which concepts a run retains, and so the universe,
        # must not follow their names
        t, query, config = case
        config = replace(config, model_kind=kind, gamma=gamma, concepts_top_k=top_k)
        before = run_query(t, query, config)
        others = sorted(set(t.concept_names) - set(before.decomposition.short_concepts))
        rename = {c: f"other{len(others) - i:03d}" for i, c in enumerate(others)}
        renamed = ingest([(rename.get(r.concept, r.concept), r.entity, r.count) for r in t.records()])
        after = run_query(renamed, query, config)
        assert after.scores.universe == before.scores.universe
        assert sorted(c.score for c in after.expansion.concepts) == sorted(
            c.score for c in before.expansion.concepts
        )
        rel = [dict(zip(r.expansion.r_c, r.expansion.scores.tolist())) for r in (before, after)]
        assert rel[0] == rel[1]
        assert [(r.entity, r.score.hex()) for r in after.ranking] == [
            (r.entity, r.score.hex()) for r in before.ranking
        ]

    @given(random_queries(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_renaming_entities_leaves_every_score_unchanged(self, case, rnd):
        t, query, config = case
        targets = [f"x{i}" for i in range(len(t.entity_names))]
        rnd.shuffle(targets)
        rename = dict(zip(t.entity_names, targets))
        renamed = ingest([(r.concept, rename[r.entity], r.count) for r in t.records()])
        before, after = run_query(t, query, config), run_query(renamed, query, config)
        assert after.scores.universe == {rename[e] for e in before.scores.universe}
        for e, score in before.scores.scores.items():
            assert abs(after.scores.scores[rename[e]] - score) < 1e-9

    @pytest.mark.parametrize(
        "seed, group", [(9, ["e0", "e1", "e4"]), (12, ["e2", "e3", "e4"]), (21, ["e2", "e3", "e4", "e5"])]
    )
    def test_an_ordering_of_weight_zero_splits_no_tie(self, seed, group):
        # alpha = 0 gives R_c no weight: the group shares its baseline weight
        # and its tier, so its differing rel(e) must not split it by float noise
        t = ingest([(f"{c} kind", e, n) for c, e, n in random_rows(random.Random(seed))])
        ranking = run_query(t, "c0 c1 kind", PipelineConfig(alpha=0.0, beta=0.3)).ranking
        at = [r.entity for r in ranking].index(group[0])
        rows = ranking[at: at + len(group)]
        assert [r.entity for r in rows] == group
        assert len({r.score.hex() for r in rows}) == 1

    @given(random_queries())
    @settings(max_examples=150, deadline=None)
    def test_tied_entities_get_bit_equal_scores(self, case):
        # same baseline weight, same rel(e) and same tier: one score
        t, query, config = case
        result = run_query(t, query, config)
        weight = dict(zip(names_of(t, result.baseline.ids), result.baseline.weights.tolist()))
        rel = dict(zip(names_of(t, result.expansion.ids), result.expansion.scores.tolist()))
        tier = {
            t.entity_names[e]: k
            for k, ids in enumerate(result.expansion.tiers) for e in ids.tolist()
        }
        classes = {}
        for e, score in result.scores.scores.items():
            key = (weight.get(e), rel[e], tier.get(e))
            classes.setdefault(key, set()).add(score.hex())
        assert all(len(scores) == 1 for scores in classes.values())


class TestIdPath:
    """run_query solves over id and position arrays; its results must be
    those of the name-keyed API read through the stages' name views."""

    @given(random_queries())
    @settings(max_examples=150, deadline=None)
    def test_run_query_equals_optimize_over_the_name_views(self, case):
        t, query, config = case
        result = run_query(t, query, config)
        # R_b and R_c are bucket orders: a run of equal weights or rel(e) is a tie
        scores, ordering = optimize(
            tied(result.baseline.ordering, result.baseline.weights.tolist()),
            tied(result.expansion.r_c, result.expansion.scores.tolist()),
            result.expansion.r_p,
            config.weights(),
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


class TestWholeQueryOracle:
    """run_query against ``helpers.oracle_run_query``, which composes the
    stage oracles over names and calls none of the engine's stages."""

    @pytest.mark.parametrize("kind", ["noisy_or", "naive_bayes"])
    @given(case=random_queries())
    @settings(max_examples=200, deadline=None)
    def test_run_query_matches_the_names_only_oracle(self, kind, case):
        t, query, config = case
        config = replace(config, model_kind=kind)
        result = run_query(t, query, config)
        scores, provenance, concepts = oracle_run_query(t, query, config)
        assert [(c.concept, c.score) for c in result.expansion.concepts] == concepts
        assert result.scores.universe == scores.keys()
        assert {r.entity: r.provenance for r in result.ranking} == provenance
        for r in result.ranking:
            assert abs(r.score - scores[r.entity]) < 1e-6
        # The same ranking up to groups of bit-equal scores. The oracle solves
        # over single entities to its own tolerance, so two scores it finds
        # within 1e-9 of each other may come in either order.
        ranked = [(r.entity, r.score) for r in result.ranking]
        for (x, score_x), (y, score_y) in itertools.combinations(ranked, 2):
            if score_x != score_y:
                assert scores[x] > scores[y] - 1e-9


class TestLocality:
    """Under noisy-or an answer reads the rows of E_u's entities and of the
    concepts that cover a seed or are the query's own, and no others."""

    @given(case=random_queries(max_concepts=8, max_edges=30, max_count=3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_edges_far_from_the_query_change_no_answer(self, case, data):
        # each added edge joins a concept that is not the query's own and
        # covers no seed (or a new one) to an entity outside E_u (or a new one)
        t, query, config = case
        config = replace(config, model_kind="noisy_or")
        before = run_query(t, query, config)
        short = before.decomposition.short_concepts
        seeds = before.expansion.seed_entities
        concepts = [c for c in t.concept_names
                    if c not in short and seeds.isdisjoint(t.entities_of(c))]
        entities = sorted(set(t.entity_names) - entity_union(t, short))
        extra = data.draw(st.lists(
            st.tuples(st.sampled_from([*concepts, "new0 kind", "new1 kind"]),
                      st.sampled_from([*entities, "new0", "new1"]), st.integers(1, 3)),
            min_size=1, max_size=6,
        ))
        after = run_query(ingest([*t.records(), *extra]), query, config)
        assert [(r.entity, r.score.hex(), r.provenance) for r in after.ranking] == [
            (r.entity, r.score.hex(), r.provenance) for r in before.ranking
        ]
        assert [c.concept for c in after.expansion.concepts] == [
            c.concept for c in before.expansion.concepts
        ]


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
