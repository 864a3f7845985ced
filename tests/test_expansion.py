import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conceptq.baseline import baseline_rank
from conceptq.errors import NoCandidateEntitiesError
from conceptq.expansion import (
    ConceptRelevance,
    ExpansionModel,
    PairwiseConstraint,
    expand,
)
from conceptq.query import MembershipPattern, membership
from conceptq.taxonomy import Csr, ingest

from helpers import (
    disjoint_concept_taxonomy,
    entity_relevance,
    g_penalty,
    names_of,
    oracle_expand,
    oracle_rel_naive_bayes,
    oracle_rel_noisy_or,
    random_taxonomy,
    relevance,
    tier_rows,
)


def full_intersection_cases(rng, count):
    """Random taxonomies with a query whose full intersection is non-empty."""
    cases = []
    while len(cases) < count:
        t = random_taxonomy(rng, max_concepts=6, max_entities=8, max_edges=24)
        concepts = sorted(t.concept_names)
        short = concepts[: rng.randint(1, min(3, len(concepts)))]
        members = membership(t, short)
        if members.patterns[0].size == len(short):
            cases.append((t, short, members, sorted(names_of(t, members.patterns[0].ids))))
    return cases

F1_PAIR = ["top university", "american university"]

# gamma = 1 scores every concept missing a seed exactly 0, so many
# candidates tie at the top_k boundary.
SELECTION_MODELS = [
    ExpansionModel(kind="noisy_or", leak=0.1, delta=0.5),
    ExpansionModel(kind="naive_bayes", gamma=1.0, delta=0.5),
]


class TestModelValidation:
    def test_defaults(self):
        m = ExpansionModel()
        assert m.kind == "noisy_or"
        assert (m.gamma, m.leak, m.delta) == (0.5, 0.1, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "other"},
            {"gamma": 0.0},
            {"gamma": 1.1},
            {"leak": -0.1},
            {"leak": 1.0},
            {"delta": 0.0},
            {"delta": 1.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ExpansionModel(**kwargs)


class TestGPenalty:
    def test_concept_inside_union(self, f1):
        # ivy league's entities {a, b} both sit inside the union {a,b,c,d}
        assert g_penalty(f1, "ivy league", F1_PAIR, 0.5) == pytest.approx(0.0625)

    def test_concept_reaching_outside(self, f1):
        # famous university pays for x: (0.5 + 6) / 10
        assert g_penalty(f1, "famous university", F1_PAIR, 0.5) == pytest.approx(0.65)

    def test_minimal_penalty_numerator_is_delta(self, f1):
        # a query concept contains nothing outside the union by definition
        total = sum(n + 1 for n in f1.entities_of("top university").values())
        assert g_penalty(f1, "top university", F1_PAIR, 0.5) == pytest.approx(0.5 / total)

    def test_unknown_concept_rejected(self, f1):
        with pytest.raises(ValueError):
            g_penalty(f1, "no such", F1_PAIR, 0.5)


class TestRelevanceScores:
    def test_naive_bayes_f1_value(self, f1):
        model = ExpansionModel(kind="naive_bayes", gamma=0.5, delta=0.5)
        rel = relevance(f1, "ivy league", ["a", "b"], F1_PAIR, model)
        # (6/21) * (0.5*0.5 + 0.5*7/21)^2 / 0.0625 = 50/63
        assert rel == pytest.approx(50 / 63, rel=1e-12)

    def test_naive_bayes_unsmoothed_zero(self, f1):
        model = ExpansionModel(kind="naive_bayes", gamma=1.0, delta=0.5)
        # d is not an entity of ivy league, so gamma=1 kills the product
        assert relevance(f1, "ivy league", ["a", "d"], F1_PAIR, model) == 0.0

    def test_naive_bayes_gamma_to_zero_uses_priors_only(self, f1):
        model = ExpansionModel(kind="naive_bayes", gamma=1e-12, delta=0.5)
        rel = relevance(f1, "ivy league", ["a", "b"], F1_PAIR, model)
        n = f1.grand_total
        prior_only = (
            f1.n_c[f1.concept_id("ivy league")] / n
            * (f1.n_e[f1.entity_id("a")] / n)
            * (f1.n_e[f1.entity_id("b")] / n)
            / 0.0625
        )
        assert rel == pytest.approx(prior_only, rel=1e-9)

    def test_noisy_or_f1_value(self, f1):
        model = ExpansionModel(kind="noisy_or", leak=0.0, delta=0.5)
        rel = relevance(f1, "ivy league", ["a", "b"], F1_PAIR, model)
        # (1 - (4/7)^2) / 0.0625 = 528/49
        assert rel == pytest.approx(528 / 49, rel=1e-12)

    def test_noisy_or_unrelated_concept_scores_zero_without_leak(self, f1):
        model = ExpansionModel(kind="noisy_or", leak=0.0, delta=0.5)
        assert relevance(f1, "ivy league", ["d"], F1_PAIR, model) == 0.0

    def test_noisy_or_single_relation_is_positive(self, f1):
        model = ExpansionModel(kind="noisy_or", leak=0.0, delta=0.5)
        for concept in f1.concept_names:
            rel = relevance(f1, concept, ["a"], F1_PAIR, model)
            assert rel > 0.0

    def test_out_reaching_concept_loses_with_equal_evidence(self):
        # c_in and c_out cover the seeds identically; c_out's extra entity
        # outside the union costs it the penalty and therefore the rank
        t = ingest(
            [
                ("q1 thing", "s1", 2), ("q1 thing", "s2", 2),
                ("q2 thing", "s1", 1), ("q2 thing", "s2", 1),
                ("c in", "s1", 3), ("c in", "s2", 3),
                ("c out", "s1", 3), ("c out", "s2", 3), ("c out", "stray", 3),
            ]
        )
        short = ["q1 thing", "q2 thing"]
        seeds = ["s1", "s2"]
        for model in (
            ExpansionModel(kind="noisy_or", leak=0.1, delta=0.5),
            ExpansionModel(kind="naive_bayes", gamma=0.5, delta=0.5),
        ):
            assert relevance(t, "c in", seeds, short, model) > relevance(t, "c out", seeds, short, model)

    def test_noisy_or_monotone_in_leak(self, f1):
        rels = [
            relevance(
                f1,
                "ivy league",
                ["a"],
                F1_PAIR,
                ExpansionModel(kind="noisy_or", leak=leak, delta=0.5),
            )
            for leak in (0.0, 0.1, 0.5, 0.9)
        ]
        assert rels == sorted(rels)

    def test_empty_seed_set_rejected(self, f1):
        model = ExpansionModel()
        with pytest.raises(ValueError):
            relevance(f1, "ivy league", [], F1_PAIR, model)

    def test_oracle_agreement_on_random_fixtures(self):
        rng = random.Random(5)
        checked = 0
        while checked < 40:
            t = random_taxonomy(rng, max_concepts=5, max_entities=7, max_edges=18)
            concepts = sorted(t.concept_names)
            short = concepts[: rng.randint(1, min(3, len(concepts)))]
            seed_pool = sorted({e for c in short for e in t.entities_of(c)})
            if not seed_pool:
                continue
            seeds = rng.sample(seed_pool, rng.randint(1, len(seed_pool)))
            target = rng.choice(concepts)
            gamma = rng.uniform(0.05, 1.0)
            leak = rng.uniform(0.0, 0.9)
            delta = rng.uniform(0.05, 0.95)
            got_no = relevance(
                t, target, seeds, short, ExpansionModel(kind="noisy_or", leak=leak, delta=delta)
            )
            want_no = oracle_rel_noisy_or(t, target, seeds, short, leak, delta)
            assert got_no == pytest.approx(want_no, rel=1e-12, abs=1e-300)
            got_nb = relevance(
                t, target, seeds, short, ExpansionModel(kind="naive_bayes", gamma=gamma, delta=delta)
            )
            want_nb = oracle_rel_naive_bayes(t, target, seeds, short, gamma, delta)
            assert got_nb == pytest.approx(want_nb, rel=1e-12, abs=1e-300)
            checked += 1


class TestExpandConcepts:
    def test_penalized_concept_ranks_below(self, f1):
        model = ExpansionModel(kind="noisy_or", leak=0.0, delta=0.5)
        result = expand(f1, membership(f1, F1_PAIR), model, top_k=2)
        names = [c.concept for c in result.concepts]
        assert names[0] == "ivy league"
        assert "famous university" not in names

    def test_single_shared_concept_is_rank_one(self, f1):
        model = ExpansionModel()
        short = ["famous university", "top university"]
        seeded_by_x = [MembershipPattern(frozenset(short), 2, np.array([f1.entity_id("x")]))]
        members = replace(membership(f1, short), patterns=seeded_by_x)
        result = expand(f1, members, model, top_k=5)
        assert result.concepts[0].concept == "famous university"

    @pytest.mark.parametrize("top_k", [0, True, 2.5])
    def test_top_k_is_an_integer_of_at_least_one(self, f1, top_k):
        with pytest.raises(ValueError, match="top_k"):
            expand(f1, membership(f1, F1_PAIR), ExpansionModel(), top_k=top_k)

    def test_top_k_larger_than_candidates(self, f1):
        model = ExpansionModel()
        seeded_by_a = [MembershipPattern(frozenset(F1_PAIR), 2, np.array([f1.entity_id("a")]))]
        members = replace(membership(f1, F1_PAIR), patterns=seeded_by_a)
        result = expand(f1, members, model, top_k=50)
        assert len(result.concepts) == 4

    def test_scores_descending_with_lexicographic_ties(self, f1):
        model = ExpansionModel(kind="noisy_or", leak=0.0, delta=0.5)
        result = expand(f1, membership(f1, F1_PAIR), model, top_k=10)
        # the two query concepts tie exactly by symmetry of F1
        keys = [(-c.score, c.concept) for c in result.concepts]
        assert keys[1][0] == keys[2][0]
        assert keys == sorted(keys)


class TestRankEntities:
    def test_single_concept_tie_breaks_lexicographically(self, f1):
        concepts = [ConceptRelevance(concept="ivy league", score=2.0)]
        assert list(entity_relevance(f1, concepts)) == ["a", "b"]

    def test_uncovered_entities_excluded(self, f1):
        concepts = [ConceptRelevance(concept="ivy league", score=2.0)]
        scores = entity_relevance(f1, concepts)
        assert set(scores) == {"a", "b"}

    def test_scaling_scores_leaves_ordering_unchanged(self, f1):
        base = [
            ConceptRelevance(concept="ivy league", score=1.5),
            ConceptRelevance(concept="top university", score=0.7),
        ]
        doubled = [
            ConceptRelevance(concept=c.concept, score=2 * c.score) for c in base
        ]
        assert list(entity_relevance(f1, base)) == list(entity_relevance(f1, doubled))

    def test_empty_concepts_rejected(self, f1):
        # no seed set to expand from
        with pytest.raises(NoCandidateEntitiesError):
            expand(f1, membership(f1, ["no such concept"]), ExpansionModel())


class TestSeedTiers:
    def test_f1_tiers(self, f1):
        members = membership(f1, F1_PAIR)
        result = expand(f1, members, ExpansionModel())
        assert tier_rows(f1, members, result.tiers) == [(2, ["a", "b"]), (1, ["c", "d"])]
        assert result.seed_entities == frozenset({"a", "b"})

    def test_three_level_structure(self):
        # entities of the triple intersection go to tier 3 even though they
        # also appear in every pair and singleton
        t = ingest(
            [
                ("c1", "harvard", 1), ("c1", "berkley", 1),
                ("c2", "harvard", 1), ("c2", "berkley", 1),
                ("c3", "harvard", 1), ("c3", "solo", 1),
            ]
        )
        members = membership(t, ["c1", "c2", "c3"])
        tiers = expand(t, members, ExpansionModel()).tiers
        assert tier_rows(t, members, tiers) == [
            (3, ["harvard"]),
            (2, ["berkley"]),
            (1, ["solo"]),
        ]

    def test_identical_concepts_give_single_tier(self):
        t = ingest([("c1", "a", 1), ("c1", "b", 1), ("c2", "a", 1), ("c2", "b", 1)])
        members = membership(t, ["c1", "c2"])
        result = expand(t, members, ExpansionModel())
        assert tier_rows(t, members, result.tiers) == [(2, ["a", "b"])]
        assert result.seed_entities == frozenset({"a", "b"})

    def test_tiers_partition_seed_universe(self, f1):
        members = membership(f1, F1_PAIR)
        tiers = expand(f1, members, ExpansionModel()).tiers
        # every E_u id in exactly one tier
        assert sorted(np.concatenate(tiers).tolist()) == members.ids.tolist()


class TestPairwiseConstraints:
    def test_consecutive_pairs_only(self):
        t = ingest(
            [(c, e, 1) for c in ("c1", "c2", "c3") for e in ("harvard", "princeton")]
            + [(c, e, 1) for c in ("c1", "c2") for e in ("berkley", "virginia")]
            + [("c3", "solo", 1)]
        )
        constraints = expand(t, membership(t, ["c1", "c2", "c3"]), ExpansionModel()).r_p
        assert len(constraints) == 2
        assert constraints[0].higher == frozenset({"harvard", "princeton"})
        assert constraints[0].lower == frozenset({"berkley", "virginia"})
        assert constraints[1].higher == frozenset({"berkley", "virginia"})
        assert constraints[1].lower == frozenset({"solo"})

    def test_single_tier_no_constraints(self):
        t = ingest([("c1", "a", 1), ("c2", "a", 1)])
        assert expand(t, membership(t, ["c1", "c2"]), ExpansionModel()).r_p == []

    def test_sides_must_be_disjoint_and_non_empty(self):
        with pytest.raises(ValueError):
            PairwiseConstraint(higher=frozenset({"a"}), lower=frozenset({"a", "b"}))
        with pytest.raises(ValueError):
            PairwiseConstraint(higher=frozenset(), lower=frozenset({"b"}))


class TestExpandOrchestration:
    def test_f1_full_intersection_run(self, f1):
        model = ExpansionModel(kind="noisy_or", leak=0.1, delta=0.5)
        result = expand(f1, membership(f1, F1_PAIR), model, top_k=10)
        assert result.seed_entities == frozenset({"a", "b"})
        names = [c.concept for c in result.concepts]
        assert names[0] == "ivy league"
        assert set(names) == set(f1.concept_names)
        assert result.r_c[:2] == ["a", "b"]
        assert set(result.r_c) == {"a", "b", "c", "d", "x"}
        assert [(set(c.higher), set(c.lower)) for c in result.r_p] == [
            ({"a", "b"}, {"c", "d"})
        ]

    def test_query_concepts_always_retained(self, f1):
        model = ExpansionModel(kind="noisy_or", leak=0.0, delta=0.5)
        result = expand(f1, membership(f1, F1_PAIR), model, top_k=1)
        names = {c.concept for c in result.concepts}
        assert set(F1_PAIR) <= names

    def test_empty_full_intersection_pools_maximal_subsets(self):
        # full intersection empty; {c1} and {c2} are the maximal seed sets,
        # and c3 overlaps both runs so its pooled score is the sum
        t = ingest(
            [
                ("c1", "a", 1), ("c1", "b", 1),
                ("c2", "c", 2), ("c2", "d", 1),
                ("c3", "a", 1), ("c3", "c", 3),
            ]
        )
        short = ["c1", "c2"]
        model = ExpansionModel(kind="noisy_or", leak=0.1, delta=0.5)
        members = membership(t, short)
        assert all(p.size == 1 for p in members.patterns)
        result = expand(t, members, model, top_k=10)
        run1 = relevance(t, "c3", ["a", "b"], short, model)
        run2 = relevance(t, "c3", ["c", "d"], short, model)
        by_name = {c.concept: c.score for c in result.concepts}
        assert by_name["c3"] == pytest.approx(run1 + run2, rel=1e-12)
        assert result.seed_entities == frozenset({"a", "b", "c", "d"})

    def test_unseen_query_concept_forced_into_pool(self):
        # maximal subset {c1, c2} gives seeds {b}; c3 covers no seed, yet it
        # must still appear in the pool so its entities stay rankable
        t = ingest(
            [
                ("c1", "a", 1), ("c1", "b", 1),
                ("c2", "b", 1),
                ("c3", "z", 1),
            ]
        )
        short = ["c1", "c2", "c3"]
        model = ExpansionModel(kind="noisy_or", leak=0.1, delta=0.5)
        result = expand(t, membership(t, short), model, top_k=10)
        names = {c.concept for c in result.concepts}
        assert "c3" in names
        assert "z" in result.r_c

    def test_each_seed_run_reads_its_rows_once(self, monkeypatch):
        # blue car is a candidate in no run, and scoring it reads no row again
        t = disjoint_concept_taxonomy()
        members = membership(t, ["red car", "fast car", "cult car", "blue car"])
        runs = {frozenset(p.ids.tolist()) for p in members.seed_runs()}
        assert len(runs) == 2
        reads = Counter()
        rows = Csr.rows

        def counting_rows(csr, which):
            if csr is t.by_entity and frozenset(which.tolist()) in runs:
                reads[frozenset(which.tolist())] += 1
            return rows(csr, which)

        monkeypatch.setattr(Csr, "rows", counting_rows)
        result = expand(t, members, ExpansionModel())
        assert "blue car" in {c.concept for c in result.concepts}
        assert reads == {run: 1 for run in runs}

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["noisy_or", "naive_bayes"]))
    @settings(max_examples=100, deadline=None)
    def test_unknown_short_concepts_change_nothing(self, seed, kind):
        # a short concept missing from the taxonomy is a zero row of the
        # membership matrix, in the baseline and in the expansion alike, and
        # a respelling of a known one is that concept again
        rng = random.Random(seed)
        t = random_taxonomy(rng, max_concepts=6, max_entities=8, max_edges=24)
        short = rng.sample(sorted(t.concept_names), rng.randint(1, min(3, len(t.concept_names))))
        model = ExpansionModel(kind=kind)
        respelled = f" {short[0].upper()}  "
        known, padded = membership(t, short), membership(t, short + [respelled, "no such x"])
        assert padded.concepts == (*short, "no such x")
        assert padded.concept_ids[-1] == -1
        base, base_padded = baseline_rank(t, known), baseline_rank(t, padded)
        assert base_padded.ids.tolist() == base.ids.tolist()
        assert base_padded.weights.tolist() == base.weights.tolist()
        want, got = expand(t, known, model, top_k=2), expand(t, padded, model, top_k=2)
        assert got.ids.tolist() == want.ids.tolist()
        assert got.scores.tolist() == want.scores.tolist()
        assert [tier.tolist() for tier in got.tiers] == [tier.tolist() for tier in want.tiers]
        assert got.concepts == want.concepts

    def test_r_c_covers_all_tier_entities(self, f1):
        model = ExpansionModel()
        members = membership(f1, F1_PAIR)
        result = expand(f1, members, model)
        tier_entities = {f1.entity_names[e] for tier in result.tiers for e in tier.tolist()}
        assert tier_entities <= set(result.r_c)


class TestSparseScoring:
    def test_noisy_or_equals_oracle_exactly(self):
        # The miss product runs over the seeds in name order and g(c) is an
        # integer ratio, so the array path repeats the oracle's arithmetic.
        rng = random.Random(11)
        for t, short, members, seeds in full_intersection_cases(rng, 60):
            model = ExpansionModel(
                kind="noisy_or", leak=rng.uniform(0.0, 0.9), delta=rng.uniform(0.05, 0.95)
            )
            result = expand(t, members, model, top_k=100)
            assert {c.concept for c in result.concepts} == {
                c for e in seeds for c in t.concepts_of(e)
            }
            for cr in result.concepts:
                want = oracle_rel_noisy_or(t, cr.concept, seeds, short, model.leak, model.delta)
                assert cr.score == want
                assert relevance(t, cr.concept, seeds, short, model) == want

    def test_unsmoothed_naive_bayes_is_zero_for_concepts_missing_a_seed(self):
        # every candidate is scored; expand retains the ones above 0 and no other
        rng = random.Random(12)
        zeros = 0
        model = ExpansionModel(kind="naive_bayes", gamma=1.0, delta=0.5)
        for t, short, members, seeds in full_intersection_cases(rng, 60):
            retained = {cr.concept: cr.score for cr in expand(t, members, model, top_k=100).concepts}
            for concept in {c for e in seeds for c in t.concepts_of(e)}:
                score = relevance(t, concept, seeds, short, model)
                if set(seeds) <= set(t.entities_of(concept)):
                    want = oracle_rel_naive_bayes(t, concept, seeds, short, 1.0, 0.5)
                    assert score == pytest.approx(want, rel=1e-12)
                    assert score > 0.0 and retained[concept] == score
                else:
                    assert score == 0.0 and concept not in retained
                    zeros += 1
        assert zeros > 0

    def test_unknown_seed_rejected(self, f1):
        with pytest.raises(ValueError):
            relevance(f1, "ivy league", ["a", "nobody"], F1_PAIR, ExpansionModel())


class TestTopKSelection:
    """A run retains the candidates scoring above 0 and at least the top_k-th
    best score, which a partition finds; the oracle sorts every candidate by
    score."""

    @pytest.mark.parametrize("model", SELECTION_MODELS, ids=["noisy_or", "naive_bayes_gamma1"])
    @given(seed=st.integers(0, 2**32 - 1), top_k=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_selection_matches_full_sort_oracle(self, model, seed, top_k):
        rng = random.Random(seed)
        t = random_taxonomy(rng, max_concepts=10, max_entities=8, max_edges=30, max_count=3)
        concepts = sorted(t.concept_names)
        short = rng.sample(concepts, rng.randint(1, min(3, len(concepts))))
        members = membership(t, short)
        runs = members.seed_runs()
        assume(top_k < max(len({c for e in names_of(t, p.ids) for c in t.concepts_of(e)}) for p in runs))
        result = expand(t, members, model, top_k=top_k)
        want, _, _ = oracle_expand(t, short, model, top_k)
        assert [(c.concept, c.score) for c in result.concepts] == want

    @pytest.mark.parametrize("model", SELECTION_MODELS, ids=["noisy_or", "naive_bayes_gamma1"])
    @pytest.mark.parametrize("top_k", [1, 10])
    def test_many_candidates_with_ties_match_full_sort_oracle(self, model, top_k):
        # 300 concepts over the seeds s1 and s2 (200 each); a concept's
        # counts depend only on i % 12, so every score is shared by at least 25
        # concepts, and two thirds of them miss one seed (0 under gamma = 1).
        rows = [
            ("q1 x", "s1", 1), ("q1 x", "s2", 1), ("q1 x", "u1", 1),
            ("q2 x", "s1", 1), ("q2 x", "s2", 1), ("q2 x", "u2", 2),
        ]
        for i in range(300):
            concept = f"k{i:03d}"
            if i % 3 != 2:
                rows.append((concept, "s1", 1 + i % 4))
            if i % 3 != 1:
                rows.append((concept, "s2", 1 + i % 2))
            if i % 6 == 0:
                rows.append((concept, "outside", 2))
        t = ingest(rows)
        assert all(len(t.concepts_of(s)) >= 200 for s in ("s1", "s2"))
        result = expand(t, membership(t, ["q1 x", "q2 x"]), model, top_k=top_k)
        concepts, entity_scores, r_p = oracle_expand(t, ["q1 x", "q2 x"], model, top_k)
        # the kept k-concepts are one profile that 25 concepts share, kept
        # whole as the tie at the top_k-th score
        kept = [score for name, score in concepts if name.startswith("k")]
        assert len(kept) == 25 and len(set(kept)) == 1
        assert [(c.concept, c.score) for c in result.concepts] == concepts
        assert dict(zip(names_of(t, result.ids), result.scores.tolist())) == entity_scores
        assert result.r_c == list(entity_scores)
        assert [(c.higher, c.lower) for c in result.r_p] == r_p
