import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptq.errors import QueryParseError, UnanswerableQueryError
from conceptq.expansion import ExpansionModel, expand
from conceptq.pipeline import run_query
from conceptq.query import decompose, membership, parse
from conceptq.taxonomy import entity_intersection, ingest

from helpers import (
    enumerate_subsets,
    names_of,
    oracle_e_union,
    oracle_seed_runs,
    oracle_tiers,
    random_taxonomy,
    tier_rows,
)


class TestParse:
    def test_multi_modifier_query(self):
        q = parse("top american private university")
        assert q.head == "university"
        assert q.modifiers == ("top", "american", "private")

    def test_single_modifier_query(self):
        q = parse("low-fertility country")
        assert q.head == "country"
        assert q.modifiers == ("low-fertility",)

    def test_bare_head_rejected(self):
        with pytest.raises(QueryParseError):
            parse("university")

    def test_normalizes_case_and_whitespace(self):
        q = parse("  Top   AMERICAN university ")
        assert q.head == "university"
        assert q.modifiers == ("top", "american")

    def test_head_override_multiword(self):
        q = parse("top state school", head_override="state school")
        assert q.head == "state school"
        assert q.modifiers == ("top",)

    def test_head_override_must_be_suffix(self):
        with pytest.raises(QueryParseError):
            parse("top state school", head_override="state")
        with pytest.raises(QueryParseError):
            parse("top state school", head_override="top state school")

    def test_head_override_leaving_no_modifiers(self):
        with pytest.raises(QueryParseError):
            parse("state school", head_override="state school")


class TestDecompose:
    def test_f1_resolution(self, f1):
        q = parse("top american university")
        d = decompose(q, f1)
        assert d.short_concepts == ("top university", "american university")
        assert d.unresolved == ()

    def test_partial_resolution(self, f1):
        q = parse("top shiny university")
        d = decompose(q, f1)
        assert d.short_concepts == ("top university",)
        assert d.unresolved == ("shiny",)

    def test_all_unresolved_fails(self, f1):
        q = parse("shiny glossy university")
        with pytest.raises(UnanswerableQueryError):
            decompose(q, f1)

    def test_duplicate_modifiers_deduplicated(self, f1):
        q = parse("top top university")
        d = decompose(q, f1)
        assert d.short_concepts == ("top university",)


def three_concept_taxonomy():
    # overlaps arranged so every subset of {c1,c2,c3} has a non-empty
    # intersection: "core" is shared by all three
    return ingest(
        [
            ("p school", "core", 1),
            ("p school", "p_only", 1),
            ("p school", "pq", 1),
            ("q school", "core", 1),
            ("q school", "pq", 1),
            ("q school", "qr", 1),
            ("r school", "core", 1),
            ("r school", "qr", 1),
        ]
    )


def entities(t, pattern):
    return frozenset(names_of(t, pattern.ids))


def pattern_rows(t, members):
    return [(sorted(p.subset), entities(t, p), p.size) for p in members.patterns]


class TestEnumerateSubsets:
    """The subset-lattice cases, answered by membership patterns and checked
    against the lattice oracle ``helpers.enumerate_subsets``."""

    def test_f1_pair(self, f1):
        members = membership(f1, ["top university", "american university"])
        assert pattern_rows(f1, members) == [
            (["american university", "top university"], {"a", "b"}, 2),
            (["american university"], {"c"}, 1),
            (["top university"], {"d"}, 1),
        ]
        assert [f1.entity_names[e] for e in members.ids.tolist()] == ["a", "b", "d", "c"]
        assert members.matrix.tolist() == [[1, 1, 1, 0], [1, 1, 0, 1]]
        assert frozenset().union(*(entities(f1, p) for p in members.patterns)) == {"a", "b", "c", "d"}

    def test_full_set_comes_first(self, f1):
        members = membership(f1, ["top university", "american university"])
        assert members.patterns[0].size == 2
        assert members.seed_runs() == members.patterns[:1]

    def test_three_concepts_enumerate_all_proper_subsets(self):
        t = three_concept_taxonomy()
        concepts = ["p school", "q school", "r school"]
        # the lattice holds all 2^3 - 1 subsets; only four of them are some
        # entity's exact pattern
        assert len(enumerate_subsets(t, concepts)) == 7
        assert pattern_rows(t, membership(t, concepts)) == [
            (concepts, {"core"}, 3),
            (["p school", "q school"], {"pq"}, 2),
            (["q school", "r school"], {"qr"}, 2),
            (["p school"], {"p_only"}, 1),
        ]

    def test_single_concept(self, f1):
        members = membership(f1, ["ivy league"])
        assert pattern_rows(f1, members) == [(["ivy league"], {"a", "b"}, 1)]

    def test_empty_intersections_dropped(self):
        t = ingest([("c1", "a", 1), ("c2", "b", 1)])
        members = membership(t, ["c2", "c1"])
        assert pattern_rows(t, members) == [(["c1"], {"a"}, 1), (["c2"], {"b"}, 1)]
        assert members.seed_runs() == members.patterns

    def test_unknown_concept_is_a_zero_row(self, f1):
        members = membership(f1, ["no such concept", "ivy league"])
        assert members.matrix.tolist() == [[0, 0], [1, 1]]
        assert pattern_rows(f1, members) == [(["ivy league"], {"a", "b"}, 1)]
        assert membership(f1, ["no such concept"]).patterns == []
        with pytest.raises(ValueError):
            membership(f1, [])

    def test_a_bare_string_is_rejected_not_read_as_one_letter_names(self, f1):
        with pytest.raises(ValueError, match="collection of names"):
            membership(f1, "top university")

    def test_an_element_that_is_not_a_string_is_rejected(self, f1):
        with pytest.raises(ValueError, match="short concepts must be names, got None"):
            membership(f1, ["top university", None])

    def test_25_modifier_query_is_answered(self):
        modifiers = [f"m{i:02d}" for i in range(25)]
        rows = [(f"{m} school", "shared", 2) for m in modifiers]
        rows += [(f"{m} school", f"own{m}", 1) for m in modifiers]
        result = run_query(ingest(rows), " ".join(modifiers) + " school")
        assert len(result.decomposition.short_concepts) == 25
        assert result.subsets[0].size == 25
        assert result.ranking[0].entity == "shared"
        assert result.ranking[0].provenance == "seed"
        assert {r.provenance for r in result.ranking[1:]} == {"baseline-only"}
        assert len(result.ranking) == 26

    def test_deterministic(self, f1):
        concepts = ["top university", "american university"]
        one, two = membership(f1, concepts), membership(f1, concepts)
        assert pattern_rows(f1, one) == pattern_rows(f1, two)
        assert np.array_equal(one.matrix, two.matrix)

    def test_anti_monotone_on_random_fixtures(self):
        # every lattice intersection is the union of the patterns that
        # contain its subset, and the patterns partition E_u
        rng = random.Random(11)
        for _ in range(25):
            t = random_taxonomy(rng, max_concepts=4, max_entities=6, max_edges=14)
            concepts = sorted(t.concept_names)[:4]
            members = membership(t, concepts)
            for si in enumerate_subsets(t, concepts):
                covering = [entities(t, p) for p in members.patterns if si.subset <= p.subset]
                assert si.entities == frozenset().union(*covering)
            sizes = [len(p.ids) for p in members.patterns]
            union = frozenset().union(*(entities(t, p) for p in members.patterns))
            assert sum(sizes) == len(union) == len(members.ids)

    def test_pattern_ids_are_its_entities_in_name_order(self):
        # expansion reads a seed run's ids, in name order, with no name lookup
        rng = random.Random(12)
        for _ in range(25):
            t = random_taxonomy(rng, max_concepts=4, max_entities=8, max_edges=20)
            for p in membership(t, sorted(t.concept_names)[:3]).patterns:
                names = names_of(t, p.ids)
                assert names == sorted(names)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_patterns_match_lattice_oracle(self, seed, k):
        rng = random.Random(seed)
        t = random_taxonomy(rng, max_concepts=8, max_entities=10, max_edges=30)
        concepts = sorted(t.concept_names)
        short = rng.sample(concepts, min(k, len(concepts)))
        members = membership(t, short)
        lattice = enumerate_subsets(t, short)
        # every pattern is a lattice subset, listed in the lattice's order
        position = {si.subset: i for i, si in enumerate(lattice)}
        at = [position[p.subset] for p in members.patterns]
        assert at == sorted(at)
        assert [entities(t, p) for p in members.seed_runs()] == oracle_seed_runs(lattice, len(short))
        tiers = tier_rows(t, members, expand(t, members, ExpansionModel()).tiers)
        assert [(size, frozenset(names)) for size, names in tiers] == oracle_tiers(lattice)
        assert [names for _, names in tiers] == [sorted(names) for _, names in tiers]
        assert {t.entity_names[e] for e in members.ids.tolist()} == oracle_e_union(t, short)
        top = members.patterns[0]
        full = entities(t, top) if top.size == len(short) else frozenset()
        assert full == entity_intersection(t, short)
