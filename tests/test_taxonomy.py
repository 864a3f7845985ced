import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptq import taxonomy
from conceptq.errors import DataFormatError, EngineError
from conceptq.evaluation import planted_instance
from conceptq.taxonomy import (
    CooccurrenceRecord,
    Csr,
    Taxonomy,
    entity_intersection,
    entity_union,
    ingest,
    load,
    normalize,
)

from helpers import random_rows


def id_maps(t):
    """The name -> id maps that ``concept_id`` and ``entity_id`` read."""
    return ({c: t.concept_id(c) for c in t.concept_names},
            {e: t.entity_id(e) for e in t.entity_names})


class TestIngest:
    def test_single_row_sums(self):
        t = ingest([("ivy league", "harvard", 3)])
        assert t.n_c[t.concept_id("ivy league")] == 3
        assert t.n_e[t.entity_id("harvard")] == 3
        assert t.grand_total == 3

    def test_duplicate_rows_merge(self):
        t = ingest([("c", "e", 1), ("c", "e", 2)])
        assert t.count("c", "e") == 3
        assert t.n_edges == 1

    def test_f1_totals(self, f1):
        assert t_stats(f1) == (4, 5, 11, 21)

    def test_accepts_record_objects(self):
        t = ingest([CooccurrenceRecord("c", "e", 2)])
        assert t.count("c", "e") == 2

    def test_normalization_merges_variants(self):
        t = ingest([("Ivy  League", "Harvard", 1), ("ivy league", "  harvard ", 2)])
        assert t.count("ivy league", "harvard") == 3
        assert set(t.concept_names) == {"ivy league"}

    def test_first_seen_dense_ids(self):
        t = ingest([("c2", "y", 1), ("c1", "x", 1), ("c2", "x", 1)])
        assert t.concept_names == ["c2", "c1"]
        assert t.entity_names == ["y", "x"]
        assert id_maps(t) == ({"c2": 0, "c1": 1}, {"y": 0, "x": 1})

    @pytest.mark.parametrize(
        "rows,bad_row",
        [
            ([("c", "e", 1), ("c", "e", 0)], 2),
            ([("c", "e", -3)], 1),
            ([("c", "e", 1.5)], 1),
            ([("c", "e", True)], 1),
            ([("c", "e")], 1),
            ([("c", "e", 1), ("c", "   ", 2)], 2),
            ([(None, "e", 1)], 1),
            ([("c", "e", 1), ("c", "e", 2**63)], 2),
        ],
    )
    def test_malformed_rows_abort_with_row_number(self, rows, bad_row):
        with pytest.raises(DataFormatError) as err:
            ingest(rows)
        assert err.value.row == bad_row
        assert f"row {bad_row}" in str(err.value)


    def test_counts_must_total_below_2_to_63(self):
        ingest([("c", "e", 2**62), ("c", "x", 2**62 - 1)])
        with pytest.raises(DataFormatError):
            ingest([("c", "e", 2**62), ("c", "x", 2**62)])


def t_stats(t):
    return (len(t.concept_names), len(t.entity_names), t.n_edges, t.grand_total)


class TestLookups:
    def test_entities_of(self, f1):
        assert set(f1.entities_of("top university")) == {"a", "b", "d"}
        assert set(f1.entities_of("ivy league")) == {"a", "b"}
        assert dict(f1.entities_of("no such concept")) == {}

    def test_concepts_of(self, f1):
        assert set(f1.concepts_of("a")) == {
            "top university",
            "american university",
            "ivy league",
            "famous university",
        }
        assert set(f1.concepts_of("x")) == {"famous university"}
        assert dict(f1.concepts_of("nobody")) == {}

    def test_lookups_normalize_arguments(self, f1):
        assert set(f1.entities_of("  Ivy   LEAGUE ")) == {"a", "b"}
        assert f1.count("Top University", " A ") == 2

    def test_round_trip(self, f1):
        for c in f1.concept_names:
            for e in f1.entities_of(c):
                assert c in f1.concepts_of(e)
        for e in f1.entity_names:
            for c in f1.concepts_of(e):
                assert e in f1.entities_of(c)

    def test_views_are_read_only(self, f1):
        with pytest.raises(TypeError):
            f1.entities_of("ivy league")["a"] = 99


class TestProbabilities:
    """Probabilities are ratios of count() and the read-only marginals."""

    def test_cond_prob_values(self, f1):
        assert f1.count("ivy league", "a") / f1.n_e[f1.entity_id("a")] == pytest.approx(3 / 7)
        assert f1.count("famous university", "x") / f1.n_e[f1.entity_id("x")] == 1.0
        assert f1.count("ivy league", "a") / f1.n_c[f1.concept_id("ivy league")] == pytest.approx(3 / 6)
        assert f1.count("ivy league", "x") == 0
        assert f1.count("ivy league", "nobody") == 0

    def test_priors(self, f1):
        assert f1.n_c[f1.concept_id("ivy league")] / f1.grand_total == pytest.approx(6 / 21)
        assert f1.n_e[f1.entity_id("a")] / f1.grand_total == pytest.approx(7 / 21)
        assert f1.concept_id("no such") is None
        assert f1.entity_id("no such") is None

    def test_priors_sum_to_one(self, f1):
        n = f1.grand_total
        assert sum(f1.n_c[f1.concept_id(c)] / n for c in f1.concept_names) == pytest.approx(1.0)
        assert sum(f1.n_e[f1.entity_id(e)] / n for e in f1.entity_names) == pytest.approx(1.0)

    def test_conditionals_sum_to_one(self, f1):
        for e in f1.entity_names:
            total = sum(f1.count(c, e) / f1.n_e[f1.entity_id(e)] for c in f1.concepts_of(e))
            assert abs(total - 1.0) < 1e-12
        for c in f1.concept_names:
            total = sum(f1.count(c, e) / f1.n_c[f1.concept_id(c)] for e in f1.entities_of(c))
            assert abs(total - 1.0) < 1e-12

    def test_empty_taxonomy_priors(self):
        t = ingest([])
        assert t.concept_id("anything") is None
        assert len(t.n_c) == len(t.n_e) == 0
        assert t.grand_total == 0


names = st.text(alphabet="abcd", min_size=1, max_size=3)
rows_strategy = st.lists(
    st.tuples(names, names, st.integers(min_value=1, max_value=5)),
    min_size=1,
    max_size=25,
)


def respellings(name):
    """``name`` with each letter in either case, each space widened to a run
    of whitespace, and whitespace padding at both ends."""
    pad = st.sampled_from(["", " ", "\t", "  \n"])
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    chars = [space if ch == " " else st.sampled_from([ch.lower(), ch.upper()]) for ch in name]
    return st.tuples(pad, *chars, pad).map("".join)


class TestNameKeyedReads:
    @given(seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_respelled_name_reads_as_its_normalized_form(self, seed, data):
        # two-word names, so that inner whitespace can be doubled too
        t = ingest([(f"{c} kind", f"{e} one", n) for c, e, n in random_rows(random.Random(seed))])
        concepts = [*t.concept_names, "no such kind"]
        entities = [*t.entity_names, "no such one"]
        for c in concepts:
            spelled = data.draw(respellings(c))
            assert t.concept_id(spelled) == t.concept_id(c)
            assert t.has_concept(spelled) == t.has_concept(c)
            assert dict(t.entities_of(spelled)) == dict(t.entities_of(c))
            e = data.draw(st.sampled_from(entities))
            assert t.count(spelled, data.draw(respellings(e))) == t.count(c, e)
        for e in entities:
            spelled = data.draw(respellings(e))
            assert t.entity_id(spelled) == t.entity_id(e)
            assert t.has_entity(spelled) == t.has_entity(e)
            assert dict(t.concepts_of(spelled)) == dict(t.concepts_of(e))


class TestInvariants:
    @given(rows=rows_strategy, seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_ingest_permutation_invariant(self, rows, seed):
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        assert ingest(rows) == ingest(shuffled)

    @given(rows=rows_strategy)
    @settings(max_examples=100, deadline=None)
    def test_marginals_match_brute_force(self, rows):
        t = ingest(rows)
        t.check_marginals()
        brute_grand = sum(count for _, _, count in rows)
        assert t.grand_total == brute_grand

    def test_marginals_on_random_streams(self):
        rng = random.Random(7)
        for _ in range(50):
            t = ingest(random_rows(rng))
            t.check_marginals()
            assert t.grand_total == sum(t.n_e.tolist())

    def test_check_marginals_detects_corruption(self, f1):
        ivy = f1.concept_id("ivy league")
        with pytest.raises(ValueError):  # the stored vectors are read-only
            f1.n_c[ivy] += 1
        corrupted = f1.n_c.copy()
        corrupted[ivy] += 1
        f1.n_c = corrupted
        with pytest.raises(EngineError):
            f1.check_marginals()


class TestSetHelpers:
    def test_entity_union(self, f1):
        got = entity_union(f1, ["top university", "american university"])
        assert got == frozenset({"a", "b", "c", "d"})

    def test_entity_intersection(self, f1):
        got = entity_intersection(f1, ["top university", "american university"])
        assert got == frozenset({"a", "b"})
        assert entity_intersection(f1, []) == frozenset()
        assert entity_intersection(f1, ["ivy league", "no such"]) == frozenset()


class TestNormalize:
    def test_lowercase_and_collapse(self):
        assert normalize("  Top   AMERICAN\tuniversity ") == "top american university"

    def test_empty(self):
        assert normalize("   ") == ""


class TestLoad:
    def test_load_f1_file(self, f1_path, f1):
        assert load(f1_path) == f1

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# header\n\nc\te\t2\n   \n# tail\n", encoding="utf-8")
        t = load(path)
        assert t.count("c", "e") == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        t = load(path)
        assert t_stats(t) == (0, 0, 0, 0)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(b"top university\ta\t2\r\nivy league\ta\t3\r\n")
        t = load(path)
        assert t.count("top university", "a") == 2
        assert t.count("ivy league", "a") == 3

    @pytest.mark.parametrize(
        "third_line",
        ["c\te", "c\te\tx", "c\te\t0", "c\te\t2\textra", "\te\t2"],
    )
    def test_malformed_line_names_line_number(self, tmp_path, third_line):
        path = tmp_path / "bad.tsv"
        path.write_text(f"c\te\t1\n# comment\n{third_line}\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load(path)
        assert err.value.row == 3
        assert "line 3" in str(err.value)

    def test_a_byte_order_mark_is_not_part_of_a_name(self, tmp_path):
        body = "top university\ta\t2\ntop university\tb\t1\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(body, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        t = load(marked)
        assert t == load(plain)
        assert list(t.concept_names) == ["top university"]
        assert dict(t.entities_of("top university")) == {"a": 2, "b": 1}

    @pytest.mark.parametrize("first_line", ["c\te\t1", "# header"])
    def test_a_byte_order_mark_keeps_line_numbers(self, tmp_path, first_line):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{first_line}\nc\te\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        with pytest.raises(DataFormatError) as err:
            load(path)
        assert err.value.row == 2

    def test_load_peak_memory_is_bounded_by_retained_size(self, tmp_path):
        # ~10^5 edges over 5,000 concepts and 20,000 entities. Streaming load
        # peaks at 1.40x the retained taxonomy (a per-line record list made
        # it 2.04x); the bound sits between the two.
        rng = random.Random(3)
        path = tmp_path / "big.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(100_000):
                fh.write(
                    f"concept {rng.randrange(5000)}\tentity {rng.randrange(20000)}"
                    f"\t{rng.randint(1, 9)}\n"
                )
        tracemalloc.start()
        try:
            t = load(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.n_edges == 99_947
        assert peak < 1.7 * retained, (peak, retained)


class TestArrays:
    def test_arrays_are_read_only(self, f1):
        arrays = [f1.n_c, f1.n_e, f1.deg_c, f1.concept_rank, f1.entity_rank]
        for csr in (f1.by_concept, f1.by_entity):
            arrays += [csr.ptr, csr.ids, csr.counts]
        for values in arrays:
            assert not values.flags.writeable

    def test_orientations_hold_the_merged_pairs(self):
        rng = random.Random(9)
        for _ in range(50):
            rows = random_rows(rng)
            t = ingest(rows)
            merged: dict = {}
            for c, e, n in rows:
                merged[c, e] = merged.get((c, e), 0) + n
            by_concept = {
                (t.concept_names[c], t.entity_names[e]): n
                for c, e, n in zip(*t.by_concept.pairs(), t.by_concept.counts)
            }
            by_entity = {
                (t.concept_names[c], t.entity_names[e]): n
                for e, c, n in zip(*t.by_entity.pairs(), t.by_entity.counts)
            }
            assert by_concept == by_entity == merged
            for csr in (t.by_concept, t.by_entity):
                for i in range(len(csr.ptr) - 1):
                    ids = list(csr.row(i)[0])
                    assert ids and ids == sorted(set(ids))
            assert list(t.deg_c) == [len(t.entities_of(c)) for c in t.concept_names]

    def test_name_ranks_follow_name_order(self, f1):
        assert [f1.entity_names[i] for i in f1.entity_rank.argsort()] == sorted(f1.entity_names)
        assert [f1.concept_names[i] for i in f1.concept_rank.argsort()] == sorted(f1.concept_names)


class TestWithoutEdges:
    @staticmethod
    def check(t, concepts, entities):
        concepts, entities = set(concepts), set(entities)
        got = t.without_edges(concepts, entities)
        want = ingest(
            r for r in t.records() if not (r.concept in concepts and r.entity in entities)
        )
        assert got == want
        assert set(got.concept_names) == set(want.concept_names)
        assert set(got.entity_names) == set(want.entity_names)
        got.check_marginals()
        # the entity orientation and the marginals are those of a rebuild
        # that sorts the kept pairs by entity
        rebuilt = Taxonomy.from_pairs(*id_maps(got),
                                      *got.by_concept.pairs(), got.by_concept.counts)
        for a, b in ((got.by_entity.ptr, rebuilt.by_entity.ptr),
                     (got.by_entity.ids, rebuilt.by_entity.ids),
                     (got.by_entity.counts, rebuilt.by_entity.counts),
                     (got.n_c, rebuilt.n_c), (got.n_e, rebuilt.n_e), (got.deg_c, rebuilt.deg_c)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # name ranks are inherited from the parent and still sort by name
        assert [got.entity_names[i] for i in got.entity_rank.argsort()] == sorted(got.entity_names)
        assert [got.concept_names[i] for i in got.concept_rank.argsort()] == sorted(got.concept_names)
        assert not got.entity_rank.flags.writeable
        return got

    def test_random_fixtures_match_reingest(self):
        rng = random.Random(17)
        for _ in range(200):
            t = ingest(random_rows(rng))
            concepts = rng.sample(sorted(t.concept_names), rng.randint(0, len(t.concept_names)))
            entities = rng.sample(sorted(t.entity_names), rng.randint(0, len(t.entity_names)))
            self.check(t, concepts, entities)

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(1, 5)),
                 min_size=1, max_size=30),
        st.sets(st.integers(0, 5)),
        st.sets(st.integers(0, 7)),
    )
    @settings(max_examples=200, deadline=None)
    def test_cut_matches_reingest_of_the_kept_records(self, rows, concepts, entities):
        t = ingest([(f"c{c}", f"e{e}", n) for c, e, n in rows])
        self.check(t, [f"c{c}" for c in concepts], [f"e{e}" for e in entities])

    def test_planted_instances_match_reingest(self):
        for seed in range(5):
            inst = planted_instance(seed=seed)
            t = inst.build()
            short = [f"{m} {inst.head}" for m in inst.modifiers]
            removed = sorted(inst.answers)[: 3 + seed]
            got = self.check(t, short, removed)
            for entity in removed:
                assert got.count(inst.equivalent_concept, entity) == t.count(
                    inst.equivalent_concept, entity
                )

    def test_emptied_concept_and_entity_are_dropped(self):
        t = ingest([("short a", "x", 1), ("short a", "y", 2), ("other", "y", 1)])
        got = self.check(t, ["short a"], ["x", "y"])
        assert got.has_concept("short a") is False
        assert got.has_entity("x") is False
        assert set(got.concept_names) == {"other"}
        assert got.n_c[got.concept_id("other")] == 1

    def test_unknown_names_are_ignored(self, f1):
        assert f1.without_edges(["no such"], ["nobody"]) == f1

    def test_a_cut_that_empties_no_name_shares_names_maps_and_ranks(self, monkeypatch):
        t = ingest([("a", "x", 1), ("a", "y", 2), ("b", "x", 3), ("b", "z", 1), ("c", "x", 4)])
        ranks = t.concept_rank, t.entity_rank

        def forbidden(*args):
            raise AssertionError("a cut that empties no name read every pair or renumbered")

        with monkeypatch.context() as mp:
            mp.setattr(Csr, "pairs", forbidden)
            mp.setattr(taxonomy, "_compact", forbidden)
            got = t.without_edges(["a", "b"], ["x"])
        assert got.concept_names is t.concept_names
        assert got.entity_names is t.entity_names
        assert got._concept_ids is t._concept_ids
        assert got._entity_ids is t._entity_ids
        assert got.concept_rank is ranks[0] and got.entity_rank is ranks[1]
        self.check(t, ["a", "b"], ["x"])

    def test_a_cut_of_a_cut_equals_one_combined_cut(self):
        rng = random.Random(23)
        for _ in range(200):
            t = ingest(random_rows(rng))
            concepts = rng.sample(sorted(t.concept_names), rng.randint(0, len(t.concept_names)))
            first = rng.sample(sorted(t.entity_names), rng.randint(0, len(t.entity_names)))
            second = rng.sample(sorted(t.entity_names), rng.randint(0, len(t.entity_names)))
            # the child, which shares arrays with t, is itself a valid parent
            child = self.check(t, concepts, first)
            got = self.check(child, concepts, second)
            want = self.check(t, concepts, set(first) | set(second))
            assert got == want
            assert got.concept_names == want.concept_names
            assert got.entity_names == want.entity_names
            for a, b in zip(arrays(got), arrays(want)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_the_parent_is_unchanged_and_read_only_after_any_cut(self):
        rng = random.Random(31)
        for _ in range(100):
            t = ingest(random_rows(rng))
            records = list(t.records())
            before = [a.copy() for a in arrays(t)]
            names = list(t.concept_names), list(t.entity_names), id_maps(t)
            concepts = rng.sample(sorted(t.concept_names), rng.randint(0, len(t.concept_names)))
            entities = rng.sample(sorted(t.entity_names), rng.randint(0, len(t.entity_names)))
            got = t.without_edges(concepts, entities)
            assert list(t.records()) == records
            assert (t.concept_names, t.entity_names, id_maps(t)) == names
            for a, b in zip(arrays(t), before):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            for a in arrays(t) + arrays(got):
                assert not a.flags.writeable

    def test_a_cut_that_hits_no_pair_returns_the_parent(self):
        t = ingest([("a", "x", 1), ("a", "y", 2), ("b", "z", 3)])
        for concepts, entities in (
            (["a"], ["z"]),  # known names that share no pair
            (["b"], ["x", "y"]),
            (["no such"], ["x"]),
            (["a"], ["nobody"]),
            ([], ["x"]),
            (["a"], []),
        ):
            got = t.without_edges(concepts, entities)
            assert got == t
            assert got is t


def arrays(t):
    """Every array a taxonomy holds: both orientations, the marginals and the name ranks."""
    return [t.by_concept.ptr, t.by_concept.ids, t.by_concept.counts,
            t.by_entity.ptr, t.by_entity.ids, t.by_entity.counts,
            t.n_c, t.n_e, t.deg_c, t.concept_rank, t.entity_rank]
