import io
import os
import random
import stat
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conceptq import taxonomy
from conceptq.errors import DataFormatError, EngineError
from conceptq.taxonomy import (
    CooccurrenceRecord,
    Csr,
    Taxonomy,
    data_lines,
    entity_intersection,
    entity_union,
    ingest,
    load,
    normalize,
)

from helpers import piped, planted_instance, random_rows, reference_load


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

    @pytest.mark.parametrize("lookup, what", [("concept_id", "concepts"), ("entity_id", "entities")])
    def test_a_name_that_is_not_a_string_is_rejected(self, f1, lookup, what):
        with pytest.raises(ValueError, match=f"{what} must be names, got 3"):
            getattr(f1, lookup)(3)

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
            assert (t.concept_id(spelled) is not None) == (t.concept_id(c) is not None)
            assert dict(t.entities_of(spelled)) == dict(t.entities_of(c))
            e = data.draw(st.sampled_from(entities))
            assert t.count(spelled, data.draw(respellings(e))) == t.count(c, e)
        for e in entities:
            spelled = data.draw(respellings(e))
            assert t.entity_id(spelled) == t.entity_id(e)
            assert (t.entity_id(spelled) is not None) == (t.entity_id(e) is not None)
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

    @pytest.mark.parametrize("helper", [entity_union, entity_intersection])
    def test_a_bare_string_is_rejected_not_read_as_one_letter_names(self, f1, helper):
        with pytest.raises(ValueError, match="collection of names"):
            helper(f1, "top university")

    @pytest.mark.parametrize("helper", [entity_union, entity_intersection])
    def test_an_element_that_is_not_a_string_is_rejected(self, f1, helper):
        with pytest.raises(ValueError, match="concepts must be names, got None"):
            helper(f1, [None])


class TestNormalize:
    def test_lowercase_and_collapse(self):
        assert normalize("  Top   AMERICAN\tuniversity ") == "top american university"

    def test_empty(self):
        assert normalize("   ") == ""


# Names, counts and lines for taxonomy files: clean rows, and lines that are
# skipped or make the file fail, in spellings that the block parse and the
# per-line reader must read alike.
NAMES = ["a", "A", "b c", " B \u3000C ", "x#y", "é", "É", "d\x1ce", "d\u2028e", "Straße"]
COUNTS = ["1", "2", " 7 ", "+3", "1_000", "\x1c4", "\u0663"]
SKIPPED_LINES = ["# note", "  # indented", "# c\te\t1", " #\tc\t2", "", "   ", " \t \t ", "\t\t",
                 "\u3000"]
BAD_LINES = [
    "a\tb\t0", "a\tb\t-1", "a\tb\tx", "a\tb\t9223372036854775808", "a\tb\t9223372036854775807",
    "\xa0\tb\t1", "a\t\t1",
]


def taxonomy_texts():
    row = st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES),
                    st.sampled_from(COUNTS)).map("\t".join)
    # 2 and 4 fields: a block holding one of each has two tabs a line on average
    cell = st.sampled_from(NAMES + COUNTS)
    wrong_fields = st.one_of(st.tuples(cell, cell), st.tuples(cell, cell, cell, cell)).map("\t".join)
    line = st.one_of(*[row] * 7, *[st.sampled_from(SKIPPED_LINES)] * 2,
                     st.sampled_from(BAD_LINES), wrong_fields)
    ending = st.sampled_from(["\n", "\r\n", "\r"])
    body = st.lists(st.tuples(line, ending).map("".join), max_size=30).map("".join)
    return st.tuples(st.sampled_from(["", "\ufeff"]), body,
                     st.sampled_from(["", "c\te\t1"])).map("".join)


def load_outcome(read, path):
    """Everything ``read(path)`` builds -- names in id order, id maps, both
    CSR orientations, the marginals and the entity name ranks -- or the row
    and message it fails with."""
    try:
        t = read(path)
    except DataFormatError as exc:
        return "error", exc.row, str(exc)
    arrays = [getattr(csr, part) for csr in (t.by_concept, t.by_entity)
              for part in ("ptr", "ids", "counts")] + [t.n_c, t.n_e, t.deg_c, t.entity_rank]
    return (t.concept_names, t.entity_names, t._concept_ids, t._entity_ids,
            [(a.dtype.str, a.tolist()) for a in arrays], t.grand_total)


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
        # ~10^5 edges over 5,000 concepts and 20,000 entities. Load peaks at
        # 1.40x the retained taxonomy, in _Builder.build, with blocks of 16 Ki
        # characters (1.41x with 256 Ki); a per-line record list made it
        # 2.04x. The bound sits between the two.
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

    @pytest.mark.parametrize(
        "head, bad_line",
        [
            (b"c\te\t1\n", 2),
            (b"\xef\xbb\xbfc\te\t1\r\n# note\r\n", 3),
            (b"c\te\t1\rc\te\t2\r", 3),
            (b"c\te\t1\n" * 20_000, 20_001),
            # a malformed line in the same block is not reached
            (b"c\te\n", 2),
        ],
        ids=["plain", "bom-crlf-comment", "lone-cr", "past-many-blocks", "after-a-malformed-line"],
    )
    def test_invalid_utf8_names_its_line(self, tmp_path, head, bad_line):
        path = tmp_path / "bad.tsv"
        path.write_bytes(head + b"c\t\xff\xfe\t2\nc\te\t3\n")
        for read in (load, lambda p: list(data_lines(p))):
            # a pipe, which can be read only once, and then the file
            for source in (piped(path.read_bytes()), nullcontext(path)):
                with pytest.raises(DataFormatError) as err, source as readable:
                    read(readable)
                assert err.value.row == bad_line
                assert str(err.value) == f"line {bad_line}: not valid UTF-8"

    def test_clean_rows_skip_the_line_by_line_path(self, f1_path, f1):
        with mock.patch.object(taxonomy._Builder, "add", side_effect=AssertionError):
            assert load(f1_path) == f1

    @given(text=taxonomy_texts(), block_chars=st.integers(1, 24))
    # a whitespace-only line whose two tabs look like a clean row
    @example(text="c\te\t1\n \t \t \nd\tf\t2\n", block_chars=64)
    # a malformed line that starts the second block
    @example(text="c\te\t1\nd\tf\n", block_chars=8)
    # lines of 2 and 4 fields whose fields line up as two rows
    @example(text="a\tb\n3\tc\td\t1\n", block_chars=64)
    @settings(max_examples=300, deadline=None)
    def test_load_matches_the_line_by_line_reader(self, tmp_path_factory, text, block_chars):
        path = tmp_path_factory.mktemp("load") / "t.tsv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(taxonomy, "_BLOCK_CHARS", block_chars):
            assert load_outcome(load, path) == load_outcome(reference_load, path)


def snapshot_of(path) -> Path:
    return Path(f"{path}.conceptq.npz")


def parsed_never():
    """A patch under which a load that parses its file fails."""
    return mock.patch.object(taxonomy._Builder, "build", side_effect=AssertionError("parsed"))


def rewrite_snapshot(path, change):
    """Rewrite the snapshot of ``path`` with ``change`` applied to its arrays."""
    with np.load(snapshot_of(path)) as stored:
        arrays = dict(stored)
    change(arrays)
    with open(snapshot_of(path), "wb") as fh:
        np.savez(fh, **arrays)


def replace(name, value):
    def change(arrays):
        arrays[name] = value(arrays[name]) if callable(value) else value
    return change


def names_blob(*names):
    return np.frombuffer("".join(f"{n}\n" for n in names).encode(), np.uint8)


def shifted_key(field, value):
    """A change of one space-separated field of the key: format, Unicode
    version or digest."""
    def change(arrays):
        fields = arrays["key"].tolist().split(" ")
        fields[field] = value
        arrays["key"] = np.array(" ".join(fields))
    return change


def swap_first_ids(arrays):
    # the first pair moves to the last pair's entity: every id stays in range
    # and every ptr well formed, but the columns no longer match the entity rows
    ids = arrays["by_concept_ids"].copy()
    ids[0] = ids[-1]
    arrays["by_concept_ids"] = ids


def drop(name):
    def change(arrays):
        del arrays[name]
    return change


def npy_bytes() -> bytes:
    """A ``.npy`` file of one array, which ``np.load`` returns as it is."""
    out = io.BytesIO()
    np.save(out, np.arange(3))
    return out.getvalue()


# f1 as loaded: 4 concepts, 5 entities, 11 pairs
SNAPSHOT_DAMAGE = {
    "key-format": shifted_key(0, "0"),
    "key-unicode-version": shifted_key(1, "1.0.0"),
    "key-digest": shifted_key(2, "0" * 64),
    "key-missing": drop("key"),
    "array-missing": drop("by_entity_counts"),
    "ids-dtype": replace("by_concept_ids", lambda a: a.astype(np.int64)),
    "counts-dtype": replace("by_entity_counts", lambda a: a.astype(np.float64)),
    "names-dtype": replace("entity_names", lambda a: a.astype(np.int16)),
    "rank-dtype": replace("entity_rank", lambda a: a.astype(np.int32)),
    "counts-2d": replace("by_concept_counts", lambda a: a.reshape(1, -1)),
    "ptr-start": replace("by_concept_ptr", lambda a: a + 1),
    "ptr-decreasing": replace("by_entity_ptr", np.array([0, 4, 2, 8, 9, 11])),
    "ptr-end": replace("by_entity_ptr", lambda a: np.append(a[:-1], 10)),
    "ptr-empty-row": replace("by_concept_ptr", np.array([0, 0, 5, 8, 11])),
    "id-too-large": replace("by_entity_ids", lambda a: np.append(a[:-1], np.int32(4))),
    "id-negative": replace("by_concept_ids", lambda a: np.append(np.int32(-1), a[1:])),
    "count-zero": replace("by_entity_counts", lambda a: np.append(a[:-1], 0)),
    "orientations-disagree": swap_first_ids,
    "names-short": replace("concept_names", lambda a: a[:-1]),
    "names-count": replace("entity_names", names_blob("a", "b", "c", "d")),
    "names-repeated": replace("entity_names", names_blob("a", "b", "c", "d", "a")),
    "names-undecodable": replace("concept_names", lambda a: np.append(np.uint8(0xff), a)),
    "rank-not-a-permutation": replace("entity_rank", lambda a: np.zeros_like(a)),
    "rank-length": replace("entity_rank", lambda a: a[:-1]),
}


class TestSnapshot:
    @given(text=taxonomy_texts())
    @settings(max_examples=200, deadline=None)
    def test_a_cold_load_and_then_a_hit_equal_the_line_by_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("snapshot") / "t.tsv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_outcome(reference_load, path)
        assert load_outcome(load, path) == expected
        if expected[0] == "error":
            assert not snapshot_of(path).exists()
            return
        with parsed_never():
            assert load_outcome(load, path) == expected

    def test_a_hit_equals_the_parse_and_its_arrays_are_read_only(self, f1_path, f1):
        load(f1_path)
        with parsed_never():
            t = load(f1_path)
        assert t == f1
        arrays = [t.n_c, t.n_e, t.deg_c, t.entity_rank]
        for csr in (t.by_concept, t.by_entity):
            arrays += [csr.ptr, csr.ids, csr.counts]
        assert not any(values.flags.writeable for values in arrays)

    def test_an_empty_file_loads_twice(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_bytes(b"")
        assert t_stats(load(path)) == (0, 0, 0, 0)
        assert snapshot_of(path).is_file()
        with parsed_never():
            t = load(path)
        assert t_stats(t) == (0, 0, 0, 0)
        assert t.concept_names == t.entity_names == [] and len(t.entity_rank) == 0

    def test_a_same_size_rewrite_with_the_old_mtime_is_a_miss(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"c\ta\t2\nc\tb\t3\n")
        first = load(path)
        stamp = path.stat()
        path.write_bytes(b"c\ta\t3\nc\tb\t2\n")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_size == stamp.st_size
        second = load(path)
        assert (first.count("c", "a"), second.count("c", "a")) == (2, 3)
        with parsed_never():
            assert load(path) == second

    def test_the_snapshot_gets_the_files_permission_bits(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"c\ta\t2\n")
        path.chmod(0o640)
        load(path)
        assert stat.S_IMODE(snapshot_of(path).stat().st_mode) == 0o640

    @pytest.mark.parametrize("damage", list(SNAPSHOT_DAMAGE), ids=list(SNAPSHOT_DAMAGE))
    def test_a_damaged_snapshot_is_a_miss_and_is_rewritten(self, f1_path, damage):
        expected = load_outcome(reference_load, f1_path)
        load(f1_path)
        rewrite_snapshot(f1_path, SNAPSHOT_DAMAGE[damage])
        assert taxonomy._read_snapshot(f1_path, str(snapshot_of(f1_path))) is None
        assert load_outcome(load, f1_path) == expected
        with parsed_never():
            assert load_outcome(load, f1_path) == expected

    @pytest.mark.parametrize("data", [b"", b"PK\x03\x04", b"not a zip file", npy_bytes(), None],
                             ids=["empty", "zip-header", "text", "one-array", "truncated"])
    def test_an_unreadable_snapshot_is_a_miss_and_is_rewritten(self, f1_path, data):
        expected = load_outcome(reference_load, f1_path)
        load(f1_path)
        whole = snapshot_of(f1_path).read_bytes()
        snapshot_of(f1_path).write_bytes(whole[: len(whole) // 2] if data is None else data)
        assert load_outcome(load, f1_path) == expected
        with parsed_never():
            assert load_outcome(load, f1_path) == expected

    def test_a_pickled_snapshot_is_not_unpickled(self, f1_path):
        load(f1_path)
        with open(snapshot_of(f1_path), "wb") as fh:
            np.save(fh, np.array([{"key": 1}], dtype=object), allow_pickle=True)
        assert load(f1_path) == load(f1_path)
        with parsed_never():
            load(f1_path)

    @pytest.mark.parametrize("target", ["tempfile.mkstemp", "os.chmod", "os.replace", "numpy.savez"])
    def test_a_failed_write_still_loads_and_leaves_no_file(self, f1_path, f1, monkeypatch, target):
        # tests may run as root, which may write anywhere: the failure is injected
        module, name = target.rsplit(".", 1)
        monkeypatch.setattr(f"{module}.{name}", mock.Mock(side_effect=OSError(28, "No space left")))
        assert load(f1_path) == f1
        assert sorted(p.name for p in f1_path.parent.iterdir()) == ["f1.tsv"]

    def test_a_file_that_is_not_regular_gets_no_snapshot(self, f1_path, f1):
        # /dev/fd/N names an open descriptor, here the read end of a pipe
        read, write = os.pipe()
        with open(write, "wb") as fh:
            fh.write(f1_path.read_bytes())
        try:
            with mock.patch.object(taxonomy, "_read_snapshot", side_effect=AssertionError), \
                    mock.patch.object(taxonomy, "_write_snapshot", side_effect=AssertionError):
                assert load(f"/dev/fd/{read}") == f1
        finally:
            os.close(read)

    def test_a_link_keeps_the_snapshot_beside_the_file_it_names(self, f1_path, f1, tmp_path):
        # /dev/stdin redirected from a file is /dev/fd/0, a link to that file
        link = tmp_path / "link.tsv"
        link.symlink_to(f1_path)
        assert load(link) == f1
        with open(f1_path, "rb") as fh:
            with parsed_never():
                assert load(f"/dev/fd/{fh.fileno()}") == f1
        assert not snapshot_of(link).exists()

    def test_a_python_without_blake2_still_imports_and_keeps_a_snapshot(self, f1_path):
        code = (
            "import sys\n"
            "sys.modules['_blake2'] = None\n"
            "from conceptq import taxonomy\n"
            "first = taxonomy.load(sys.argv[1])\n"
            "taxonomy._Builder = None\n"
            "print(taxonomy.load(sys.argv[1]) == first, taxonomy._hasher().name)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-c", code, str(f1_path)], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout.split() == ["True", "sha256"]


class TestArrays:
    def test_arrays_are_read_only(self, f1):
        arrays = [f1.n_c, f1.n_e, f1.deg_c, f1.entity_rank]
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
        # no concept tie is decided by name, so concepts have no name ranks
        assert not hasattr(f1, "concept_rank")


class TestWithoutEdges:
    @pytest.mark.parametrize(
        "concepts, entities", [("top university", ["a"]), (["top university"], "ab")],
        ids=["concepts", "entities"],
    )
    def test_a_bare_string_is_rejected_not_read_as_one_letter_names(self, f1, concepts, entities):
        with pytest.raises(ValueError, match="collection of names"):
            f1.without_edges(concepts, entities)

    @pytest.mark.parametrize(
        "concepts, entities", [([None], ["a"]), (["top university"], ["a", 3])],
        ids=["concepts", "entities"],
    )
    def test_an_element_that_is_not_a_string_is_rejected(self, f1, concepts, entities):
        with pytest.raises(ValueError, match="must be names, got (None|3)"):
            f1.without_edges(concepts, entities)

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
        # entity name ranks are inherited from the parent and still sort by name
        assert [got.entity_names[i] for i in got.entity_rank.argsort()] == sorted(got.entity_names)
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
        assert got.concept_id("short a") is None
        assert got.entity_id("x") is None
        assert set(got.concept_names) == {"other"}
        assert got.n_c[got.concept_id("other")] == 1

    def test_unknown_names_are_ignored(self, f1):
        assert f1.without_edges(["no such"], ["nobody"]) == f1

    def test_a_cut_that_empties_no_name_shares_names_maps_and_ranks(self, monkeypatch):
        t = ingest([("a", "x", 1), ("a", "y", 2), ("b", "x", 3), ("b", "z", 1), ("c", "x", 4)])
        rank = t.entity_rank

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
        assert got.entity_rank is rank
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
    """Every array a taxonomy holds: both orientations, the marginals and the entity name ranks."""
    return [t.by_concept.ptr, t.by_concept.ids, t.by_concept.counts,
            t.by_entity.ptr, t.by_entity.ids, t.by_entity.counts,
            t.n_c, t.n_e, t.deg_c, t.entity_rank]
